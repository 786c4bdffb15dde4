// Package lm implements the paper's primary contribution: clustered
// hierarchy location management (CHLM, §3.2) and the accounting of its
// handoff overhead (§4, §5).
//
// Each node v maintains one LM server per hierarchy level k = 1..L.
// The level-k server is found by hashing v against the member clusters
// of v's level-k cluster, then recursively against the members of the
// chosen cluster, down to a single level-0 node — the CHLM adaptation
// of GLS server selection. The paper's two requirements on the hash
// (unambiguous selection, equitable load) are met by rendezvous
// hashing; the GLS circular-successor rule of Eq. (5) is also
// implemented to demonstrate the load skew the paper warns about.
//
// Hashing is keyed on *stable logical cluster IDs* (see
// cluster.IdentityTracker), not on raw clusterhead IDs: a clusterhead
// relabel must not re-home entries whose clusters persist. Ablation A4
// measures the overhead explosion of naive head-ID keying.
package lm

import (
	"fmt"
)

// HashFamily selects one candidate from a list, deterministically.
// keys are the candidates' stable hash keys (logical cluster IDs, or
// level-0 node IDs at the leaf step of the descent); Select returns
// the index of the winner.
type HashFamily interface {
	// Select returns the winning index in keys (which must be
	// non-empty) for the given owner and level.
	Select(owner uint64, level int, keys []uint64) int
	// Name identifies the family in reports.
	Name() string
}

// Rendezvous is highest-random-weight hashing: the candidate
// minimizing FNV-1a(owner, level, key, salt) wins. Changing one
// candidate relocates only the owners that hashed to it, and load is
// equitable because the hash is uniform in all arguments — exactly the
// two CHLM requirements of §3.2.
type Rendezvous struct {
	Salt uint64
}

// Name implements HashFamily.
func (r Rendezvous) Name() string { return "rendezvous" }

// Select implements HashFamily. The weight of a candidate is
// FNV-1a(owner, level, key, salt) plus the finalizer, but FNV-1a is a
// left fold over bytes, so the (owner, level) prefix state is folded
// once per call and each candidate only folds its key and the salt
// (see foldWord). The weights are bit-identical to folding all 32
// bytes one at a time.
func (r Rendezvous) Select(owner uint64, level int, keys []uint64) int {
	if len(keys) == 0 {
		panic("lm: Select with no candidates")
	}
	prefix := foldWord(foldWord(fnvOffset, owner, 0), uint64(level), 0)
	best := 0
	bestW := r.weight(prefix, keys[0])
	for i := 1; i < len(keys); i++ {
		w := r.weight(prefix, keys[i])
		if w < bestW || (w == bestW && keys[i] < keys[best]) {
			best, bestW = i, w
		}
	}
	return best
}

// weight folds key and the salt into the (owner, level) prefix state
// and finalizes it. A zero salt is eight zero bytes, which fold into
// the key's trailing multiply.
func (r Rendezvous) weight(prefix, key uint64) uint64 {
	if r.Salt == 0 {
		return finalize(foldWord(prefix, key, 8))
	}
	return finalize(foldWord(foldWord(prefix, key, 0), r.Salt, 0))
}

// Successor is the GLS rule of Eq. (5): choose the candidate z
// minimizing (z - owner - 1) mod IDSpace, i.e. the least key greater
// than the owner, wrapping circularly. The paper notes (§3.2) that
// applying this rule directly to CHLM's small, clustered candidate
// sets concentrates load ("a disproportionately large number of nodes
// ... selecting 45"); ablation A3 measures that skew.
type Successor struct {
	IDSpace int
}

// Name implements HashFamily.
func (s Successor) Name() string { return "successor" }

// Select implements HashFamily.
func (s Successor) Select(owner uint64, level int, keys []uint64) int {
	if len(keys) == 0 {
		panic("lm: Select with no candidates")
	}
	m := uint64(s.IDSpace)
	if s.IDSpace <= 0 {
		panic(fmt.Sprintf("lm: Successor.IDSpace = %d", s.IDSpace))
	}
	best := 0
	dist := func(k uint64) uint64 { return (k%m + m - owner%m - 1) % m }
	bestD := dist(keys[0])
	for i := 1; i < len(keys); i++ {
		if d := dist(keys[i]); d < bestD {
			best, bestD = i, d
		}
	}
	return best
}

// FNV-1a parameters (64-bit).
const (
	fnvOffset = 0xCBF29CE484222325
	fnvPrime  = 0x00000100000001B3
)

// primePow[k] is fnvPrime^k mod 2^64.
var primePow = func() (p [17]uint64) {
	p[0] = 1
	for k := 1; k < len(p); k++ {
		p[k] = p[k-1] * fnvPrime
	}
	return p
}()

// foldWord runs FNV-1a over w's eight bytes, least significant first,
// followed by pad zero bytes (pad is 0 or 8). A zero byte does
// h ^= 0; h *= prime, so the word's high zero bytes and the padding
// fold into one multiply by prime^k; only the bytes up to the highest
// nonzero one are folded one by one.
func foldWord(h, w uint64, pad int) uint64 {
	n := 0
	for ; w != 0; w >>= 8 {
		h ^= w & 0xFF
		h *= fnvPrime
		n++
	}
	return h * primePow[8-n+pad]
}

// finalize is the splitmix64 mixer, the avalanche step after FNV-1a.
func finalize(h uint64) uint64 {
	h = (h ^ (h >> 30)) * 0xBF58476D1CE4E5B9
	h = (h ^ (h >> 27)) * 0x94D049BB133111EB
	return h ^ (h >> 31)
}

var (
	_ HashFamily = Rendezvous{}
	_ HashFamily = Successor{}
)
