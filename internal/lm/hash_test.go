package lm

import (
	"testing"

	"repro/internal/rng"
)

// hash4 is the reference rendezvous weight: FNV-1a over the 32 bytes of
// (a, b, c, d), each word least significant byte first, followed by
// the splitmix64 finalizer. Rendezvous.Select must pick exactly the
// candidate this weight picks.
func hash4(a, b, c, d uint64) uint64 {
	const (
		offset = 0xCBF29CE484222325
		prime  = 0x00000100000001B3
	)
	h := uint64(offset)
	for _, w := range [4]uint64{a, b, c, d} {
		for i := 0; i < 8; i++ {
			h ^= (w >> (8 * i)) & 0xFF
			h *= prime
		}
	}
	h = (h ^ (h >> 30)) * 0xBF58476D1CE4E5B9
	h = (h ^ (h >> 27)) * 0x94D049BB133111EB
	return h ^ (h >> 31)
}

// refSelect is the reference rendezvous argmin: the least hash4 weight
// wins, ties go to the smaller key.
func refSelect(salt, owner uint64, level int, keys []uint64) int {
	best := 0
	bestW := hash4(owner, uint64(level), keys[0], salt)
	for i := 1; i < len(keys); i++ {
		w := hash4(owner, uint64(level), keys[i], salt)
		if w < bestW || (w == bestW && keys[i] < keys[best]) {
			best, bestW = i, w
		}
	}
	return best
}

// edgeWords are the words whose byte patterns exercise the zero-byte
// folding: zero, single set bytes at both ends, all ones, interior zero
// bytes, and the simulation's typical small counters.
var edgeWords = []uint64{
	0, 1, 0xFF, 0x100, 0x7FF, 0xFFFF, 1 << 56, 0xFF << 56, ^uint64(0),
	0x0100000000000001, 0x00FF00FF00FF00FF, 0xFF00FF00FF00FF00,
	0x0000010000000100, 0x8000000000000000, 0x0000000100000000,
}

func TestFoldedWeightMatchesHash4(t *testing.T) {
	salts := []uint64{0, 7, 1 << 56, ^uint64(0)}
	for _, salt := range salts {
		r := Rendezvous{Salt: salt}
		for _, owner := range edgeWords {
			for _, level := range []int{0, 1, 2, 7, 300} {
				prefix := foldWord(foldWord(fnvOffset, owner, 0), uint64(level), 0)
				for _, key := range edgeWords {
					if got, want := r.weight(prefix, key), hash4(owner, uint64(level), key, salt); got != want {
						t.Fatalf("salt %#x owner %#x level %d key %#x: weight %#x, hash4 %#x",
							salt, owner, level, key, got, want)
					}
				}
			}
		}
	}
}

func TestRendezvousSelectMatchesReference(t *testing.T) {
	src := rng.New(19)
	// Keys drawn from each regime: small counters (the production
	// case), full-width words, and words with random zero bytes.
	draw := func(mode int) uint64 {
		switch mode {
		case 0:
			return src.Uint64n(1 << 12)
		case 1:
			return src.Uint64()
		default:
			w := src.Uint64()
			for i := 0; i < 8; i++ {
				if src.Intn(2) == 0 {
					w &^= 0xFF << (8 * i)
				}
			}
			return w
		}
	}
	for trial := 0; trial < 4000; trial++ {
		mode := trial % 3
		salt := uint64(0)
		if trial%4 == 3 {
			salt = draw(mode)
		}
		owner := draw(mode)
		if mode == 0 {
			owner %= 2048
		}
		level := src.Intn(8)
		keys := make([]uint64, 1+src.Intn(24))
		for i := range keys {
			keys[i] = draw(mode)
		}
		if trial%5 == 0 {
			// Splice in the edge words so they compete in an argmin.
			keys = append(keys, edgeWords[src.Intn(len(edgeWords))])
		}
		r := Rendezvous{Salt: salt}
		if got, want := r.Select(owner, level, keys), refSelect(salt, owner, level, keys); got != want {
			t.Fatalf("trial %d (salt %#x owner %#x level %d keys %v): Select %d, reference %d",
				trial, salt, owner, level, keys, got, want)
		}
	}
}

func TestRendezvousSelectEdgeWords(t *testing.T) {
	for _, salt := range []uint64{0, 0x0100000000000001} {
		r := Rendezvous{Salt: salt}
		for _, owner := range edgeWords {
			for level := 0; level < 4; level++ {
				if got, want := r.Select(owner, level, edgeWords), refSelect(salt, owner, level, edgeWords); got != want {
					t.Fatalf("salt %#x owner %#x level %d: Select %d, reference %d", salt, owner, level, got, want)
				}
			}
		}
	}
}
