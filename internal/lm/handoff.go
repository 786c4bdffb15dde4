package lm

import "repro/internal/topology"

// Handoff accounting (paper §4 and §5).
//
// Between two consecutive hierarchy snapshots the server table is
// recomputed; every changed (owner, level) assignment is one LM entry
// transfer, costed in packet transmissions by a HopModel. Each
// transfer is attributed to a cause:
//
//   - Migration (φ): the trigger is an individual node crossing a
//     level-1 cluster boundary while the (logical) cluster population
//     stays intact — either the entry's owner migrated (its logical
//     ancestors changed) or its previous server migrated out of the
//     serving cluster, handing over the entries it stored (§4's two
//     directions).
//   - Reorganization (γ): everything else — cluster birth/death,
//     wholesale cluster moves across level-k links, and the internal
//     re-hashing they induce (§5's events i–vii).
//
// Because chains are *logical* (cluster.IdentityTracker), clusterhead
// relabels with stable membership produce no table diff and hence no
// phantom handoff. The paper's per-node-per-second φ_k and γ_k are
// these packet totals divided by |V|·T by the caller.

// Cause distinguishes the overhead families. The paper's φ and γ cover
// only *handoff* — relocation of existing LM entries between servers;
// first-time registrations (a level newly reachable above an owner, or
// a node rejoining the connected component) are location-registration
// overhead, which the paper delegates to its companion reference [17]
// and which is therefore tallied separately here.
type Cause int

// Causes.
const (
	CauseMigration    Cause = iota // φ: node migration (§4)
	CauseReorg                     // γ: cluster reorganization (§5)
	CauseRegistration              // first registration of an entry ([17], not φ/γ)
	CauseDrop                      // entry dropped with its level (free)
)

// String names the cause.
func (c Cause) String() string {
	switch c {
	case CauseMigration:
		return "migration"
	case CauseReorg:
		return "reorg"
	case CauseRegistration:
		return "registration"
	default:
		return "drop"
	}
}

// Transfer is one accounted LM entry movement.
type Transfer struct {
	Owner   int
	Level   int
	From    int // previous server (-1: initial registration)
	To      int // new server (-1: entry dropped)
	Packets int
	Cause   Cause
}

// Totals accumulates handoff overhead per level and cause.
type Totals struct {
	// PhiPackets[k] / GammaPackets[k]: packet transmissions for
	// level-k entries (index 0 unused).
	PhiPackets   []float64
	GammaPackets []float64
	// PhiEntries / GammaEntries: entry-transfer counts.
	PhiEntries   []int64
	GammaEntries []int64
	// RegPackets / RegEntries: first-time registrations (reference
	// [17] overhead, reported separately from handoff).
	RegPackets []float64
	RegEntries []int64
	// UpdatePackets[k]: owner-driven location updates — after changing
	// its level-k cluster the owner sends its new hierarchical address
	// to its (possibly unchanged) level-k server. This is the
	// location-registration traffic of reference [17], also separate
	// from φ/γ handoff.
	UpdatePackets []float64
	UpdateEvents  []int64
	// DropEntries: entries that vanished with their level (free).
	DropEntries []int64
	// MigrationEvents[k]: logical node-level-k cluster changes
	// attributed to individual migration (the paper's f_k numerator).
	MigrationEvents []int64
	// MembershipEvents[k]: all logical level-k cluster changes.
	MembershipEvents []int64
}

// grow ensures the slices cover level k.
func (t *Totals) grow(k int) {
	for len(t.PhiPackets) <= k {
		t.PhiPackets = append(t.PhiPackets, 0)
		t.GammaPackets = append(t.GammaPackets, 0)
		t.PhiEntries = append(t.PhiEntries, 0)
		t.GammaEntries = append(t.GammaEntries, 0)
		t.RegPackets = append(t.RegPackets, 0)
		t.RegEntries = append(t.RegEntries, 0)
		t.UpdatePackets = append(t.UpdatePackets, 0)
		t.UpdateEvents = append(t.UpdateEvents, 0)
		t.DropEntries = append(t.DropEntries, 0)
		t.MigrationEvents = append(t.MigrationEvents, 0)
		t.MembershipEvents = append(t.MembershipEvents, 0)
	}
}

// MaxLevel returns the highest level with data.
func (t *Totals) MaxLevel() int { return len(t.PhiPackets) - 1 }

// PhiTotal returns Σ_k PhiPackets[k].
func (t *Totals) PhiTotal() float64 { return sum(t.PhiPackets) }

// GammaTotal returns Σ_k GammaPackets[k].
func (t *Totals) GammaTotal() float64 { return sum(t.GammaPackets) }

// RegTotal returns Σ_k RegPackets[k].
func (t *Totals) RegTotal() float64 { return sum(t.RegPackets) }

// UpdateTotal returns Σ_k UpdatePackets[k].
func (t *Totals) UpdateTotal() float64 { return sum(t.UpdatePackets) }

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

// rootChange describes the lowest-level logical membership change of a
// node in one tick.
type rootChange struct {
	minLevel int  // 0: no change
	pure     bool // individual level-1 migration between persistent clusters
}

// Accountant turns table diffs into classified packet counts. It owns
// reusable per-tick scratch, so it is not safe for concurrent use; the
// slice returned by Apply is valid only until the next Apply call.
type Accountant struct {
	Hop topology.HopModel

	// Per-owner scratch of chainChanges, indexed by owner ID: roots[v]
	// is v's root change and changedAt[v] the bitmask of levels whose
	// logical cluster changed (0: none). changed lists the owners with
	// entries, ascending; only those are reset by the next call.
	roots     []rootChange
	changedAt []uint64
	changed   []int
	prevLive1 map[uint64]bool
	nextLive1 map[uint64]bool
	diffs     []TableDiff
	transfers []Transfer
}

// NewAccountant returns an accountant using the given hop model.
func NewAccountant(hop topology.HopModel) *Accountant {
	return &Accountant{Hop: hop}
}

// rootOf returns v's root change in the current tick (minLevel 0 when
// v's chain did not change).
func (a *Accountant) rootOf(v int) rootChange {
	if uint(v) >= uint(len(a.roots)) {
		return rootChange{}
	}
	return a.roots[v]
}

// levelsChanged returns the bitmask of v's changed levels this tick.
func (a *Accountant) levelsChanged(v int) uint64 {
	if uint(v) >= uint(len(a.changedAt)) {
		return 0
	}
	return a.changedAt[v]
}

// Apply accounts one tick's handoff between consecutive tables. It
// returns the classified transfers — reused by the next Apply call, so
// callers that retain them must copy — and accumulates into totals.
func (a *Accountant) Apply(prevT, nextT *Table, totals *Totals) []Transfer {
	a.chainChanges(prevT, nextT, totals)

	// Owner-driven location updates ([17]): an owner whose level-k
	// cluster changed refreshes its level-k entry at the current
	// server, whether or not the serving node moved. Owners are
	// visited in sorted order so float accumulation is deterministic.
	for _, owner := range a.changed {
		levels := a.changedAt[owner]
		for k := 1; levels>>uint(k) != 0; k++ {
			if levels&(1<<uint(k)) == 0 {
				continue
			}
			srv := nextT.Server(owner, k)
			if srv < 0 {
				continue
			}
			totals.grow(k)
			totals.UpdatePackets[k] += float64(a.Hop.Hops(owner, srv))
			totals.UpdateEvents[k]++
		}
	}

	a.diffs = appendTableDiffs(a.diffs[:0], prevT, nextT)
	diffs := a.diffs
	transfers := a.transfers[:0]
	for _, td := range diffs {
		totals.grow(td.Level)
		var packets int
		var cause Cause
		switch {
		case td.OldServer >= 0 && td.NewServer >= 0:
			// Handoff proper: an existing entry relocates.
			packets = a.Hop.Hops(td.OldServer, td.NewServer)
			cause = CauseReorg
			if a.levelsChanged(td.Owner)&(1<<uint(td.Level)) != 0 {
				// Owner-side trigger: the owner's level-k cluster changed.
				if a.rootOf(td.Owner).pure {
					cause = CauseMigration
				}
			} else if a.rootOf(td.OldServer).pure {
				// Server-side trigger: the assignment moved without the
				// owner moving; attribute to the old server's own motion
				// when that motion was an individual migration.
				cause = CauseMigration
			}
			if cause == CauseMigration {
				totals.PhiPackets[td.Level] += float64(packets)
				totals.PhiEntries[td.Level]++
			} else {
				totals.GammaPackets[td.Level] += float64(packets)
				totals.GammaEntries[td.Level]++
			}
		case td.OldServer < 0 && td.NewServer >= 0:
			// First registration of this entry: location-registration
			// overhead ([17]), not handoff.
			packets = a.Hop.Hops(td.Owner, td.NewServer)
			cause = CauseRegistration
			totals.RegPackets[td.Level] += float64(packets)
			totals.RegEntries[td.Level]++
		default:
			// Entry dropped with the level; no transfer needed.
			cause = CauseDrop
			totals.DropEntries[td.Level]++
		}
		transfers = append(transfers, Transfer{
			Owner: td.Owner, Level: td.Level,
			From: td.OldServer, To: td.NewServer,
			Packets: packets, Cause: cause,
		})
	}
	a.transfers = transfers
	return transfers
}

// chainChanges extracts per-node logical membership changes between
// two tables into the accountant's per-owner scratch: the root-change
// classification for φ/γ attribution, a per-node bitmask of changed
// levels, and the ascending list of changed owners; it also counts the
// f_k events.
func (a *Accountant) chainChanges(prevT, nextT *Table, totals *Totals) {
	for _, v := range a.changed {
		a.roots[v], a.changedAt[v] = rootChange{}, 0
	}
	a.changed = a.changed[:0]
	if prevT == nil || len(prevT.owners) == 0 {
		return
	}
	if n := prevT.owners[len(prevT.owners)-1] + 1; n > len(a.roots) {
		a.roots = append(a.roots, make([]rootChange, n-len(a.roots))...)
		a.changedAt = append(a.changedAt, make([]uint64, n-len(a.changedAt))...)
	}
	liveFilled := false // lazy level-1 liveness
	live1 := func() (map[uint64]bool, map[uint64]bool) {
		if !liveFilled {
			a.prevLive1 = prevT.LiveAtInto(1, a.prevLive1)
			a.nextLive1 = nextT.LiveAtInto(1, a.nextLive1)
			liveFilled = true
		}
		return a.prevLive1, a.nextLive1
	}
	for _, v := range prevT.owners {
		pc := prevT.Chain(v)
		nc := nextT.Chain(v)
		depth := len(pc)
		if len(nc) > depth {
			depth = len(nc)
		}
		for i := 0; i < depth; i++ {
			var old, nw uint64
			haveOld, haveNew := i < len(pc), i < len(nc)
			if haveOld {
				old = pc[i]
			}
			if haveNew {
				nw = nc[i]
			}
			if haveOld == haveNew && old == nw {
				continue
			}
			k := i + 1
			totals.grow(k)
			totals.MembershipEvents[k]++
			if a.changedAt[v] == 0 {
				a.changed = append(a.changed, v)
			}
			a.changedAt[v] |= 1 << uint(k)
			if rc := a.roots[v]; rc.minLevel == 0 || k < rc.minLevel {
				pure := false
				if k == 1 && haveOld && haveNew {
					pl, nl := live1()
					pure = pl[nw] && nl[old]
				}
				a.roots[v] = rootChange{minLevel: k, pure: pure}
			}
		}
		if a.roots[v].pure {
			// Count the pure migration at every level it touched.
			for k := 1; k <= depth; k++ {
				if a.changedAt[v]&(1<<uint(k)) != 0 {
					totals.grow(k)
					totals.MigrationEvents[k]++
				}
			}
		}
	}
}

// LiveAt returns the set of logical cluster IDs appearing at level k
// in any owner's chain (every live cluster has at least one level-0
// descendant, so this enumerates the live clusters).
func (t *Table) LiveAt(k int) map[uint64]bool {
	return t.LiveAtInto(k, nil)
}

// LiveAtInto is LiveAt filling dst (cleared first; nil allocates) so
// per-tick consumers can reuse one map.
func (t *Table) LiveAtInto(k int, dst map[uint64]bool) map[uint64]bool {
	if dst == nil {
		dst = map[uint64]bool{}
	} else {
		clear(dst)
	}
	if k < 1 {
		return dst
	}
	for _, chain := range t.chains {
		if k <= len(chain) {
			dst[chain[k-1]] = true
		}
	}
	return dst
}
