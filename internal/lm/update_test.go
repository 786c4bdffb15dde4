package lm

import (
	"maps"
	"slices"
	"testing"

	"repro/internal/cluster"
)

// idSet is a per-level set of logical cluster IDs, the reference
// analysis's own set type.
type idSet []map[uint64]bool

func newIDSet(levels int) idSet {
	d := make(idSet, levels)
	for k := range d {
		d[k] = map[uint64]bool{}
	}
	return d
}

func (d idSet) mark(k int, id uint64) bool {
	if d[k][id] {
		return false
	}
	d[k][id] = true
	return true
}

// keySets returns each live logical level-k cluster's sorted member
// hash keys.
func keySets(h *cluster.Hierarchy, ids *cluster.Identities, k int) map[uint64][]uint64 {
	out := map[uint64][]uint64{}
	for _, head := range h.LevelNodes(k) {
		if id, ok := ids.Logical(k, head); ok {
			keys := memberKeys(h, ids, k, h.MembersAt(k, head))
			slices.Sort(keys)
			out[id] = keys
		}
	}
	return out
}

// scanOwnDirty is the reference own-dirty analysis: per level, the
// logical IDs whose sorted member-key sets differ between the two
// snapshots, including IDs present in only one.
func scanOwnDirty(
	prevH *cluster.Hierarchy, prevIDs *cluster.Identities,
	nextH *cluster.Hierarchy, nextIDs *cluster.Identities,
) idSet {
	maxL := max(prevH.L(), nextH.L())
	own := newIDSet(maxL + 1)
	for k := 1; k <= maxL; k++ {
		pm, nm := keySets(prevH, prevIDs, k), keySets(nextH, nextIDs, k)
		for _, m := range []map[uint64][]uint64{pm, nm} {
			for _, id := range sortedIDs(m) {
				if !slices.Equal(pm[id], nm[id]) || pm[id] == nil || nm[id] == nil {
					own.mark(k, id)
				}
			}
		}
	}
	return own
}

// propagateUp is the linear-scan reference for the propagation step:
// it finds the head carrying the logical ID by scanning level k, then
// marks that cluster's ancestors dirty within one snapshot.
func propagateUp(h *cluster.Hierarchy, ids *cluster.Identities, k int, id uint64, dirty idSet) {
	head := -1
	for _, hd := range h.LevelNodes(k) {
		if lid, ok := ids.Logical(k, hd); ok && lid == id {
			head = hd
			break
		}
	}
	if head < 0 {
		return
	}
	cur := head
	for j := k; j < h.L(); j++ {
		parent := h.Levels[j].MemberOf(cur)
		if parent < 0 {
			return
		}
		pid, ok := ids.Logical(j+1, parent)
		if !ok {
			return
		}
		if !dirty.mark(j+1, pid) {
			return
		}
		cur = parent
	}
}

// sortedIDs returns the keys of a map in ascending order.
func sortedIDs[V any](m map[uint64]V) []uint64 {
	out := make([]uint64, 0, len(m))
	for id := range m {
		out = append(out, id)
	}
	slices.Sort(out)
	return out
}

// scanDirtySubtrees propagates the own-changed marks upward through
// the parents in both snapshots with the linear-scan propagateUp,
// level by level in sorted ID order.
func scanDirtySubtrees(
	own idSet,
	prevH *cluster.Hierarchy, prevIDs *cluster.Identities,
	nextH *cluster.Hierarchy, nextIDs *cluster.Identities,
) idSet {
	dirty := make(idSet, len(own))
	for k := range own {
		dirty[k] = maps.Clone(own[k])
	}
	for k := 1; k < len(dirty); k++ {
		for _, id := range sortedIDs(dirty[k]) {
			propagateUp(prevH, prevIDs, k, id, dirty)
			propagateUp(nextH, nextIDs, k, id, dirty)
		}
	}
	return dirty
}

// TestDirtySubtreesMatchesScan: on consecutive snapshots the cluster
// index must flag exactly the next clusters the reference analysis
// marks, own-dirty by member keys and sub-dirty by propagation through
// both snapshots. On pairs several ticks apart the next identities
// were not matched against the previous ones, so no cluster is paired
// and every cluster must be own- and sub-dirty. One index is reused
// across all pairs.
func TestDirtySubtreesMatchesScan(t *testing.T) {
	var ix clusterIndex
	pairs, dirtyAbove := 0, 0
	for _, n := range []int{12, 60, 150, 300} {
		for seed := uint64(1); seed <= 3; seed++ {
			hs, ids := tableSnapshots(n, 5, seed*31+uint64(n))
			for a := 0; a < len(hs); a++ {
				for _, b := range []int{a + 1, a + 3, len(hs) - 1} {
					if b <= a || b >= len(hs) {
						continue
					}
					ix.build(hs[a], ids[a], hs[b], ids[b])
					own := scanOwnDirty(hs[a], ids[a], hs[b], ids[b])
					want := scanDirtySubtrees(own, hs[a], ids[a], hs[b], ids[b])
					for k := 1; k <= hs[b].L(); k++ {
						for _, c := range hs[b].LevelNodes(k) {
							q, _ := ids[b].Logical(k, c)
							e := ix.levels[k][c]
							wantOwn, wantSub := own[k][q], want[k][q]
							if b != a+1 {
								wantOwn, wantSub = true, true
							}
							if e.own != wantOwn || e.sub != wantSub {
								t.Fatalf("n=%d seed=%d (%d,%d) level %d cluster %d: own/sub %v/%v, want %v/%v",
									n, seed, a, b, k, q, e.own, e.sub, wantOwn, wantSub)
							}
							if k >= 2 && e.sub && !e.own {
								dirtyAbove++
							}
						}
					}
					pairs++
				}
			}
		}
	}
	if dirtyAbove == 0 {
		t.Fatalf("no propagation above level 1 in %d pairs; the comparison is vacuous", pairs)
	}
}

// TestUpdateWorkCounts: a table built from scratch hashes a full
// descent for every (owner, level), k Selects for level k, and an
// incremental update hashes less.
func TestUpdateWorkCounts(t *testing.T) {
	hs, ids := tableSnapshots(150, 1, 8)
	s := NewSelector(nil)
	var sc UpdateScratch
	fresh := s.UpdateTableIntoPar(nil, &sc, nil, nil, hs[0], ids[0], hs[0], ids[0], nil, nil)
	wantSel := 0
	for _, v := range fresh.Owners() {
		n := fresh.Levels(v)
		wantSel += n * (n + 1) / 2
	}
	sel, hashes := sc.Work()
	if sel != wantSel || wantSel == 0 {
		t.Fatalf("fresh update: %d selects, want %d", sel, wantSel)
	}
	if hashes < sel {
		t.Fatalf("fresh update: %d hashes < %d selects", hashes, sel)
	}

	s.UpdateTableIntoPar(nil, &sc, nil, fresh, hs[0], ids[0], hs[1], ids[1], nil, nil)
	if incSel, _ := sc.Work(); incSel == 0 || incSel >= wantSel {
		t.Fatalf("incremental update: %d selects, want in (0, %d)", incSel, wantSel)
	}
}

// TestUpdateUnmatchedIdentitiesPaysFullDescents pins the pairing
// contract: given next identities that were not matched against the
// previous ones — snapshots several ticks apart, or the same snapshot
// pair from another tracker's lineage, whose logical IDs are equal —
// the update pairs no cluster, so it must return BuildTable's table
// and do a fresh build's hash work. A consecutive pair from one
// lineage is the control: it must do less.
func TestUpdateUnmatchedIdentitiesPaysFullDescents(t *testing.T) {
	const n = 150
	hs, ids := tableSnapshots(n, 3, 12)
	hsB, idsB := tableSnapshots(n, 3, 12)
	s := NewSelector(nil)
	var sc UpdateScratch
	cases := []struct {
		name         string
		prev, next   int
		nextH        *cluster.Hierarchy
		nextIDs      *cluster.Identities
		wantFullWork bool
	}{
		{"three ticks apart", 0, 3, hs[3], ids[3], true},
		{"other lineage", 0, 1, hsB[1], idsB[1], true},
		{"consecutive", 0, 1, hs[1], ids[1], false},
	}
	for _, c := range cases {
		prevT := s.BuildTable(hs[c.prev], ids[c.prev])
		s.UpdateTableIntoPar(nil, &sc, nil, nil, nil, nil, c.nextH, c.nextIDs, nil, nil)
		freshSel, freshHashes := sc.Work()
		got := s.UpdateTableIntoPar(nil, &sc, nil, prevT, hs[c.prev], ids[c.prev], c.nextH, c.nextIDs, nil, nil)
		if d := DiffTables(s.BuildTable(c.nextH, c.nextIDs), got); len(d) != 0 {
			t.Fatalf("%s: update deviates from BuildTable: %+v", c.name, d[0])
		}
		sel, hashes := sc.Work()
		full := sel == freshSel && hashes == freshHashes
		if full != c.wantFullWork {
			t.Fatalf("%s: work (%d, %d), fresh build (%d, %d); want full work %v",
				c.name, sel, hashes, freshSel, freshHashes, c.wantFullWork)
		}
	}
	// The other lineage names every cluster alike, so only the pairing
	// record tells the two apart.
	for k := 1; k <= hs[1].L(); k++ {
		for _, c := range hs[1].LevelNodes(k) {
			a, _ := ids[1].Logical(k, c)
			if b, _ := idsB[1].Logical(k, c); a != b {
				t.Fatalf("lineages differ at level %d cluster %d: %d vs %d", k, c, a, b)
			}
		}
	}
}
