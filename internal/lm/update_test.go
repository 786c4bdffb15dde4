package lm

import (
	"maps"
	"slices"
	"testing"

	"repro/internal/cluster"
	"repro/internal/par"
)

// propagateUp is the linear-scan reference for the propagation step of
// dirtySubtrees: it finds the head carrying the logical ID by scanning
// level k, then marks that cluster's ancestors dirty within one
// snapshot.
func propagateUp(h *cluster.Hierarchy, ids *cluster.Identities, k int, id uint64, dirty dirtySet) {
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
		lvl := h.Level(j)
		if lvl == nil || lvl.Member == nil {
			return
		}
		parent, ok := lvl.Member[cur]
		if !ok {
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

// sortedIDs returns the IDs of a dirty-set level in ascending order.
func sortedIDs(m map[uint64]bool) []uint64 {
	out := make([]uint64, 0, len(m))
	for id := range m {
		out = append(out, id)
	}
	slices.Sort(out)
	return out
}

// scanDirtySubtrees propagates the own-changed marks upward with the
// linear-scan propagateUp, level by level in sorted ID order.
func scanDirtySubtrees(
	own dirtySet,
	prevH *cluster.Hierarchy, prevIDs *cluster.Identities,
	nextH *cluster.Hierarchy, nextIDs *cluster.Identities,
) dirtySet {
	dirty := make(dirtySet, len(own))
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

// TestDirtySubtreesMatchesScan: the indexed head lookup must mark
// exactly the clusters the linear scan marks, on random snapshot pairs
// (consecutive ticks and pairs several ticks apart), with one scratch
// reused across all of them.
func TestDirtySubtreesMatchesScan(t *testing.T) {
	var sc UpdateScratch
	pairs, dirtyAbove := 0, 0
	for _, n := range []int{12, 60, 150, 300} {
		for seed := uint64(1); seed <= 3; seed++ {
			hs, ids := tableSnapshots(n, 5, seed*31+uint64(n))
			for a := 0; a < len(hs); a++ {
				for _, b := range []int{a + 1, a + 3, len(hs) - 1} {
					if b <= a || b >= len(hs) {
						continue
					}
					got := sc.dirtySubtrees(hs[a], ids[a], hs[b], ids[b])
					// sc.own keeps the levels of earlier, deeper pairs.
					own := sc.own[:len(got)]
					want := scanDirtySubtrees(own, hs[a], ids[a], hs[b], ids[b])
					for k := range want {
						if !maps.Equal(got[k], want[k]) {
							t.Fatalf("n=%d seed=%d (%d,%d) level %d: dirty %v, scan %v",
								n, seed, a, b, k, sortedIDs(got[k]), sortedIDs(want[k]))
						}
						if k >= 2 && len(got[k]) > len(own[k]) {
							dirtyAbove++
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
// descent for every (owner, level), k Selects for level k; and the
// parallel update counts the same work as the serial one.
func TestUpdateWorkCounts(t *testing.T) {
	hs, ids := tableSnapshots(150, 1, 8)
	s := NewSelector(nil)
	var sc UpdateScratch
	fresh := s.UpdateTableInto(nil, &sc, nil, hs[0], ids[0], hs[0], ids[0], nil)
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

	s.UpdateTableInto(nil, &sc, fresh, hs[0], ids[0], hs[1], ids[1], nil)
	serialSel, serialHashes := sc.Work()
	if serialSel == 0 || serialSel >= wantSel {
		t.Fatalf("incremental update: %d selects, want in (0, %d)", serialSel, wantSel)
	}
	for _, workers := range []int{2, 3, 8} {
		p := par.NewPool(workers)
		var psc UpdateParScratch
		s.UpdateTableIntoPar(nil, &sc, &psc, fresh, hs[0], ids[0], hs[1], ids[1], nil, p)
		p.Close()
		if gotSel, gotHashes := sc.Work(); gotSel != serialSel || gotHashes != serialHashes {
			t.Fatalf("%d workers: work (%d, %d), serial (%d, %d)",
				workers, gotSel, gotHashes, serialSel, serialHashes)
		}
	}
}
