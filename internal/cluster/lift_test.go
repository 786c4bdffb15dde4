package cluster

import (
	"slices"
	"testing"
)

// TestLiftedAdjacencyIndependentOfArena: the level graphs, including
// the order of every adjacency list, must not depend on whether the
// build drew its storage from a fresh arena or from one recycling the
// snapshots of earlier ticks. Routing's BFS follows adjacency order,
// so a recycled hash set leaking its order would change routes.
func TestLiftedAdjacencyIndependentOfArena(t *testing.T) {
	const n = 220
	graphs := evolveLayouts(n, 12, 17)
	nodes := nodesUpTo(n)
	trFresh, trReuse := NewIdentityTracker(), NewIdentityTracker()
	reuse := NewArena()
	var hF, hR, retiredH *Hierarchy
	var idsF, idsR, retiredIDs *Identities
	deep := false
	for step, g := range graphs {
		hF, idsF = BuildWithIdentitiesArena(NewArena(), g, nodes, Config{}, hF, idsF, trFresh, float64(step))
		reuse.Recycle(retiredH, retiredIDs)
		retiredH, retiredIDs = hR, idsR
		hR, idsR = BuildWithIdentitiesArena(reuse, g, nodes, Config{}, hR, idsR, trReuse, float64(step))
		if hF.L() != hR.L() {
			t.Fatalf("step %d: %d levels fresh, %d recycled", step, hF.L(), hR.L())
		}
		deep = deep || hF.L() >= 3
		for k := 1; k <= hF.L(); k++ {
			gf, gr := hF.Level(k).Graph, hR.Level(k).Graph
			for v := 0; v < gf.IDSpace(); v++ {
				a, b := gf.Neighbors(v), gr.Neighbors(v)
				if !slices.Equal(a, b) {
					t.Fatalf("step %d level %d node %d: adjacency %v fresh, %v recycled", step, k, v, a, b)
				}
				if !slices.IsSorted(a) {
					t.Fatalf("step %d level %d node %d: adjacency %v not in key order", step, k, v, a)
				}
			}
		}
	}
	if !deep {
		t.Fatal("no hierarchy reached level 3; lifts above level 1 went untested")
	}
}
