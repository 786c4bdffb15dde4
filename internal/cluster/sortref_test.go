package cluster

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/topology"
)

// liftGraph and ComputeDiffInto produce their ordered outputs by
// construction. The functions below are the sort-based producers they
// replaced, kept as references.

// refLiftGraph collects one key per cross-cluster level-k edge in the
// level graph's edge order, then sorts and compacts them.
func refLiftGraph(g *topology.Graph, lvl *Level, idSpace int) *topology.Graph {
	var keys []topology.EdgeKey
	g.ForEachEdge(func(k topology.EdgeKey) {
		x, y := k.Nodes()
		if cx, cy := lvl.MemberOf(x), lvl.MemberOf(y); cx != cy {
			keys = append(keys, topology.MakeEdgeKey(cx, cy))
		}
	})
	slices.Sort(keys)
	keys = slices.Compact(keys)
	return topology.BuildFromSortedEdgesInto(nil, idSpace, keys)
}

// refMemberships walks each level-0 node's two ancestor chains and
// sorts the changes by (level, node).
func refMemberships(prev, next *Hierarchy) []MembershipChange {
	var out []MembershipChange
	for _, v := range prev.Levels[0].Nodes {
		pc, nc := prev.AncestorChain(v), next.AncestorChain(v)
		for i := 0; i < max(len(pc), len(nc)); i++ {
			old, nw := -1, -1
			if i < len(pc) {
				old = pc[i]
			}
			if i < len(nc) {
				nw = nc[i]
			}
			if old != nw {
				out = append(out, MembershipChange{Node: v, Level: i + 1, Old: old, New: nw})
			}
		}
	}
	slices.SortFunc(out, func(a, b MembershipChange) int {
		if a.Level != b.Level {
			return a.Level - b.Level
		}
		return a.Node - b.Node
	})
	return out
}

// sameGraph requires equal edge stores and equal adjacency order.
func sameGraph(want, got *topology.Graph) error {
	if !slices.Equal(want.Edges(), got.Edges()) {
		return fmt.Errorf("edges %v, reference %v", got.Edges(), want.Edges())
	}
	for v := 0; v < want.IDSpace(); v++ {
		if !slices.Equal(want.Neighbors(v), got.Neighbors(v)) {
			return fmt.Errorf("node %d adjacency %v, reference %v", v, got.Neighbors(v), want.Neighbors(v))
		}
	}
	return nil
}

// sparseLayouts is evolveLayouts at a density that leaves nodes outside
// the giant component, paired with each graph's giant component.
func sparseLayouts(t *testing.T, n, steps int, seed uint64) ([]*topology.Graph, [][]int) {
	t.Helper()
	graphs := evolveLayouts(n, steps, seed)
	giants := make([][]int, len(graphs))
	outside := false
	for i, g := range graphs {
		giants[i] = topology.GiantComponent(g, nodesUpTo(n))
		outside = outside || len(giants[i]) < n
	}
	if !outside {
		t.Fatal("every layout is connected; no node was left outside the giant component")
	}
	return graphs, giants
}

// TestLiftGraphMatchesSortReference: every lifted level graph — built
// from fresh storage and from a recycling arena, over level-0 graphs
// that keep non-giant nodes — must equal the sort-and-compact
// reference lift of the level below, edge store and adjacency order.
func TestLiftGraphMatchesSortReference(t *testing.T) {
	const n = 110
	graphs, giants := sparseLayouts(t, n, 14, 23)
	tr := NewIdentityTracker()
	arena := NewArena()
	var hR, retiredH *Hierarchy
	var idsR, retiredIDs *Identities
	deep := false
	for step, g := range graphs {
		hF := build(g, giants[step], Config{})
		arena.Recycle(retiredH, retiredIDs)
		retiredH, retiredIDs = hR, idsR
		hR, idsR = BuildWithIdentitiesArena(arena, g, giants[step], Config{}, hR, idsR, tr, float64(step))
		for _, c := range []struct {
			name string
			h    *Hierarchy
		}{{"fresh", hF}, {"arena", hR}} {
			name, h := c.name, c.h
			deep = deep || h.L() >= 3
			for k := 0; k < h.L(); k++ {
				want := refLiftGraph(h.Level(k).Graph, h.Level(k), g.IDSpace())
				if err := sameGraph(want, h.Level(k+1).Graph); err != nil {
					t.Fatalf("step %d %s level %d: %v", step, name, k+1, err)
				}
			}
		}
	}
	if !deep {
		t.Fatal("no hierarchy reached level 3; lifts above level 1 went untested")
	}
}

// TestMembershipsMatchSortReference: ComputeDiffInto's membership
// changes, with one Diff and scratch reused throughout, must equal the
// sorted reference for every pair of snapshots — consecutive ones,
// and ones whose depths differ (a level-capped build against a full
// one, both ways), over node sets that change with the giant
// component.
func TestMembershipsMatchSortReference(t *testing.T) {
	const n = 110
	graphs, giants := sparseLayouts(t, n, 10, 29)
	var hs []*Hierarchy
	for i, g := range graphs {
		hs = append(hs, build(g, giants[i], Config{}))
		hs = append(hs, build(g, giants[i], Config{MaxLevels: 1 + i%3}))
	}
	var s DiffScratch
	var d *Diff
	depthChanged := false
	for i := range hs {
		for _, j := range []int{i - 2, i - 1, i + 1} {
			if j < 0 || j >= len(hs) {
				continue
			}
			prev, next := hs[i], hs[j]
			depthChanged = depthChanged || prev.L() != next.L()
			want := refMemberships(prev, next)
			d = ComputeDiffInto(d, prev, next, &s)
			if !slices.Equal(d.Memberships, want) {
				t.Fatalf("snapshots %d -> %d (L %d -> %d): memberships\n got %v\nwant %v",
					i, j, prev.L(), next.L(), d.Memberships, want)
			}
		}
	}
	if !depthChanged {
		t.Fatal("no compared pair changed hierarchy depth")
	}
}
