package maxmin

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/geom"
	"repro/internal/rng"
	"repro/internal/topology"
)

// electMap runs the slice-based Elect and folds the positional result
// back into a node->head map for assertion convenience.
func electMap(c Clusterer, nodes []int, g *topology.Graph) map[int]int {
	heads := c.Elect(nil, nodes, g, func(int) int { return -1 })
	m := make(map[int]int, len(nodes))
	for i, v := range nodes {
		m[v] = heads[i]
	}
	return m
}

func nodesUpTo(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

func randomGraph(n int, worldR, rtx float64, seed uint64) *topology.Graph {
	src := rng.New(seed)
	d := geom.Disc{R: worldR}
	pos := make([]geom.Vec, n)
	for i := range pos {
		pos[i] = d.Sample(src)
	}
	return topology.BuildUnitDiskBrute(pos, rtx)
}

func TestStarElectsCenterOrCovers(t *testing.T) {
	// Star with max-ID center: rule 1 elects the center for d=1.
	g := topology.NewGraph(10)
	for _, v := range []int{1, 2, 3, 4} {
		g.AddEdge(9, v)
	}
	head := electMap(Clusterer{D: 1}, []int{1, 2, 3, 4, 9}, g)
	for _, v := range []int{1, 2, 3, 4, 9} {
		if head[v] != 9 {
			t.Fatalf("head(%d) = %d, want 9", v, head[v])
		}
	}
}

func TestReachBound(t *testing.T) {
	for _, d := range []int{1, 2, 3} {
		g := randomGraph(150, 450, 100, uint64(d))
		nodes := nodesUpTo(150)
		head := electMap(Clusterer{D: d}, nodes, g)
		scratch := topology.NewBFSScratch(150)
		for _, v := range nodes {
			h, ok := head[v]
			if !ok {
				t.Fatalf("d=%d: node %d has no head", d, v)
			}
			if h == v {
				continue
			}
			hops := scratch.HopCount(g, v, h, nil)
			if hops < 0 || hops > d {
				t.Fatalf("d=%d: node %d at %d hops from head %d", d, v, hops, h)
			}
			if head[h] != h {
				t.Fatalf("d=%d: head %d does not head itself", d, h)
			}
		}
	}
}

func TestFewerHeadsWithLargerD(t *testing.T) {
	g := randomGraph(200, 500, 100, 7)
	nodes := nodesUpTo(200)
	countHeads := func(d int) int {
		head := electMap(Clusterer{D: d}, nodes, g)
		heads := map[int]bool{}
		for _, h := range head {
			heads[h] = true
		}
		return len(heads)
	}
	h1, h2 := countHeads(1), countHeads(2)
	if h2 >= h1 {
		t.Fatalf("d=2 produced %d heads vs %d for d=1; expected more aggregation", h2, h1)
	}
}

func TestDeterminism(t *testing.T) {
	g := randomGraph(120, 420, 100, 3)
	nodes := nodesUpTo(120)
	a := electMap(Clusterer{D: 2}, nodes, g)
	b := electMap(Clusterer{D: 2}, nodes, g)
	for _, v := range nodes {
		if a[v] != b[v] {
			t.Fatalf("non-deterministic head for %d", v)
		}
	}
}

func TestIsolatedSelfHeads(t *testing.T) {
	g := topology.NewGraph(5)
	head := electMap(Clusterer{D: 2}, []int{0, 1, 2}, g)
	for _, v := range []int{0, 1, 2} {
		if head[v] != v {
			t.Fatalf("isolated node %d headed by %d", v, head[v])
		}
	}
}

func TestHierarchyIntegration(t *testing.T) {
	// Build a full hierarchy with the max-min elector and validate.
	g := randomGraph(180, 480, 105, 11)
	nodes := nodesUpTo(180)
	h := build(g, nodes, cluster.Config{Elector: Clusterer{D: 2}, Reach: 2})
	if err := h.Validate(); err != nil {
		t.Fatal(err)
	}
	if h.L() < 1 {
		t.Fatal("no clustering")
	}
	// d=2 aggregates at least as fast as LCA.
	lca := build(g, nodes, cluster.Config{})
	if len(h.LevelNodes(1)) > len(lca.LevelNodes(1)) {
		t.Fatalf("maxmin d=2 level-1 count %d > LCA %d", len(h.LevelNodes(1)), len(lca.LevelNodes(1)))
	}
}

func TestRespectsNodeSubset(t *testing.T) {
	// Nodes outside the set must not influence the election.
	g := topology.NewGraph(10)
	g.AddEdge(1, 9) // 9 is NOT in the node set
	g.AddEdge(1, 2)
	head := electMap(Clusterer{D: 1}, []int{1, 2}, g)
	if head[1] == 9 || head[2] == 9 {
		t.Fatalf("out-of-set node elected: %v", head)
	}
}

func BenchmarkElect200D2(b *testing.B) {
	g := randomGraph(200, 500, 100, 1)
	nodes := nodesUpTo(200)
	c := Clusterer{D: 2}
	prev := func(int) int { return -1 }
	var dst []int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = c.Elect(dst[:0], nodes, g, prev)
	}
}

// build is the hierarchy of a first snapshot.
func build(g *topology.Graph, nodes []int, cfg cluster.Config) *cluster.Hierarchy {
	h, _ := cluster.BuildWithIdentities(g, nodes, cfg, nil, nil, cluster.NewIdentityTracker(), 0)
	return h
}
