package routing

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/geom"
	"repro/internal/rng"
	"repro/internal/topology"
)

func nodesUpTo(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

func randomNet(n int, worldR, rtx float64, seed uint64) (*cluster.Hierarchy, *topology.Graph) {
	src := rng.New(seed)
	d := geom.Disc{R: worldR}
	pos := make([]geom.Vec, n)
	for i := range pos {
		pos[i] = d.Sample(src)
	}
	g := topology.BuildUnitDiskBrute(pos, rtx)
	giant := topology.GiantComponent(g, nodesUpTo(n))
	h := build(g, giant, cluster.Config{})
	return h, g
}

func TestFlatTableSize(t *testing.T) {
	if FlatTableSize(100) != 99 || FlatTableSize(0) != 0 {
		t.Fatal("flat table size wrong")
	}
}

func TestHierTableSmallerThanFlat(t *testing.T) {
	h, _ := randomNet(400, 650, 110, 1)
	n := len(h.LevelNodes(0))
	mean := MeanHierTableSize(h)
	if mean <= 0 {
		t.Fatal("no hierarchical table entries")
	}
	if mean >= float64(FlatTableSize(n))/2 {
		t.Fatalf("hier table %.1f not clearly below flat %d", mean, FlatTableSize(n))
	}
}

func TestHierPathChain(t *testing.T) {
	// Chain 1-2-3: route 1 -> 3 must traverse 2.
	g := topology.NewGraph(4)
	g.AddEdge(1, 2)
	g.AddEdge(2, 3)
	h := build(g, []int{1, 2, 3}, cluster.Config{})
	r := NewRouter(h)
	p := r.HierPath(1, 3)
	if p == nil {
		t.Fatal("no path")
	}
	if err := r.ValidatePath(p, 1, 3); err != nil {
		t.Fatal(err)
	}
	if len(p) != 3 {
		t.Fatalf("path = %v", p)
	}
}

func TestHierPathSelf(t *testing.T) {
	g := topology.NewGraph(4)
	g.AddEdge(1, 2)
	h := build(g, []int{1, 2}, cluster.Config{})
	r := NewRouter(h)
	p := r.HierPath(1, 1)
	if len(p) != 1 || p[0] != 1 {
		t.Fatalf("self path = %v", p)
	}
	if r.HierPathLen(1, 1) != 0 {
		t.Fatal("self path length != 0")
	}
}

func TestHierPathUnreachable(t *testing.T) {
	g := topology.NewGraph(6)
	g.AddEdge(1, 2)
	g.AddEdge(4, 5)
	h := build(g, []int{1, 2, 4, 5}, cluster.Config{})
	r := NewRouter(h)
	if p := r.HierPath(1, 5); p != nil {
		t.Fatalf("path across partition: %v", p)
	}
	if r.Stretch(1, 5) != -1 {
		t.Fatal("stretch defined across partition")
	}
}

func TestHierPathsValidAndBounded(t *testing.T) {
	h, _ := randomNet(300, 600, 115, 2)
	r := NewRouter(h)
	nodes := h.LevelNodes(0)
	src := rng.New(3)
	valid := 0
	for i := 0; i < 300; i++ {
		s := nodes[src.Intn(len(nodes))]
		d := nodes[src.Intn(len(nodes))]
		p := r.HierPath(s, d)
		if p == nil {
			continue
		}
		if err := r.ValidatePath(p, s, d); err != nil {
			t.Fatalf("invalid path %v: %v", p, err)
		}
		flat := r.FlatPathLen(s, d)
		if flat < 0 {
			t.Fatal("flat unreachable but hierarchical reachable")
		}
		if len(p)-1 < flat {
			t.Fatalf("hierarchical path %d shorter than shortest %d", len(p)-1, flat)
		}
		valid++
	}
	if valid < 250 {
		t.Fatalf("only %d/300 pairs routed", valid)
	}
}

func TestStretchModerate(t *testing.T) {
	h, _ := randomNet(300, 600, 115, 4)
	r := NewRouter(h)
	nodes := h.LevelNodes(0)
	src := rng.New(5)
	var sum float64
	count := 0
	for i := 0; i < 400; i++ {
		s := nodes[src.Intn(len(nodes))]
		d := nodes[src.Intn(len(nodes))]
		if s == d {
			continue
		}
		st := r.Stretch(s, d)
		if st < 0 {
			continue
		}
		if st < 1 {
			t.Fatalf("stretch %v < 1", st)
		}
		sum += st
		count++
	}
	if count == 0 {
		t.Fatal("no stretch samples")
	}
	mean := sum / float64(count)
	// Hierarchical routing on unit-disk graphs typically stretches
	// paths by a small constant factor; guard against pathology.
	if mean > 3 {
		t.Fatalf("mean stretch %v implausibly high", mean)
	}
}

func TestTableSizeScaling(t *testing.T) {
	// Hierarchical table entries grow far slower than N.
	sizes := map[int]float64{}
	for _, n := range []int{100, 400} {
		h, _ := randomNet(n, 650, 130, 6)
		sizes[n] = MeanHierTableSize(h)
	}
	if sizes[400] > sizes[100]*3 {
		t.Fatalf("hier table grew %vx for 4x nodes", sizes[400]/sizes[100])
	}
}

func BenchmarkHierPath(b *testing.B) {
	h, _ := randomNet(300, 600, 115, 1)
	r := NewRouter(h)
	nodes := h.LevelNodes(0)
	src := rng.New(2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := nodes[src.Intn(len(nodes))]
		d := nodes[src.Intn(len(nodes))]
		r.HierPath(s, d)
	}
}

// build is the hierarchy of a first snapshot.
func build(g *topology.Graph, nodes []int, cfg cluster.Config) *cluster.Hierarchy {
	h, _ := cluster.BuildWithIdentities(g, nodes, cfg, nil, nil, cluster.NewIdentityTracker(), 0)
	return h
}
