package topology

import (
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/geom"
	"repro/internal/rng"
	"repro/internal/spatial"
)

func TestEdgeKeyRoundTrip(t *testing.T) {
	f := func(a16, b16 uint16) bool {
		a, b := int(a16), int(b16)
		if a == b {
			return true
		}
		k := MakeEdgeKey(a, b)
		x, y := k.Nodes()
		lo, hi := a, b
		if lo > hi {
			lo, hi = hi, lo
		}
		return x == lo && y == hi && MakeEdgeKey(b, a) == k
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestGraphBasics(t *testing.T) {
	g := NewGraph(10)
	g.AddEdge(1, 2)
	g.AddEdge(2, 1) // duplicate
	g.AddEdge(3, 3) // self loop ignored
	g.AddEdge(2, 5)
	if g.EdgeCount() != 2 {
		t.Fatalf("EdgeCount = %d", g.EdgeCount())
	}
	if !g.HasEdge(2, 1) || g.HasEdge(1, 5) {
		t.Fatal("HasEdge wrong")
	}
	if g.Degree(2) != 2 || g.Degree(1) != 1 || g.Degree(9) != 0 {
		t.Fatal("Degree wrong")
	}
	nbrs := append([]int(nil), g.Neighbors(2)...)
	sort.Ints(nbrs)
	if len(nbrs) != 2 || nbrs[0] != 1 || nbrs[1] != 5 {
		t.Fatalf("Neighbors(2) = %v", nbrs)
	}
}

func TestEdgesDeterministicOrder(t *testing.T) {
	g := NewGraph(100)
	src := rng.New(1)
	for i := 0; i < 200; i++ {
		g.AddEdge(src.Intn(100), src.Intn(100))
	}
	a := g.Edges()
	b := g.Edges()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("Edges() order not deterministic")
		}
		if i > 0 && a[i] <= a[i-1] {
			t.Fatal("Edges() not strictly ascending")
		}
	}
}

func layout(n int, worldR float64, seed uint64) []geom.Vec {
	src := rng.New(seed)
	d := geom.Disc{R: worldR}
	ps := make([]geom.Vec, n)
	for i := range ps {
		ps[i] = d.Sample(src)
	}
	return ps
}

func TestUnitDiskGridMatchesBrute(t *testing.T) {
	const n = 400
	const rtx = 90.0
	pos := layout(n, 800, 2)
	idx := spatial.NewGridForDisc(geom.Disc{R: 800}, rtx, n)
	for i, p := range pos {
		idx.Insert(i, p)
	}
	fast := buildUnitDisk(n, pos, rtx, idx)
	slow := BuildUnitDiskBrute(pos, rtx)
	if fast.EdgeCount() != slow.EdgeCount() {
		t.Fatalf("edge counts differ: %d vs %d", fast.EdgeCount(), slow.EdgeCount())
	}
	for _, k := range slow.Edges() {
		a, b := k.Nodes()
		if !fast.HasEdge(a, b) {
			t.Fatalf("missing edge %v", k)
		}
	}
}

func TestDiffEdges(t *testing.T) {
	prev := NewGraph(10)
	prev.AddEdge(0, 1)
	prev.AddEdge(1, 2)
	prev.AddEdge(3, 4)
	next := NewGraph(10)
	next.AddEdge(1, 2) // kept
	next.AddEdge(4, 5) // new
	next.AddEdge(0, 2) // new

	ev := DiffEdges(prev, next)
	if len(ev) != 4 {
		t.Fatalf("got %d events: %v", len(ev), ev)
	}
	// Downs first, ascending.
	if ev[0].Up || ev[1].Up || !ev[2].Up || !ev[3].Up {
		t.Fatalf("event order wrong: %v", ev)
	}
	if ev[0].Edge != MakeEdgeKey(0, 1) || ev[1].Edge != MakeEdgeKey(3, 4) {
		t.Fatalf("down edges wrong: %v", ev)
	}
	if ev[2].Edge != MakeEdgeKey(0, 2) || ev[3].Edge != MakeEdgeKey(4, 5) {
		t.Fatalf("up edges wrong: %v", ev)
	}
}

func TestDiffEdgesEmpty(t *testing.T) {
	g := NewGraph(5)
	g.AddEdge(0, 1)
	if ev := DiffEdges(g, g); len(ev) != 0 {
		t.Fatalf("self-diff produced events: %v", ev)
	}
}

// path graph 0-1-2-...-n-1
func pathGraph(n int) *Graph {
	g := NewGraph(n)
	for i := 0; i+1 < n; i++ {
		g.AddEdge(i, i+1)
	}
	return g
}

func TestHopCountPath(t *testing.T) {
	g := pathGraph(10)
	s := NewBFSScratch(10)
	for i := 0; i < 10; i++ {
		for j := 0; j < 10; j++ {
			want := j - i
			if want < 0 {
				want = -want
			}
			if got := s.HopCount(g, i, j, nil); got != want {
				t.Fatalf("HopCount(%d,%d) = %d, want %d", i, j, got, want)
			}
		}
	}
}

func TestHopCountUnreachable(t *testing.T) {
	g := NewGraph(4)
	g.AddEdge(0, 1)
	g.AddEdge(2, 3)
	s := NewBFSScratch(4)
	if got := s.HopCount(g, 0, 3, nil); got != -1 {
		t.Fatalf("unreachable HopCount = %d", got)
	}
}

func TestHopCountRestricted(t *testing.T) {
	// 0-1-2 and 0-3-4-2: restricting out node 1 forces the long way.
	g := NewGraph(5)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(0, 3)
	g.AddEdge(3, 4)
	g.AddEdge(4, 2)
	s := NewBFSScratch(5)
	if got := s.HopCount(g, 0, 2, nil); got != 2 {
		t.Fatalf("unrestricted = %d", got)
	}
	notOne := func(v int) bool { return v != 1 }
	if got := s.HopCount(g, 0, 2, notOne); got != 3 {
		t.Fatalf("restricted = %d", got)
	}
}

func TestDistancesFrom(t *testing.T) {
	g := pathGraph(6)
	s := NewBFSScratch(6)
	d := s.DistancesFrom(g, 2, nil)
	want := map[int]int{0: 2, 1: 1, 2: 0, 3: 1, 4: 2, 5: 3}
	if len(d) != len(want) {
		t.Fatalf("distances = %v", d)
	}
	for k, v := range want {
		if d[k] != v {
			t.Fatalf("dist[%d] = %d, want %d", k, d[k], v)
		}
	}
}

func TestScratchReuseEpochs(t *testing.T) {
	// Repeated queries on the same scratch must not leak state.
	g := pathGraph(50)
	s := NewBFSScratch(50)
	for rep := 0; rep < 300; rep++ {
		if got := s.HopCount(g, 0, 49, nil); got != 49 {
			t.Fatalf("rep %d: HopCount = %d", rep, got)
		}
	}
}

func TestComponents(t *testing.T) {
	g := NewGraph(8)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(4, 5)
	all := []int{0, 1, 2, 3, 4, 5, 6, 7}
	comps := Components(g, all)
	if len(comps) != 5 {
		t.Fatalf("got %d components: %v", len(comps), comps)
	}
	if len(comps[0]) != 3 || comps[0][0] != 0 {
		t.Fatalf("first component = %v", comps[0])
	}
	giant := GiantComponent(g, all)
	if len(giant) != 3 {
		t.Fatalf("giant = %v", giant)
	}
	if IsConnected(g, all) {
		t.Fatal("disconnected graph reported connected")
	}
	if !IsConnected(g, []int{0, 1, 2}) {
		t.Fatal("connected subset reported disconnected")
	}
}

func TestComponentsRestrictedToVertexSet(t *testing.T) {
	// Vertices outside the set must not act as bridges.
	g := pathGraph(5) // 0-1-2-3-4
	comps := Components(g, []int{0, 2, 4})
	if len(comps) != 3 {
		t.Fatalf("restricted components = %v", comps)
	}
}

func TestEuclideanHops(t *testing.T) {
	pos := []geom.Vec{{X: 0, Y: 0}, {X: 250, Y: 0}, {X: 10, Y: 0}}
	h := NewEuclideanHops(pos, 100, 1.0)
	if got := h.Hops(0, 0); got != 0 {
		t.Fatalf("self hops = %d", got)
	}
	if got := h.Hops(0, 1); got != 3 {
		t.Fatalf("hops(0,1) = %d, want ceil(250/100)=3", got)
	}
	if got := h.Hops(0, 2); got != 1 {
		t.Fatalf("hops(0,2) = %d, want minimum 1", got)
	}
	// Detour scales.
	h2 := NewEuclideanHops(pos, 100, 1.5)
	if got := h2.Hops(0, 1); got != 4 {
		t.Fatalf("detour hops = %d, want ceil(375/100)=4", got)
	}
}

func TestBFSHops(t *testing.T) {
	g := pathGraph(6)
	h := NewBFSHops(g, 99)
	if got := h.Hops(0, 5); got != 5 {
		t.Fatalf("BFS hops = %d", got)
	}
	if got := h.Hops(3, 3); got != 0 {
		t.Fatalf("self hops = %d", got)
	}
	g2 := NewGraph(6)
	h.Rebind(g2)
	if got := h.Hops(0, 5); got != 99 {
		t.Fatalf("fallback hops = %d", got)
	}
}

func TestEuclideanVsBFSCalibration(t *testing.T) {
	// On a connected random unit-disk graph the Euclidean estimate with
	// detour 1.3 should be within a factor ~2 of true BFS hops for most
	// pairs, and never below ceil(d/RTX) (the geometric lower bound).
	const n = 300
	const rtx = 120.0
	pos := layout(n, 700, 11)
	g := BuildUnitDiskBrute(pos, rtx)
	giant := GiantComponent(g, seq(n))
	if len(giant) < n/2 {
		t.Skip("layout too sparse for calibration test")
	}
	bfs := NewBFSHops(g, 1000)
	euc := NewEuclideanHops(pos, rtx, 1.3)
	src := rng.New(12)
	within := 0
	total := 0
	for i := 0; i < 300; i++ {
		a := giant[src.Intn(len(giant))]
		b := giant[src.Intn(len(giant))]
		if a == b {
			continue
		}
		hb := bfs.Hops(a, b)
		he := euc.Hops(a, b)
		if he < 1 {
			t.Fatalf("estimate below 1: %d", he)
		}
		total++
		if he <= 2*hb+2 && hb <= 3*he {
			within++
		}
	}
	if frac := float64(within) / float64(total); frac < 0.9 {
		t.Fatalf("only %.2f of pairs within calibration band", frac)
	}
}

func seq(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

func TestMeanDegree(t *testing.T) {
	g := NewGraph(4)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	if got := g.MeanDegree([]int{0, 1, 2, 3}); got != 1.0 {
		t.Fatalf("MeanDegree = %v", got)
	}
	if got := g.MeanDegree(nil); got != 0 {
		t.Fatalf("MeanDegree(nil) = %v", got)
	}
}

func BenchmarkBuildUnitDisk1000(b *testing.B) {
	const n = 1000
	const rtx = 100.0
	pos := layout(n, 600, 3)
	idx := spatial.NewGridForDisc(geom.Disc{R: 600}, rtx, n)
	for i, p := range pos {
		idx.Insert(i, p)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = buildUnitDisk(n, pos, rtx, idx)
	}
}

func BenchmarkHopCount(b *testing.B) {
	pos := layout(1000, 600, 4)
	g := BuildUnitDiskBrute(pos, 100)
	s := NewBFSScratch(1000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.HopCount(g, i%1000, (i*7)%1000, nil)
	}
}
