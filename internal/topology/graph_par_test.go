package topology

import (
	"testing"

	"repro/internal/geom"
	"repro/internal/par"
	"repro/internal/rng"
	"repro/internal/spatial"
)

// graphsIdentical requires byte-identical graphs: same adjacency
// content AND order per node, same sorted edge list.
func graphsIdentical(t *testing.T, want, got *Graph) {
	t.Helper()
	if want.IDSpace() != got.IDSpace() {
		t.Fatalf("id space %d vs %d", want.IDSpace(), got.IDSpace())
	}
	if want.EdgeCount() != got.EdgeCount() {
		t.Fatalf("edge count %d vs %d", want.EdgeCount(), got.EdgeCount())
	}
	we := want.Edges()
	ge := got.Edges()
	for i := range we {
		if we[i] != ge[i] {
			t.Fatalf("edge list diverges at %d: %v vs %v", i, we[i], ge[i])
		}
	}
	for v := 0; v < want.IDSpace(); v++ {
		wn, gn := want.Neighbors(v), got.Neighbors(v)
		if len(wn) != len(gn) {
			t.Fatalf("node %d: degree %d vs %d", v, len(wn), len(gn))
		}
		for i := range wn {
			if wn[i] != gn[i] {
				t.Fatalf("node %d: adjacency order diverges at %d: %v vs %v", v, i, wn, gn)
			}
		}
	}
}

func buildFixture(n int, rtx float64, seed uint64) ([]geom.Vec, *spatial.Grid) {
	pos := layout(n, 500, seed)
	idx := spatial.NewGridForDisc(geom.Disc{R: 500}, rtx, n)
	for i, p := range pos {
		idx.Insert(i, p)
	}
	return pos, idx
}

// buildUnitDisk is the fresh serial unit-disk build the parallel and
// reuse paths are checked against.
func buildUnitDisk(n int, pos []geom.Vec, rtx float64, idx *spatial.Grid) *Graph {
	return NewUnitDisk(rtx).BuildInto(nil, n, pos, idx, nil, nil)
}

// TestBuildUnitDiskParMatchesSerial is the ordered-merge contract for
// the parallel graph build: for every (n, workers) combination —
// including n smaller than the worker count and node/row counts that
// do not divide evenly into shards — the parallel build must be
// byte-identical to the serial one.
func TestBuildUnitDiskParMatchesSerial(t *testing.T) {
	for _, n := range []int{2, 3, 17, 100, 401} {
		pos, idx := buildFixture(n, 90, uint64(n))
		serial := buildUnitDisk(n, pos, 90, idx)
		for _, workers := range []int{1, 2, 3, 5, 8, 32} {
			p := par.NewPool(workers)
			parg := NewUnitDisk(90).BuildInto(nil, n, pos, idx, p, nil)
			p.Close()
			graphsIdentical(t, serial, parg)
		}
	}
}

// TestBuildUnitDiskParReuse checks the scratch/double-buffer path:
// alternating builds into recycled storage with a reused BuildScratch
// must still match serial builds, including after node positions move.
func TestBuildUnitDiskParReuse(t *testing.T) {
	const n, rtx = 200, 80.0
	pos, idx := buildFixture(n, rtx, 7)
	p := par.NewPool(3)
	defer p.Close()
	var sc BuildScratch
	var spare *Graph
	src := rng.New(99)
	for tick := 0; tick < 5; tick++ {
		for i := range pos {
			pos[i].X += src.Range(-20, 20)
			pos[i].Y += src.Range(-20, 20)
			idx.Update(i, pos[i])
		}
		serial := buildUnitDisk(n, pos, rtx, idx)
		spare = NewUnitDisk(rtx).BuildInto(spare, n, pos, idx, p, &sc)
		graphsIdentical(t, serial, spare)
	}
}

// TestBuildUnitDiskParNilPool verifies the nil-pool fallback.
func TestBuildUnitDiskParNilPool(t *testing.T) {
	pos, idx := buildFixture(50, 90, 3)
	serial := buildUnitDisk(50, pos, 90, idx)
	parg := NewUnitDisk(90).BuildInto(nil, 50, pos, idx, nil, nil)
	graphsIdentical(t, serial, parg)
}

// TestAddEdgeAfterBulkBuild checks the mixed-store path: incremental
// edges layered over a bulk-built graph dedup against the bulk list
// and stay visible through every accessor.
func TestAddEdgeAfterBulkBuild(t *testing.T) {
	pos, idx := buildFixture(30, 90, 5)
	g := buildUnitDisk(30, pos, 90, idx)
	edges := g.Edges()
	if len(edges) == 0 {
		t.Fatal("fixture produced no edges")
	}
	a, b := edges[0].Nodes()
	before := g.EdgeCount()
	degA := g.Degree(a)
	g.AddEdge(a, b) // duplicate of a bulk edge: must be ignored
	if g.EdgeCount() != before || g.Degree(a) != degA {
		t.Fatal("duplicate AddEdge over bulk edge changed the graph")
	}
	// Find a non-adjacent pair and connect it incrementally.
	u, v := -1, -1
	for x := 0; x < 30 && u < 0; x++ {
		for y := x + 1; y < 30; y++ {
			if !g.HasEdge(x, y) {
				u, v = x, y
				break
			}
		}
	}
	if u < 0 {
		t.Skip("fixture is a complete graph")
	}
	g.AddEdge(u, v)
	if !g.HasEdge(u, v) {
		t.Fatal("incremental edge not visible via HasEdge")
	}
	if g.EdgeCount() != before+1 {
		t.Fatalf("EdgeCount = %d, want %d", g.EdgeCount(), before+1)
	}
	all := g.Edges()
	if len(all) != before+1 {
		t.Fatalf("Edges() length = %d, want %d", len(all), before+1)
	}
	for i := 1; i < len(all); i++ {
		if all[i] <= all[i-1] {
			t.Fatal("Edges() not strictly ascending over mixed stores")
		}
	}
}
