package topology

import (
	"testing"

	"repro/internal/geom"
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

// buildUnitDisk is a fresh unit-disk build.
func buildUnitDisk(n int, pos []geom.Vec, rtx float64, idx *spatial.Grid) *Graph {
	return NewUnitDisk(rtx).BuildInto(nil, n, pos, idx, nil, nil)
}

// TestAddEdgeAfterBulkBuild checks AddEdge over a bulk-built graph:
// added edges dedup against the built ones and stay visible through
// every accessor.
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
