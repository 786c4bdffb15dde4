package cluster

import (
	"testing"

	"repro/internal/geom"
	"repro/internal/rng"
	"repro/internal/topology"
)

// evolveLayouts yields a sequence of perturbed unit-disk graphs.
func evolveLayouts(n, steps int, seed uint64) []*topology.Graph {
	src := rng.New(seed)
	d := geom.Disc{R: 430}
	pos := make([]geom.Vec, n)
	for i := range pos {
		pos[i] = d.Sample(src)
	}
	var out []*topology.Graph
	for s := 0; s < steps; s++ {
		out = append(out, topology.BuildUnitDiskBrute(pos, 100))
		for i := range pos {
			pos[i] = d.Clamp(pos[i].Add(geom.Vec{X: src.Range(-12, 12), Y: src.Range(-12, 12)}))
		}
	}
	return out
}

// TestTrackedBuildMatchesPlainBuildMemoryless: with a memoryless
// elector the interleaved identity matching cannot influence election,
// so a build chained to the previous snapshot must produce the
// identical physical hierarchy to a first-snapshot build at every
// step.
func TestTrackedBuildMatchesPlainBuildMemoryless(t *testing.T) {
	const n = 130
	graphs := evolveLayouts(n, 15, 31)
	nodes := nodesUpTo(n)
	tr := NewIdentityTracker()
	var hT *Hierarchy
	var ids *Identities
	for step, g := range graphs {
		if hT == nil {
			hT, ids = BuildWithIdentities(g, nodes, Config{}, nil, nil, tr, float64(step))
		} else {
			hT, ids = BuildWithIdentities(g, nodes, Config{}, hT, ids, tr, float64(step))
		}
		hP := build(g, nodes, Config{})
		if hT.L() != hP.L() {
			t.Fatalf("step %d: levels %d vs %d", step, hT.L(), hP.L())
		}
		for k := 0; k <= hT.L(); k++ {
			a, b := hT.LevelNodes(k), hP.LevelNodes(k)
			if len(a) != len(b) {
				t.Fatalf("step %d level %d: %d vs %d nodes", step, k, len(a), len(b))
			}
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("step %d level %d: node lists differ", step, k)
				}
			}
		}
		if err := hT.Validate(); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
	}
}

// TestTrackedStickySurvivesRelabel: the core purpose of interleaved
// tracking — a sticky affiliation must survive when the elected head's
// cluster relabels.
func TestTrackedStickySurvivesRelabel(t *testing.T) {
	tr := NewIdentityTracker()
	cfg := Config{Elector: StickyLCA{}}
	// Level-0: cluster A = {1,2,5} head 5; cluster B = {3,6} head 6;
	// A-B adjacent via 5-6. At level 1, 5 elects 6 (sticky start).
	g1 := graphOf(12, [2]int{1, 5}, [2]int{2, 5}, [2]int{3, 6}, [2]int{5, 6})
	h1, ids1 := BuildWithIdentities(g1, []int{1, 2, 3, 5, 6}, cfg, nil, nil, tr, 0)
	if h1.L() < 2 {
		t.Fatalf("L = %d", h1.L())
	}
	lvl1Head := h1.Level(1).HeadOf(5)
	if lvl1Head != 6 {
		t.Fatalf("head(5)@1 = %d, want 6", lvl1Head)
	}
	prevLogical, ok := ids1.Logical(1, lvl1Head)
	if !ok {
		t.Fatal("elected head has no identity")
	}
	// Node 7 arrives near cluster B, perturbing local elections. Node
	// 5's level-1 affiliation must stay with the same *logical* cluster
	// (whatever physical node carries it now), not re-elect by raw max.
	g2 := graphOf(12, [2]int{1, 5}, [2]int{2, 5}, [2]int{3, 6}, [2]int{5, 6},
		[2]int{7, 6}, [2]int{7, 3}, [2]int{7, 5})
	h2, ids2 := BuildWithIdentities(g2, []int{1, 2, 3, 5, 6, 7}, cfg, h1, ids1, tr, 1)
	if h2.L() >= 2 {
		newHead := h2.Level(1).HeadOf(5)
		newLogical, ok := ids2.Logical(1, newHead)
		if !ok || newLogical != prevLogical {
			t.Fatalf("sticky affiliation lost: logical %d -> %d (head %d)",
				prevLogical, newLogical, newHead)
		}
	}
}

func TestTrackedBuildMaxLevels(t *testing.T) {
	const n = 200
	graphs := evolveLayouts(n, 2, 33)
	tr := NewIdentityTracker()
	h, ids := BuildWithIdentities(graphs[0], nodesUpTo(n), Config{MaxLevels: 2}, nil, nil, tr, 0)
	if h.L() > 2 {
		t.Fatalf("L = %d exceeds cap", h.L())
	}
	if ids.Levels() > 2 {
		t.Fatalf("ids beyond cap: %d", ids.Levels())
	}
}

func TestTrackedBuildForcedTopWithDebounce(t *testing.T) {
	// The full stabilization stack must hold its invariants across an
	// evolving topology.
	const n = 180
	graphs := evolveLayouts(n, 20, 35)
	nodes := nodesUpTo(n)
	tr := NewIdentityTracker()
	cfg := Config{Elector: NewDebouncedLCA(8), Reach: -1, ForceTopAt: 10}
	var h *Hierarchy
	var ids *Identities
	for step, g := range graphs {
		giant := topology.GiantComponent(g, nodes)
		h, ids = BuildWithIdentities(g, giant, cfg, h, ids, tr, float64(step))
		if err := h.Validate(); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		if h.ForcedTop {
			top := h.LevelNodes(h.L())
			if len(top) != 1 {
				t.Fatalf("step %d: top size %d", step, len(top))
			}
		}
		// Identity maps must cover every cluster.
		for k := 1; k <= h.L(); k++ {
			for _, head := range h.LevelNodes(k) {
				if _, ok := ids.Logical(k, head); !ok {
					t.Fatalf("step %d: level-%d cluster %d unidentified", step, k, head)
				}
			}
		}
	}
}

func TestDebouncedNameAndUntrackedElect(t *testing.T) {
	d := NewDebouncedLCA(5)
	if d.Name() == "" {
		t.Fatal("unnamed elector")
	}
	// The untracked Elect path (static builds) behaves like sticky.
	g := graphOf(6, [2]int{1, 3})
	head := d.Elect(nil, []int{1, 3}, g, func(int) int { return -1 })
	if head[0] != 3 || head[1] != 3 {
		t.Fatalf("untracked elect = %v", head)
	}
}
