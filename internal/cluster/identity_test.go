package cluster

import (
	"testing"

	"repro/internal/topology"
)

func trackedBuild(t *testing.T, g *topology.Graph, nodes []int, cfg Config,
	prevH *Hierarchy, prevIDs *Identities, tr *IdentityTracker, now float64) (*Hierarchy, *Identities) {
	t.Helper()
	h, ids := BuildWithIdentities(g, nodes, cfg, prevH, prevIDs, tr, now)
	if cfg.Reach >= 0 {
		if err := h.Validate(); err != nil {
			t.Fatal(err)
		}
	}
	return h, ids
}

func TestIdentitiesInitCoverAllClusters(t *testing.T) {
	g := graphOf(8, [2]int{1, 5}, [2]int{2, 6}, [2]int{5, 6})
	tr := NewIdentityTracker()
	h, ids := trackedBuild(t, g, []int{1, 2, 5, 6}, Config{}, nil, nil, tr, 0)
	for k := 1; k <= h.L(); k++ {
		for _, head := range h.LevelNodes(k) {
			if _, ok := ids.Logical(k, head); !ok {
				t.Fatalf("level-%d cluster %d has no identity", k, head)
			}
		}
	}
	if ids.Levels() != h.L() {
		t.Fatalf("ids cover %d levels, hierarchy has %d", ids.Levels(), h.L())
	}
}

func TestIdentityStableUnderNoChange(t *testing.T) {
	g := graphOf(8, [2]int{1, 5}, [2]int{2, 6}, [2]int{5, 6})
	tr := NewIdentityTracker()
	h1, ids1 := trackedBuild(t, g, []int{1, 2, 5, 6}, Config{}, nil, nil, tr, 0)
	h2, ids2 := trackedBuild(t, g, []int{1, 2, 5, 6}, Config{}, h1, ids1, tr, 1)
	for k := 1; k <= h1.L(); k++ {
		for _, head := range h1.LevelNodes(k) {
			a, _ := ids1.Logical(k, head)
			b, ok := ids2.Logical(k, head)
			if !ok || a != b {
				t.Fatalf("identity of level-%d cluster %d changed: %d -> %d", k, head, a, b)
			}
		}
	}
	_ = h2
}

func TestIdentitySurvivesRelabel(t *testing.T) {
	// Cluster {1,5} led by 5; node 9 joins and takes over headship.
	// The logical ID must carry from head 5 to head 9 (plurality of
	// members is retained).
	g1 := graphOf(12, [2]int{1, 5}, [2]int{2, 6}, [2]int{5, 6})
	tr := NewIdentityTracker()
	h1, ids1 := trackedBuild(t, g1, []int{1, 2, 5, 6}, Config{}, nil, nil, tr, 0)
	old, ok := ids1.Logical(1, 5)
	if !ok {
		t.Fatal("no identity for cluster 5")
	}
	g2 := graphOf(12, [2]int{1, 5}, [2]int{1, 9}, [2]int{5, 9}, [2]int{2, 6}, [2]int{5, 6}, [2]int{9, 6})
	h2, ids2 := trackedBuild(t, g2, []int{1, 2, 5, 6, 9}, Config{}, h1, ids1, tr, 1)
	newHead := h2.Ancestor(1, 1)
	if newHead != 9 {
		t.Fatalf("expected 9 to take over, head = %d", newHead)
	}
	id2, ok := ids2.Logical(1, newHead)
	if !ok || id2 != old {
		t.Fatalf("identity lost across relabel: %d -> %d", old, id2)
	}
}

func TestIdentityFreshForNewCluster(t *testing.T) {
	g1 := graphOf(10, [2]int{1, 5})
	tr := NewIdentityTracker()
	h1, ids1 := trackedBuild(t, g1, []int{1, 5}, Config{}, nil, nil, tr, 0)
	// A disjoint new pair appears.
	g2 := graphOf(10, [2]int{1, 5}, [2]int{2, 6})
	_, ids2 := trackedBuild(t, g2, []int{1, 2, 5, 6}, Config{}, h1, ids1, tr, 1)
	oldID, _ := ids1.Logical(1, 5)
	keptID, _ := ids2.Logical(1, 5)
	newID, ok := ids2.Logical(1, 6)
	if keptID != oldID {
		t.Fatalf("existing cluster's ID changed: %d -> %d", oldID, keptID)
	}
	if !ok || newID == oldID {
		t.Fatalf("new cluster did not get a fresh ID: %d", newID)
	}
}

func TestPassthroughUsesHeadIDs(t *testing.T) {
	g := graphOf(8, [2]int{1, 5}, [2]int{2, 6}, [2]int{5, 6})
	tr := NewIdentityTracker()
	tr.Passthrough = true
	h, ids := trackedBuild(t, g, []int{1, 2, 5, 6}, Config{}, nil, nil, tr, 0)
	for k := 1; k <= h.L(); k++ {
		for _, head := range h.LevelNodes(k) {
			id, _ := ids.Logical(k, head)
			if id != uint64(head) {
				t.Fatalf("passthrough id %d for head %d", id, head)
			}
		}
	}
}

func TestChainOfMatchesAncestors(t *testing.T) {
	pos := randomPositions(150, 450, 21)
	g := topology.BuildUnitDiskBrute(pos, 105)
	tr := NewIdentityTracker()
	h, ids := trackedBuild(t, g, nodesUpTo(150), Config{}, nil, nil, tr, 0)
	for _, v := range h.LevelNodes(0) {
		phys := h.AncestorChain(v)
		log := ids.AppendChainOf(h, v, nil)
		if len(log) != len(phys) {
			t.Fatalf("node %d: logical chain %d levels, physical %d", v, len(log), len(phys))
		}
		for i := range phys {
			want, _ := ids.Logical(i+1, phys[i])
			if log[i] != want {
				t.Fatalf("node %d level %d: chain %d != %d", v, i+1, log[i], want)
			}
		}
	}
}

// --- DebouncedLCA ---

func TestDebouncedRetainsLostHeadWithinGrace(t *testing.T) {
	tr := NewIdentityTracker()
	cfg := Config{Elector: NewDebouncedLCA(5), Reach: -1}
	// 1 elects 5.
	g1 := graphOf(10, [2]int{1, 5}, [2]int{0, 5})
	h1, ids1 := BuildWithIdentities(g1, []int{0, 1, 5}, cfg, nil, nil, tr, 0)
	if h1.Level(0).Head[1] != 5 {
		t.Fatalf("head(1) = %d", h1.Level(0).Head[1])
	}
	// Link 1-5 drops at t=1: within grace, 1 still claims 5.
	g2 := graphOf(10, [2]int{0, 5})
	h2, ids2 := BuildWithIdentities(g2, []int{0, 1, 5}, cfg, h1, ids1, tr, 1)
	if h2.Level(0).Head[1] != 5 {
		t.Fatalf("within grace head(1) = %d, want 5", h2.Level(0).Head[1])
	}
	// Still lost at t=10 (> grace 5): re-elects itself.
	h3, _ := BuildWithIdentities(g2, []int{0, 1, 5}, cfg, h2, ids2, tr, 10)
	if h3.Level(0).Head[1] != 1 {
		t.Fatalf("after grace head(1) = %d, want 1", h3.Level(0).Head[1])
	}
}

func TestDebouncedRecoversOnRelink(t *testing.T) {
	tr := NewIdentityTracker()
	cfg := Config{Elector: NewDebouncedLCA(5), Reach: -1}
	g1 := graphOf(10, [2]int{1, 5}, [2]int{0, 5})
	h1, ids1 := BuildWithIdentities(g1, []int{0, 1, 5}, cfg, nil, nil, tr, 0)
	gLost := graphOf(10, [2]int{0, 5})
	h2, ids2 := BuildWithIdentities(gLost, []int{0, 1, 5}, cfg, h1, ids1, tr, 1)
	// Link returns at t=3: the pending loss must be forgotten...
	h3, ids3 := BuildWithIdentities(g1, []int{0, 1, 5}, cfg, h2, ids2, tr, 3)
	if h3.Level(0).Head[1] != 5 {
		t.Fatalf("head after relink = %d", h3.Level(0).Head[1])
	}
	// ...so a second loss restarts the grace clock.
	h4, ids4 := BuildWithIdentities(gLost, []int{0, 1, 5}, cfg, h3, ids3, tr, 7)
	if h4.Level(0).Head[1] != 5 {
		t.Fatalf("head right after second loss = %d", h4.Level(0).Head[1])
	}
	h5, _ := BuildWithIdentities(gLost, []int{0, 1, 5}, cfg, h4, ids4, tr, 11)
	if h5.Level(0).Head[1] != 5 {
		t.Fatalf("head within second grace = %d", h5.Level(0).Head[1])
	}
}

func TestDebouncedLevelScale(t *testing.T) {
	d := &DebouncedLCA{Grace: 2, LevelScale: 3}
	// At level 2 the effective grace is 2*9 = 18.
	g := graphOf(4, [2]int{1, 2})
	ctx := &ElectCtx{
		Time: 10, Level: 2, Nodes: []int{3}, Graph: g,
		PrevHead:  func(int) int { return 2 }, // claims head 2, not adjacent
		LogicalOf: func(int) uint64 { return 7 },
	}
	head := d.ElectTracked(nil, ctx)
	if head[0] != 2 {
		t.Fatalf("lost head dropped before scaled grace: %v", head)
	}
	ctx.Time = 40 // 30s elapsed > 18
	head = d.ElectTracked(head[:0], ctx)
	if head[0] != 3 {
		t.Fatalf("lost head kept beyond scaled grace: %v", head)
	}
}

// --- forced top ---

func TestForcedTop(t *testing.T) {
	pos := randomPositions(200, 500, 23)
	g := topology.BuildUnitDiskBrute(pos, 120)
	giant := topology.GiantComponent(g, nodesUpTo(200))
	tr := NewIdentityTracker()
	cfg := Config{ForceTopAt: 12}
	h, ids := BuildWithIdentities(g, giant, cfg, nil, nil, tr, 0)
	if !h.ForcedTop {
		t.Skip("hierarchy never reached the cap (layout too small)")
	}
	if err := h.Validate(); err != nil {
		t.Fatal(err)
	}
	top := h.LevelNodes(h.L())
	if len(top) != 1 {
		t.Fatalf("forced top has %d nodes", len(top))
	}
	// The forced level's width respects the cap.
	below := h.LevelNodes(h.L() - 1)
	if len(below) > 12 {
		t.Fatalf("forced level has %d members > cap", len(below))
	}
	// Every giant node's chain reaches the top.
	for _, v := range giant {
		chain := h.AncestorChain(v)
		if len(chain) != h.L() {
			t.Fatalf("node %d chain depth %d, want %d", v, len(chain), h.L())
		}
		if chain[len(chain)-1] != top[0] {
			t.Fatalf("node %d top ancestor %d", v, chain[len(chain)-1])
		}
	}
	// The top has an identity.
	if _, ok := ids.Logical(h.L(), top[0]); !ok {
		t.Fatal("forced top has no identity")
	}
}

func TestForcedTopIdentityStableAcrossRootChange(t *testing.T) {
	// The top cluster keeps its logical ID even when its root (max ID)
	// changes, because it always holds the population plurality.
	tr := NewIdentityTracker()
	cfg := Config{ForceTopAt: 12}
	g1 := graphOf(12, [2]int{1, 2}, [2]int{2, 3}, [2]int{3, 4}, [2]int{4, 9})
	h1, ids1 := BuildWithIdentities(g1, []int{1, 2, 3, 4, 9}, cfg, nil, nil, tr, 0)
	if !h1.ForcedTop {
		t.Fatal("no forced top")
	}
	topID1, _ := ids1.Logical(h1.L(), h1.LevelNodes(h1.L())[0])
	// Node 9 (the max) leaves; root changes.
	g2 := graphOf(12, [2]int{1, 2}, [2]int{2, 3}, [2]int{3, 4})
	h2, ids2 := BuildWithIdentities(g2, []int{1, 2, 3, 4}, cfg, h1, ids1, tr, 1)
	if !h2.ForcedTop {
		t.Fatal("no forced top after change")
	}
	topID2, _ := ids2.Logical(h2.L(), h2.LevelNodes(h2.L())[0])
	if topID1 != topID2 {
		t.Fatalf("forced-top identity changed: %d -> %d", topID1, topID2)
	}
}
