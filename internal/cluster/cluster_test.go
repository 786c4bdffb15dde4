package cluster

import (
	"testing"

	"repro/internal/geom"
	"repro/internal/rng"
	"repro/internal/topology"
)

func graphOf(n int, edges ...[2]int) *topology.Graph {
	g := topology.NewGraph(n)
	for _, e := range edges {
		g.AddEdge(e[0], e[1])
	}
	return g
}

// build is the hierarchy of a first snapshot, for tests that need no
// identities.
func build(g *topology.Graph, nodes []int, cfg Config) *Hierarchy {
	h, _ := BuildWithIdentities(g, nodes, cfg, nil, nil, NewIdentityTracker(), 0)
	return h
}

func nodesUpTo(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

func TestElectStar(t *testing.T) {
	// Star centered at the max-ID node: everyone elects the center.
	g := graphOf(6, [2]int{5, 1}, [2]int{5, 2}, [2]int{5, 3}, [2]int{5, 4})
	h := build(g, []int{1, 2, 3, 4, 5}, Config{})
	if h.L() < 1 {
		t.Fatal("no clustering performed")
	}
	lvl0 := h.Level(0)
	for _, u := range []int{1, 2, 3, 4, 5} {
		if lvl0.Member[u] != 5 {
			t.Fatalf("member(%d) = %d, want 5", u, lvl0.Member[u])
		}
	}
	if got := h.LevelNodes(1); len(got) != 1 || got[0] != 5 {
		t.Fatalf("level-1 nodes = %v", got)
	}
	// Center's ALCA state counts its 4 neighbor electors.
	if lvl0.State[5] != 4 {
		t.Fatalf("state(5) = %d, want 4", lvl0.State[5])
	}
}

func TestElectChain(t *testing.T) {
	// 1-2-3: head(1)=2, head(2)=3, head(3)=3.
	g := graphOf(4, [2]int{1, 2}, [2]int{2, 3})
	h := build(g, []int{1, 2, 3}, Config{})
	lvl0 := h.Level(0)
	if lvl0.Head[1] != 2 || lvl0.Head[2] != 3 || lvl0.Head[3] != 3 {
		t.Fatalf("heads = %v", lvl0.Head)
	}
	// 2 is a head (elected by 1) so it belongs to its own cluster.
	if lvl0.Member[1] != 2 || lvl0.Member[2] != 2 || lvl0.Member[3] != 3 {
		t.Fatalf("members = %v", lvl0.Member)
	}
	// Level-1 topology: clusters 2 and 3 are adjacent via edge (2,3).
	lvl1 := h.Level(1)
	if !lvl1.Graph.HasEdge(2, 3) {
		t.Fatal("level-1 clusters not adjacent")
	}
	// 2 is in ALCA state 1: the critical state.
	if lvl0.State[2] != 1 {
		t.Fatalf("state(2) = %d, want 1", lvl0.State[2])
	}
}

func TestElectPaperFig1Fragment(t *testing.T) {
	// Mirrors the paper's node-68 example: 68 is elected by 63 even
	// though 68 itself elects the larger neighbor 97.
	g := graphOf(98, [2]int{63, 68}, [2]int{68, 97})
	h := build(g, []int{63, 68, 97}, Config{})
	lvl0 := h.Level(0)
	if lvl0.Head[63] != 68 {
		t.Fatalf("head(63) = %d, want 68", lvl0.Head[63])
	}
	if lvl0.Head[68] != 97 {
		t.Fatalf("head(68) = %d, want 97", lvl0.Head[68])
	}
	// Both 68 and 97 are clusterheads; 68 leads {63, 68}.
	if lvl0.Member[63] != 68 || lvl0.Member[68] != 68 || lvl0.Member[97] != 97 {
		t.Fatalf("members = %v", lvl0.Member)
	}
}

func TestIsolatedNodesSelfCluster(t *testing.T) {
	g := graphOf(3)
	h := build(g, []int{0, 1, 2}, Config{})
	// No edges: no compression, single trivial level.
	if h.L() != 0 {
		t.Fatalf("L = %d for edgeless graph", h.L())
	}
	if h.Level(0).Elected() {
		t.Fatal("trivial level kept election data")
	}
}

func TestRecursionTerminatesSingleTop(t *testing.T) {
	// Connected random unit-disk graph compresses to a single top node.
	pos := randomPositions(200, 500, 1)
	g := topology.BuildUnitDiskBrute(pos, 120)
	giant := topology.GiantComponent(g, nodesUpTo(200))
	h := build(g, giant, Config{})
	top := h.LevelNodes(h.L())
	if len(top) != 1 {
		t.Fatalf("top level has %d nodes, want 1 (connected input)", len(top))
	}
	if err := h.Validate(); err != nil {
		t.Fatal(err)
	}
	if h.L() < 2 {
		t.Fatalf("only %d levels for 200 connected nodes", h.L())
	}
}

func randomPositions(n int, r float64, seed uint64) []geom.Vec {
	src := rng.New(seed)
	d := geom.Disc{R: r}
	ps := make([]geom.Vec, n)
	for i := range ps {
		ps[i] = d.Sample(src)
	}
	return ps
}

func TestValidateRandomGraphs(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		pos := randomPositions(150, 450, seed)
		g := topology.BuildUnitDiskBrute(pos, 100)
		h := build(g, nodesUpTo(150), Config{})
		if err := h.Validate(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		// Aggregation is monotone and alpha > 1 at every level.
		for k := 1; k <= h.L(); k++ {
			if a := h.Alpha(k); a <= 1 {
				t.Fatalf("seed %d: alpha_%d = %v", seed, k, a)
			}
			if c := h.Aggregation(k); c < h.Aggregation(k-1) {
				t.Fatalf("seed %d: c_k not monotone at %d", seed, k)
			}
		}
	}
}

func TestHeadIsMaxOfSomeonesNeighborhood(t *testing.T) {
	// Property: every elected head at level 0 is the max of the closed
	// neighborhood of at least one node.
	pos := randomPositions(120, 400, 3)
	g := topology.BuildUnitDiskBrute(pos, 100)
	h := build(g, nodesUpTo(120), Config{})
	lvl0 := h.Level(0)
	if !lvl0.Elected() {
		t.Skip("trivial clustering")
	}
	for _, head := range h.LevelNodes(1) {
		found := false
		for _, u := range lvl0.Nodes {
			best := u
			for _, v := range g.Neighbors(u) {
				if v > best {
					best = v
				}
			}
			if best == head {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("head %d is nobody's closed-neighborhood max", head)
		}
	}
}

func TestAncestorChainConsistency(t *testing.T) {
	pos := randomPositions(150, 450, 5)
	g := topology.BuildUnitDiskBrute(pos, 110)
	h := build(g, nodesUpTo(150), Config{})
	for _, v := range h.LevelNodes(0) {
		chain := h.AncestorChain(v)
		// chain[i] must be a level-(i+1) node and contain v among its
		// descendants.
		for i, c := range chain {
			k := i + 1
			if !h.Level(k).IsNode(c) {
				t.Fatalf("chain[%d] = %d not a level-%d node", i, c, k)
			}
			if !containsInt(h.Descendants(k, c), v) {
				t.Fatalf("node %d not among descendants of its level-%d cluster %d", v, k, c)
			}
			if h.Ancestor(v, k) != c {
				t.Fatalf("Ancestor(%d,%d) = %d, want %d", v, k, h.Ancestor(v, k), c)
			}
		}
	}
}

func TestDescendantsPartition(t *testing.T) {
	pos := randomPositions(130, 420, 7)
	g := topology.BuildUnitDiskBrute(pos, 100)
	h := build(g, nodesUpTo(130), Config{})
	for k := 1; k <= h.L(); k++ {
		seen := map[int]int{}
		for _, c := range h.LevelNodes(k) {
			for _, v := range h.Descendants(k, c) {
				if prev, dup := seen[v]; dup {
					t.Fatalf("level %d: node %d in clusters %d and %d", k, v, prev, c)
				}
				seen[v] = c
			}
		}
		if len(seen) != len(h.LevelNodes(0)) {
			t.Fatalf("level %d: descendants cover %d of %d nodes", k, len(seen), len(h.LevelNodes(0)))
		}
	}
}

func containsInt(a []int, x int) bool {
	for _, v := range a {
		if v == x {
			return true
		}
	}
	return false
}

func TestBuildDeterminism(t *testing.T) {
	pos := randomPositions(140, 430, 9)
	g := topology.BuildUnitDiskBrute(pos, 105)
	h1 := build(g, nodesUpTo(140), Config{})
	h2 := build(g, nodesUpTo(140), Config{})
	if h1.L() != h2.L() {
		t.Fatal("non-deterministic level count")
	}
	for k := 0; k <= h1.L(); k++ {
		a, b := h1.LevelNodes(k), h2.LevelNodes(k)
		if len(a) != len(b) {
			t.Fatalf("level %d sizes differ", k)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("level %d node lists differ", k)
			}
		}
	}
}

func TestStickyLCARetainsHead(t *testing.T) {
	// Triangle 1-2-3 plus new arrival 9 adjacent to 1: memoryless LCA
	// re-elects 9 as 1's head; sticky keeps 3 while the 1-3 link lives.
	g1 := graphOf(10, [2]int{1, 2}, [2]int{2, 3}, [2]int{1, 3})
	tr := NewIdentityTracker()
	hs, ids := BuildWithIdentities(g1, []int{1, 2, 3}, Config{Elector: StickyLCA{}}, nil, nil, tr, 0)
	if hs.Level(0).Head[1] != 3 {
		t.Fatalf("initial sticky head(1) = %d", hs.Level(0).Head[1])
	}

	g2 := graphOf(10, [2]int{1, 2}, [2]int{2, 3}, [2]int{1, 3}, [2]int{1, 9})
	// Memoryless switches.
	hm := build(g2, []int{1, 2, 3, 9}, Config{})
	if hm.Level(0).Head[1] != 9 {
		t.Fatalf("memoryless head(1) = %d, want 9", hm.Level(0).Head[1])
	}
	// Sticky retains 3.
	hs2, _ := BuildWithIdentities(g2, []int{1, 2, 3, 9}, Config{Elector: StickyLCA{}}, hs, ids, tr, 1)
	if hs2.Level(0).Head[1] != 3 {
		t.Fatalf("sticky head(1) = %d, want 3", hs2.Level(0).Head[1])
	}
	if err := hs2.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestStickyLCAReElectsOnLinkLoss(t *testing.T) {
	g1 := graphOf(10, [2]int{1, 3}, [2]int{1, 2})
	tr := NewIdentityTracker()
	hs, ids := BuildWithIdentities(g1, []int{1, 2, 3}, Config{Elector: StickyLCA{}}, nil, nil, tr, 0)
	if hs.Level(0).Head[1] != 3 {
		t.Fatalf("head(1) = %d", hs.Level(0).Head[1])
	}
	// Link 1-3 breaks: 1 must re-elect among remaining closed nbhd.
	g2 := graphOf(10, [2]int{1, 2})
	hs2, _ := BuildWithIdentities(g2, []int{1, 2, 3}, Config{Elector: StickyLCA{}}, hs, ids, tr, 1)
	if hs2.Level(0).Head[1] != 2 {
		t.Fatalf("after link loss head(1) = %d, want 2", hs2.Level(0).Head[1])
	}
}

func TestMaxLevelsCap(t *testing.T) {
	pos := randomPositions(200, 500, 11)
	g := topology.BuildUnitDiskBrute(pos, 120)
	h := build(g, nodesUpTo(200), Config{MaxLevels: 2})
	if h.L() > 2 {
		t.Fatalf("L = %d exceeds cap", h.L())
	}
}

// --- Diff tests ---

func TestDiffEmpty(t *testing.T) {
	g := graphOf(6, [2]int{1, 2}, [2]int{2, 3})
	h1 := build(g, []int{1, 2, 3}, Config{})
	h2 := build(g, []int{1, 2, 3}, Config{})
	d := ComputeDiff(h1, h2)
	if !d.Empty() {
		t.Fatalf("diff of identical hierarchies not empty: %+v", d)
	}
}

func TestDiffMembershipChange(t *testing.T) {
	// 1 initially with head 2 (chain 1-2 .. 3 separate); then 1 moves
	// adjacent to 3 instead.
	g1 := graphOf(5, [2]int{1, 2}, [2]int{3, 4})
	g2 := graphOf(5, [2]int{1, 4}, [2]int{3, 4}, [2]int{2, 4})
	h1 := build(g1, []int{1, 2, 3, 4}, Config{})
	h2 := build(g2, []int{1, 2, 3, 4}, Config{})
	d := ComputeDiff(h1, h2)
	found := false
	for _, mc := range d.Memberships {
		if mc.Node == 1 && mc.Level == 1 {
			if mc.Old != 2 || mc.New != 4 {
				t.Fatalf("membership change = %+v", mc)
			}
			found = true
		}
	}
	if !found {
		t.Fatalf("no level-1 membership change for node 1: %+v", d.Memberships)
	}
	// 2 lost clusterhead status (nobody elects it anymore).
	if !containsInt(d.Rejections[1], 2) {
		t.Fatalf("rejections = %v, want to include 2", d.Rejections[1])
	}
}

func TestDiffElection(t *testing.T) {
	// Initially 1 and 2 isolated; then they link: 2 becomes a head.
	g1 := graphOf(4)
	g2 := graphOf(4, [2]int{1, 2})
	h1 := build(g1, []int{1, 2}, Config{})
	h2 := build(g2, []int{1, 2}, Config{})
	d := ComputeDiff(h1, h2)
	if !containsInt(d.Elections[1], 2) {
		t.Fatalf("elections = %v", d.Elections)
	}
}

func TestDiffMigrationLinkEvent(t *testing.T) {
	// Two stable clusters {1,5} (head 5) and {2,6} (head 6). A new
	// level-0 edge (1,2) appears between low-ID members, so no election
	// changes (1's closed nbhd max stays 5, 2's stays 6) and the lifted
	// level-1 link (5,6) is a pure cluster-migration event (paper event
	// class i).
	g1 := graphOf(8, [2]int{1, 5}, [2]int{2, 6})
	g2 := graphOf(8, [2]int{1, 5}, [2]int{2, 6}, [2]int{1, 2})
	h1 := build(g1, []int{1, 2, 5, 6}, Config{})
	h2 := build(g2, []int{1, 2, 5, 6}, Config{})
	d := ComputeDiff(h1, h2)
	ev := d.MigrationLinkEvents[1]
	if len(ev) != 1 || !ev[0].Up || ev[0].Edge != topology.MakeEdgeKey(5, 6) {
		t.Fatalf("migration link events = %v (structural %v)", ev, d.StructuralLinkEvents[1])
	}
	// No level-1 election churn (the new level-1 link does legitimately
	// create a level-2 cluster above, which is a separate event).
	if len(d.Elections[1]) != 0 || len(d.Rejections[1]) != 0 {
		t.Fatalf("unexpected level-1 elections/rejections: %v / %v", d.Elections, d.Rejections)
	}
	if !containsInt(d.Elections[2], 6) {
		t.Fatalf("expected level-2 election of 6, got %v", d.Elections)
	}
	// The reverse diff yields the matching link-down event.
	dRev := ComputeDiff(h2, h1)
	evRev := dRev.MigrationLinkEvents[1]
	if len(evRev) != 1 || evRev[0].Up {
		t.Fatalf("reverse migration events = %v", evRev)
	}
}

func TestDiffStructuralLinkEvent(t *testing.T) {
	// Clusters {1,2} (head 2) and {3,4} (head 4). Edge (1,3) appears:
	// 1's closed-neighborhood max becomes 3, so 3 is *elected* as a new
	// clusterhead and the resulting level-1 link changes are
	// consequences of the election — structural (paper events iii/vii),
	// not cluster migration.
	g1 := graphOf(6, [2]int{1, 2}, [2]int{3, 4})
	g2 := graphOf(6, [2]int{1, 2}, [2]int{3, 4}, [2]int{1, 3})
	h1 := build(g1, []int{1, 2, 3, 4}, Config{})
	h2 := build(g2, []int{1, 2, 3, 4}, Config{})
	d := ComputeDiff(h1, h2)
	if !containsInt(d.Elections[1], 3) {
		t.Fatalf("elections = %v, want 3 elected", d.Elections)
	}
	if len(d.MigrationLinkEvents[1]) != 0 {
		t.Fatalf("expected no migration link events, got %v", d.MigrationLinkEvents[1])
	}
	if len(d.StructuralLinkEvents[1]) == 0 {
		t.Fatal("expected structural link events from election")
	}
}

func TestDiffStateDeltas(t *testing.T) {
	// Star center gains one elector: state 2 -> 3.
	g1 := graphOf(8, [2]int{7, 1}, [2]int{7, 2})
	g2 := graphOf(8, [2]int{7, 1}, [2]int{7, 2}, [2]int{7, 3})
	h1 := build(g1, []int{1, 2, 3, 7}, Config{})
	h2 := build(g2, []int{1, 2, 3, 7}, Config{})
	d := ComputeDiff(h1, h2)
	found := false
	for _, sd := range d.StateDeltas {
		if sd.Node == 7 && sd.Level == 0 {
			if sd.Old != 2 || sd.New != 3 {
				t.Fatalf("state delta = %+v", sd)
			}
			found = true
		}
	}
	if !found {
		t.Fatalf("no state delta for node 7: %+v", d.StateDeltas)
	}
}

// --- StateTracker tests ---

func TestStateTrackerOccupancy(t *testing.T) {
	// Chain 1-2-3: head 2 is in state 1, head 3 in state 1 (elected by
	// 2 only). Observe twice; p_1 (level-1 nodes in state 1) == 1.
	g := graphOf(4, [2]int{1, 2}, [2]int{2, 3})
	h := build(g, []int{1, 2, 3}, Config{})
	tr := NewStateTracker()
	tr.Observe(h)
	tr.Observe(h)
	p, n := tr.P1(1)
	if n == 0 || p != 1 {
		t.Fatalf("P1(1) = %v (n=%d), want 1", p, n)
	}
	if tr.Samples() != 2 {
		t.Fatalf("samples = %d", tr.Samples())
	}
}

func TestStateTrackerUnitTransitions(t *testing.T) {
	g1 := graphOf(8, [2]int{7, 1}, [2]int{7, 2})
	g2 := graphOf(8, [2]int{7, 1}, [2]int{7, 2}, [2]int{7, 3})
	h1 := build(g1, []int{1, 2, 3, 7}, Config{})
	h2 := build(g2, []int{1, 2, 3, 7}, Config{})
	tr := NewStateTracker()
	tr.ObserveDiff(ComputeDiff(h1, h2))
	frac, total := tr.UnitTransitionFraction()
	if total != 1 || frac != 1 {
		t.Fatalf("unit transitions = %v of %d", frac, total)
	}
	hist := tr.DeltaHistogram()
	if hist[1] != 1 {
		t.Fatalf("delta histogram = %v", hist)
	}
}

func TestQDistSumsBelowOne(t *testing.T) {
	// With p in (0,1) the q_j of Eq. (15a) telescope to Π p_{k-i} at
	// j = k-1, so ΣQ <= 1 always.
	pos := randomPositions(250, 550, 13)
	g := topology.BuildUnitDiskBrute(pos, 120)
	h := build(g, nodesUpTo(250), Config{})
	tr := NewStateTracker()
	tr.Observe(h)
	for k := 2; k <= h.L(); k++ {
		if q := tr.QSum(k); q < 0 || q > 1+1e-9 {
			t.Fatalf("QSum(%d) = %v out of [0,1]", k, q)
		}
		if q1 := tr.Q1(k); q1 < 0 || q1 > 1 {
			t.Fatalf("Q1(%d) = %v", k, q1)
		}
	}
}

func BenchmarkBuildHierarchy500(b *testing.B) {
	pos := randomPositions(500, 700, 1)
	g := topology.BuildUnitDiskBrute(pos, 100)
	nodes := nodesUpTo(500)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		build(g, nodes, Config{})
	}
}

func BenchmarkComputeDiff500(b *testing.B) {
	pos := randomPositions(500, 700, 2)
	g1 := topology.BuildUnitDiskBrute(pos, 100)
	// Perturb positions slightly for a realistic diff.
	src := rng.New(3)
	pos2 := make([]geom.Vec, len(pos))
	for i, p := range pos {
		pos2[i] = geom.Vec{X: p.X + src.Range(-5, 5), Y: p.Y + src.Range(-5, 5)}
	}
	g2 := topology.BuildUnitDiskBrute(pos2, 100)
	nodes := nodesUpTo(500)
	h1 := build(g1, nodes, Config{})
	h2 := build(g2, nodes, Config{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ComputeDiff(h1, h2)
	}
}
