package lm

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/cluster"
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

func nodesUpTo(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// tracked builds a hierarchy plus fresh identities.
func tracked(g *topology.Graph, nodes []int) (*cluster.Hierarchy, *cluster.Identities, *cluster.IdentityTracker) {
	tr := cluster.NewIdentityTracker()
	h, ids := cluster.BuildWithIdentities(g, nodes, cluster.Config{}, nil, nil, tr, 0)
	return h, ids, tr
}

// plain builds a hierarchy with no identities.
func plain(g *topology.Graph, nodes []int) *cluster.Hierarchy {
	h, _, _ := tracked(g, nodes)
	return h
}

func randomHierarchy(n int, worldR, rtx float64, seed uint64) (*cluster.Hierarchy, *cluster.Identities, *topology.Graph) {
	src := rng.New(seed)
	d := geom.Disc{R: worldR}
	pos := make([]geom.Vec, n)
	for i := range pos {
		pos[i] = d.Sample(src)
	}
	g := topology.BuildUnitDiskBrute(pos, rtx)
	h, ids, _ := tracked(g, nodesUpTo(n))
	return h, ids, g
}

func keysOf(members []int) []uint64 {
	keys := make([]uint64, len(members))
	for i, m := range members {
		keys[i] = uint64(m)
	}
	return keys
}

// --- hash tests ---

func TestRendezvousSelectsIndex(t *testing.T) {
	h := Rendezvous{Salt: 7}
	keys := keysOf([]int{3, 8, 15, 42})
	for owner := uint64(0); owner < 50; owner++ {
		for level := 1; level <= 4; level++ {
			got := h.Select(owner, level, keys)
			if got < 0 || got >= len(keys) {
				t.Fatalf("index %d out of range", got)
			}
			if got != h.Select(owner, level, keys) {
				t.Fatal("selection not deterministic")
			}
		}
	}
}

func TestRendezvousLoadBalance(t *testing.T) {
	h := Rendezvous{}
	keys := keysOf([]int{10, 20, 30, 40, 50})
	counts := map[int]int{}
	const owners = 5000
	for owner := 0; owner < owners; owner++ {
		counts[h.Select(uint64(owner), 2, keys)]++
	}
	want := owners / len(keys)
	for m, c := range counts {
		if c < want/2 || c > want*2 {
			t.Fatalf("candidate %d load %d, expected near %d", m, c, want)
		}
	}
}

func TestRendezvousMinimalDisruption(t *testing.T) {
	// Removing one candidate must only move owners that mapped to it.
	h := Rendezvous{}
	keys := keysOf([]int{10, 20, 30, 40, 50})
	reduced := keysOf([]int{10, 20, 40, 50})
	for owner := 0; owner < 2000; owner++ {
		before := keys[h.Select(uint64(owner), 1, keys)]
		after := reduced[h.Select(uint64(owner), 1, reduced)]
		if before != 30 && before != after {
			t.Fatalf("owner %d moved from %d to %d though 30 was removed", owner, before, after)
		}
	}
}

func TestSuccessorRule(t *testing.T) {
	s := Successor{IDSpace: 100}
	keys := keysOf([]int{10, 40, 70})
	// Owner 15 -> least ID greater than 15 is 40.
	if got := keys[s.Select(15, 1, keys)]; got != 40 {
		t.Fatalf("Select(15) = %d, want 40", got)
	}
	// Wrap-around: owner 80 -> 10.
	if got := keys[s.Select(80, 1, keys)]; got != 10 {
		t.Fatalf("Select(80) = %d, want 10", got)
	}
	// Exactly at a candidate: owner 40 -> 70 (strictly greater).
	if got := keys[s.Select(40, 1, keys)]; got != 70 {
		t.Fatalf("Select(40) = %d, want 70", got)
	}
}

func TestSuccessorSkewVsRendezvousEquity(t *testing.T) {
	// The paper's remark: the GLS rule over small candidate sets with
	// clustered IDs concentrates load. With members {45,59,68,74,75,97}
	// (the paper's level-2 example), owners uniform over [0,100) hit 45
	// disproportionately because of the large gap below it.
	keys := keysOf([]int{45, 59, 68, 74, 75, 97})
	succ := Successor{IDSpace: 100}
	rdv := Rendezvous{}
	sCount := map[uint64]int{}
	rCount := map[uint64]int{}
	for owner := 0; owner < 100; owner++ {
		sCount[keys[succ.Select(uint64(owner), 1, keys)]]++
		rCount[keys[rdv.Select(uint64(owner), 1, keys)]]++
	}
	if sCount[45] < 40 {
		t.Fatalf("successor load on 45 = %d, expected the paper's skew (>=40)", sCount[45])
	}
	maxR := 0
	for _, c := range rCount {
		if c > maxR {
			maxR = c
		}
	}
	if maxR >= sCount[45] {
		t.Fatalf("rendezvous max load %d not better than successor skew %d", maxR, sCount[45])
	}
}

func contains(a []int, x int) bool {
	for _, v := range a {
		if v == x {
			return true
		}
	}
	return false
}

// --- selector / table tests ---

func TestServerForDescendsToCorrectCluster(t *testing.T) {
	h, ids, _ := randomHierarchy(150, 450, 110, 1)
	s := NewSelector(nil)
	for _, v := range h.LevelNodes(0) {
		chain := h.AncestorChain(v)
		for k := 1; k <= len(chain); k++ {
			srv := s.ServerFor(h, ids, v, k)
			if srv < 0 {
				t.Fatalf("no server for (%d,%d)", v, k)
			}
			// The server must be a level-0 descendant of the owner's
			// level-k cluster.
			if !contains(h.Descendants(k, chain[k-1]), srv) {
				t.Fatalf("server %d for (%d,%d) outside cluster %d", srv, v, k, chain[k-1])
			}
		}
		// Beyond the chain: no server.
		if got := s.ServerFor(h, ids, v, len(chain)+1); got != -1 {
			t.Fatalf("phantom server %d beyond chain", got)
		}
	}
}

func TestBuildTableMatchesServerFor(t *testing.T) {
	h, ids, _ := randomHierarchy(120, 420, 100, 2)
	s := NewSelector(nil)
	table := s.BuildTable(h, ids)
	for _, v := range h.LevelNodes(0) {
		for k := 1; k <= table.Levels(v); k++ {
			if table.Server(v, k) != s.ServerFor(h, ids, v, k) {
				t.Fatalf("table/ServerFor mismatch at (%d,%d)", v, k)
			}
		}
	}
	if table.EntryCount() == 0 {
		t.Fatal("no entries")
	}
}

// TestBuildTableAllocsFlat: BuildTable packs its rows into flat
// backings sized up front, so its heap objects do not grow with the
// owner count (a row-by-row build allocates several per owner).
func TestBuildTableAllocsFlat(t *testing.T) {
	s := NewSelector(nil)
	allocs := func(n int) float64 {
		h, ids, _ := randomHierarchy(n, 60*math.Sqrt(float64(n)), 100, 5)
		return testing.AllocsPerRun(3, func() { s.BuildTable(h, ids) })
	}
	small, large := allocs(100), allocs(1600)
	if large > small+4 {
		t.Fatalf("BuildTable: %v heap objects at 100 owners, %v at 1600", small, large)
	}
}

func TestServerLoadIsLogarithmic(t *testing.T) {
	// Each node serves Θ(log|V|) entries on average (§3.2's closing
	// observation): total entries ≈ N·L, so mean load ≈ L.
	h, ids, _ := randomHierarchy(300, 600, 110, 3)
	s := NewSelector(nil)
	table := s.BuildTable(h, ids)
	load := table.Load()
	total := 0
	max := 0
	for _, c := range load {
		total += c
		if c > max {
			max = c
		}
	}
	n := len(h.LevelNodes(0))
	meanLoad := float64(total) / float64(n)
	L := float64(h.L())
	if meanLoad < L*0.5 || meanLoad > L*1.5 {
		t.Fatalf("mean load %v vs L %v", meanLoad, L)
	}
	if float64(max) > 12*meanLoad {
		t.Fatalf("max load %d vs mean %v: inequitable", max, meanLoad)
	}
}

// TestUpdateTableMatchesBuildTable: the incremental update must be
// exactly equivalent to a full rebuild, across a sequence of perturbed
// topologies, for both hash families (Successor breaks distance ties
// by position) and both namings (under Passthrough a logical ID is a
// head ID, so it repeats across levels).
func TestUpdateTableMatchesBuildTable(t *testing.T) {
	const n = 140
	for _, hash := range []HashFamily{Rendezvous{}, Successor{IDSpace: n}} {
		for _, passthrough := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/passthrough=%v", hash.Name(), passthrough), func(t *testing.T) {
				tr := cluster.NewIdentityTracker()
				tr.Passthrough = passthrough
				checkUpdateMatchesBuild(t, NewSelector(hash), tr, n, 4, 25)
			})
		}
	}
}

// TestUpdateTableMatchesBuildTableSuccessorDrift runs the drift long
// enough for tracked logical IDs to outgrow IDSpace, so keys tie under
// Successor while clusters keep their key sets and reorder their
// members. These seeds reached such a tie when Successor broke ties by
// list position.
func TestUpdateTableMatchesBuildTableSuccessorDrift(t *testing.T) {
	const n = 140
	for _, seed := range []uint64{1, 15, 19, 32} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			checkUpdateMatchesBuild(t, NewSelector(Successor{IDSpace: n}), cluster.NewIdentityTracker(), n, seed, 150)
		})
	}
}

func checkUpdateMatchesBuild(t *testing.T, s *Selector, tr *cluster.IdentityTracker, n int, seed uint64, steps int) {
	t.Helper()
	src := rng.New(seed)
	d := geom.Disc{R: 430}
	pos := make([]geom.Vec, n)
	for i := range pos {
		pos[i] = d.Sample(src)
	}
	var prevH *cluster.Hierarchy
	var prevIDs *cluster.Identities
	var prevT *Table
	for step := 0; step < steps; step++ {
		g := topology.BuildUnitDiskBrute(pos, 100)
		h, ids := cluster.BuildWithIdentities(g, nodesUpTo(n), cluster.Config{}, prevH, prevIDs, tr, float64(step))
		var tbl *Table
		if prevH == nil {
			tbl = s.BuildTable(h, ids)
		} else {
			tbl = s.UpdateTable(prevT, prevH, prevIDs, h, ids)
		}
		want := s.BuildTable(h, ids)
		if diff := DiffTables(want, tbl); len(diff) != 0 {
			t.Fatalf("step %d: incremental table deviates: %+v", step, diff[0])
		}
		// BuildTable shares the update's row loop, so also hold the
		// incremental table against the independent ServerFor descent.
		for _, v := range h.LevelNodes(0) {
			L := tbl.Levels(v)
			for k := 1; k <= L+1; k++ {
				if got, ref := tbl.Server(v, k), s.ServerFor(h, ids, v, k); got != ref {
					t.Fatalf("step %d: (%d,%d) server %d, ServerFor %d", step, v, k, got, ref)
				}
			}
		}
		prevH, prevIDs, prevT = h, ids, tbl
		for i := range pos {
			pos[i] = d.Clamp(pos[i].Add(geom.Vec{X: src.Range(-20, 20), Y: src.Range(-20, 20)}))
		}
	}
}

func TestRelabelDoesNotMoveEntries(t *testing.T) {
	// The defining property of identity continuity: a clusterhead
	// change with identical membership produces zero table diff.
	//
	// Chain 1-2 with heads {2}; extend with node 9 adjacent to 2: the
	// cluster {1,2,9} relabels from head 2 to head 9... that changes
	// membership. Instead test: cluster {5,1} (head 5) where head
	// flips to a new max 9 replacing 5's role while the *other*
	// cluster {6,2} is untouched: entries of owners in {6,2} whose
	// servers live in their own cluster must not move.
	g1 := graphOf(10, [2]int{1, 5}, [2]int{2, 6}, [2]int{5, 6})
	h1, ids1, tr := tracked(g1, []int{1, 2, 5, 6})
	s := NewSelector(nil)
	t1 := s.BuildTable(h1, ids1)

	// Node 9 appears adjacent to 5 and 1: cluster {1,5,9} now led by 9
	// (relabel + one member added); cluster {2,6} untouched.
	g2 := graphOf(10, [2]int{1, 5}, [2]int{2, 6}, [2]int{5, 6}, [2]int{9, 5}, [2]int{9, 1}, [2]int{9, 6})
	h2, ids2 := cluster.BuildWithIdentities(g2, []int{1, 2, 5, 6, 9}, cluster.Config{}, h1, ids1, tr, 1)
	t2 := s.UpdateTable(t1, h1, ids1, h2, ids2)

	// The logical ID of the {1,5}-descended cluster must persist.
	old5, ok1 := ids1.Logical(1, 5)
	newHead := h2.Ancestor(1, 1)
	new9, ok2 := ids2.Logical(1, newHead)
	if !ok1 || !ok2 || old5 != new9 {
		t.Fatalf("cluster identity not carried: %v(%v) -> %v(%v)", old5, ok1, new9, ok2)
	}
	// Node 2's level-1 entry (inside the untouched cluster) stays put.
	if t1.Server(2, 1) != t2.Server(2, 1) {
		t.Fatalf("untouched cluster's entry moved: %d -> %d", t1.Server(2, 1), t2.Server(2, 1))
	}
}

func TestDiffTables(t *testing.T) {
	g1 := graphOf(8, [2]int{1, 5}, [2]int{2, 6})
	h1, ids1, tr := tracked(g1, []int{1, 2, 5, 6})
	s := NewSelector(nil)
	t1 := s.BuildTable(h1, ids1)
	if d := DiffTables(t1, t1); len(d) != 0 {
		t.Fatalf("self-diff = %v", d)
	}
	// Node 1 moves to 6's cluster.
	g2 := graphOf(8, [2]int{1, 6}, [2]int{2, 6}, [2]int{5, 6})
	h2, ids2 := cluster.BuildWithIdentities(g2, []int{1, 2, 5, 6}, cluster.Config{}, h1, ids1, tr, 1)
	t2 := s.BuildTable(h2, ids2)
	d := DiffTables(t1, t2)
	if len(d) == 0 {
		t.Fatal("no table diff after topology change")
	}
	for i := 1; i < len(d); i++ {
		if d[i-1].Owner > d[i].Owner ||
			(d[i-1].Owner == d[i].Owner && d[i-1].Level >= d[i].Level) {
			t.Fatal("diff not ordered")
		}
	}
}

// TestDiffTablesEdgeCases pins the diff semantics at the boundaries
// the accountant depends on: a nil previous table, owners joining and
// leaving the network, chain-depth changes, and the caller-owned
// buffer form reproducing the allocating one.
func TestDiffTablesEdgeCases(t *testing.T) {
	g1 := graphOf(8, [2]int{1, 5}, [2]int{2, 6})
	h1, ids1, tr := tracked(g1, []int{1, 2, 5, 6})
	s := NewSelector(nil)
	t1 := s.BuildTable(h1, ids1)

	// nil prev: every live entry appears exactly once, from nowhere.
	d := appendTableDiffs(nil, nil, t1)
	if len(d) != t1.EntryCount() {
		t.Fatalf("nil-prev diff has %d entries, table has %d", len(d), t1.EntryCount())
	}
	for _, td := range d {
		if td.OldServer != -1 || td.NewServer == -1 {
			t.Fatalf("nil-prev diff %+v should read -1 -> live", td)
		}
	}

	// Owner 2 leaves the network: all its entries retire to -1.
	g2 := graphOf(8, [2]int{1, 5})
	h2, ids2 := cluster.BuildWithIdentities(g2, []int{1, 5, 6}, cluster.Config{}, h1, ids1, tr, 1)
	t2 := s.BuildTable(h2, ids2)
	gone := 0
	for _, td := range DiffTables(t1, t2) {
		if td.Owner != 2 {
			continue
		}
		gone++
		if td.NewServer != -1 {
			t.Fatalf("departed owner still has a server: %+v", td)
		}
	}
	if gone == 0 {
		t.Fatal("departed owner produced no retirements")
	}
	// The reverse direction is the owner appearing: same entries, from -1.
	for _, td := range DiffTables(t2, t1) {
		if td.Owner == 2 && (td.OldServer != -1 || td.NewServer == -1) {
			t.Fatalf("appearing owner diff %+v should read -1 -> live", td)
		}
	}

	// Chain depth change: connecting the two clusters adds a level, so
	// the new top-level entries must appear as -1 -> live.
	g3 := graphOf(8, [2]int{1, 5}, [2]int{2, 6}, [2]int{5, 6})
	h3, ids3 := cluster.BuildWithIdentities(g3, []int{1, 2, 5, 6}, cluster.Config{}, h1, ids1, tr, 1)
	t3 := s.BuildTable(h3, ids3)
	if t3.Levels(1) <= t1.Levels(1) {
		t.Fatalf("merge did not deepen the hierarchy (%d vs %d levels)", t3.Levels(1), t1.Levels(1))
	}
	deeper := 0
	for _, td := range DiffTables(t1, t3) {
		if td.Level > t1.Levels(td.Owner) {
			deeper++
			if td.OldServer != -1 {
				t.Fatalf("new-depth diff %+v should come from -1", td)
			}
		}
	}
	if deeper == 0 {
		t.Fatal("no diffs at the new hierarchy depth")
	}

	// The buffer-reuse form must reproduce the allocating form exactly,
	// including after reuse with stale contents.
	want := DiffTables(t1, t3)
	out := appendTableDiffs(nil, t2, t1)
	out = appendTableDiffs(out[:0], t1, t3)
	if !slices.Equal(out, want) {
		t.Fatalf("reused-buffer diff deviates:\n got %+v\nwant %+v", out, want)
	}
}

// --- accountant tests ---

// evolve builds consecutive snapshots with identity tracking and runs
// the accountant between them.
func evolve(t *testing.T, nodes []int, g1, g2 *topology.Graph) (*Totals, []Transfer, *Table, *Table) {
	t.Helper()
	h1, ids1, tr := tracked(g1, nodes)
	h2, ids2 := cluster.BuildWithIdentities(g2, nodes, cluster.Config{}, h1, ids1, tr, 1)
	s := NewSelector(nil)
	t1 := s.BuildTable(h1, ids1)
	t2 := s.UpdateTable(t1, h1, ids1, h2, ids2)
	hop := topology.NewBFSHops(g2, 10)
	var totals Totals
	transfers := NewAccountant(hop).Apply(t1, t2, &totals)
	return &totals, transfers, t1, t2
}

func TestAccountantPureMigrationIsPhi(t *testing.T) {
	// Clusters {0,1,5} (head 5) and {2,6} (head 6), bridged 5-6. Node 1
	// migrates from 5's cluster to 6's: both clusters persist -> φ at
	// level 1 for node 1's level-1 entry.
	g1 := graphOf(8, [2]int{0, 5}, [2]int{1, 5}, [2]int{2, 6}, [2]int{5, 6})
	g2 := graphOf(8, [2]int{0, 5}, [2]int{1, 6}, [2]int{2, 6}, [2]int{5, 6})
	totals, transfers, _, _ := evolve(t, []int{0, 1, 2, 5, 6}, g1, g2)
	if len(transfers) == 0 {
		t.Fatal("no transfers for a migration")
	}
	foundPhi := false
	for _, tr := range transfers {
		if tr.Owner == 1 && tr.Level == 1 {
			if tr.Cause != CauseMigration {
				t.Fatalf("owner-1 transfer cause = %v", tr.Cause)
			}
			foundPhi = true
		}
	}
	if !foundPhi {
		t.Fatalf("no level-1 transfer for node 1: %+v", transfers)
	}
	if totals.PhiTotal() == 0 {
		t.Fatal("φ total is zero")
	}
	if totals.MigrationEvents[1] == 0 {
		t.Fatal("migration event not counted")
	}
}

func TestAccountantClusterDeathIsGamma(t *testing.T) {
	// Cluster {1,2} (head 2) dissolves when 1 and 2 both join 4's
	// cluster: node 1 and 2's level-1 entries move due to
	// reorganization, not migration (their old cluster died).
	g1 := graphOf(6, [2]int{1, 2}, [2]int{3, 4}, [2]int{2, 4})
	g2 := graphOf(6, [2]int{1, 4}, [2]int{3, 4}, [2]int{2, 4})
	totals, transfers, _, _ := evolve(t, []int{1, 2, 3, 4}, g1, g2)
	for _, tr := range transfers {
		if tr.Owner == 1 && tr.Level == 1 && tr.Cause == CauseMigration {
			t.Fatalf("cluster-death transfer classified as migration: %+v", tr)
		}
	}
	if totals.GammaTotal() == 0 && totals.RegTotal() == 0 {
		t.Fatal("no γ or registration despite cluster death")
	}
}

func TestAccountantInitialRegistration(t *testing.T) {
	// From an unclustered state, new levels appear: entries with
	// From == -1 are registration overhead, not φ/γ.
	g1 := graphOf(6)
	g2 := graphOf(6, [2]int{1, 2}, [2]int{2, 3})
	totals, transfers, _, _ := evolve(t, []int{1, 2, 3}, g1, g2)
	if len(transfers) == 0 {
		t.Fatal("no registrations for newly formed hierarchy")
	}
	for _, tr := range transfers {
		if tr.From != -1 || tr.Cause != CauseRegistration {
			t.Fatalf("expected initial registration, got %+v", tr)
		}
	}
	if totals.PhiTotal() != 0 || totals.GammaTotal() != 0 {
		t.Fatalf("registration leaked into handoff: φ=%v γ=%v", totals.PhiTotal(), totals.GammaTotal())
	}
	if totals.RegTotal() == 0 {
		t.Fatal("no registration packets counted")
	}
}

func TestAccountantRelabelCostsNothing(t *testing.T) {
	// Membership-preserving head change: no packets in any category.
	// {3,5} head 5 plus {2,6} head 6; then 5 is replaced by 9 at the
	// same spot (5 leaves, 9 arrives adjacent to 3)... that changes
	// membership. True relabel without membership change is impossible
	// under LCA (the head is a member), so test the weaker property:
	// the *other* cluster's owners see zero transfers.
	g1 := graphOf(12, [2]int{3, 5}, [2]int{2, 6}, [2]int{5, 6})
	g2 := graphOf(12, [2]int{3, 5}, [2]int{3, 9}, [2]int{5, 9}, [2]int{2, 6}, [2]int{5, 6}, [2]int{9, 6})
	_, transfers, _, _ := evolve(t, []int{2, 3, 5, 6, 9}, g1, g2)
	for _, tr := range transfers {
		if tr.Owner == 2 && tr.Level == 1 && tr.Packets > 0 {
			t.Fatalf("owner 2's intra-cluster entry moved on neighbor relabel: %+v", tr)
		}
	}
}

func TestTotalsGrowAndSum(t *testing.T) {
	var tot Totals
	tot.grow(3)
	tot.PhiPackets[1] = 2
	tot.PhiPackets[3] = 3
	tot.GammaPackets[2] = 5
	tot.RegPackets[1] = 7
	if tot.PhiTotal() != 5 || tot.GammaTotal() != 5 || tot.RegTotal() != 7 {
		t.Fatalf("totals: φ=%v γ=%v reg=%v", tot.PhiTotal(), tot.GammaTotal(), tot.RegTotal())
	}
	if tot.MaxLevel() != 3 {
		t.Fatalf("MaxLevel = %d", tot.MaxLevel())
	}
}

// --- classification tests (physical event classes, E10) ---

func TestClassifyMigrationLink(t *testing.T) {
	g1 := graphOf(8, [2]int{1, 5}, [2]int{2, 6})
	g2 := graphOf(8, [2]int{1, 5}, [2]int{2, 6}, [2]int{1, 2})
	h1 := plain(g1, []int{1, 2, 5, 6})
	h2 := plain(g2, []int{1, 2, 5, 6})
	d := cluster.ComputeDiff(h1, h2)
	cc := ClassifyReorg(h1, h2, d)
	if cc[1][EventLinkUp] != 1 {
		t.Fatalf("class i count = %d (%v)", cc[1][EventLinkUp], cc)
	}
	dRev := cluster.ComputeDiff(h2, h1)
	ccRev := ClassifyReorg(h2, h1, dRev)
	if ccRev[1][EventLinkDown] != 1 {
		t.Fatalf("class ii count = %d (%v)", ccRev[1][EventLinkDown], ccRev)
	}
}

func TestClassifyElectionAndRejection(t *testing.T) {
	g1 := graphOf(6, [2]int{1, 2}, [2]int{3, 4})
	g2 := graphOf(6, [2]int{1, 2}, [2]int{3, 4}, [2]int{1, 3})
	h1 := plain(g1, []int{1, 2, 3, 4})
	h2 := plain(g2, []int{1, 2, 3, 4})
	d := cluster.ComputeDiff(h1, h2)
	cc := ClassifyReorg(h1, h2, d)
	if cc[1][EventElection] == 0 {
		t.Fatalf("no class iii election: %v", cc)
	}
	dRev := cluster.ComputeDiff(h2, h1)
	ccRev := ClassifyReorg(h2, h1, dRev)
	if ccRev[1][EventRejection] == 0 {
		t.Fatalf("no class iv rejection: %v", ccRev)
	}
}

func TestClassCountsMergeAndTotal(t *testing.T) {
	a := ClassCounts{}
	a.add(1, EventElection, 2)
	b := ClassCounts{}
	b.add(1, EventElection, 3)
	b.add(2, EventLinkUp, 1)
	a.Merge(b)
	if a[1][EventElection] != 5 || a[2][EventLinkUp] != 1 {
		t.Fatalf("merge wrong: %v", a)
	}
	if a.Total() != 6 {
		t.Fatalf("total = %d", a.Total())
	}
}

func TestEventClassStrings(t *testing.T) {
	for _, c := range EventClasses() {
		if c.String() == "unknown" {
			t.Fatalf("class %d unnamed", c)
		}
	}
}

// --- query tests ---

func TestQueryResolvesAtCommonLevel(t *testing.T) {
	h, ids, g := randomHierarchy(200, 500, 110, 5)
	s := NewSelector(nil)
	hop := topology.NewBFSHops(g, 100)
	src := rng.New(6)
	nodes := h.LevelNodes(0)
	checked := 0
	for i := 0; i < 200; i++ {
		q := nodes[src.Intn(len(nodes))]
		d := nodes[src.Intn(len(nodes))]
		res := Query(s, h, ids, hop, q, d)
		cq := h.AncestorChain(q)
		cd := h.AncestorChain(d)
		common := -1
		for k := 1; k <= len(cq) && k <= len(cd); k++ {
			if cq[k-1] == cd[k-1] {
				common = k
				break
			}
		}
		if q == d {
			common = 0
		}
		if common == -1 {
			if res.Found {
				t.Fatalf("query across partitions succeeded: q=%d d=%d", q, d)
			}
			continue
		}
		if !res.Found {
			t.Fatalf("query failed though common level %d exists (q=%d d=%d)", common, q, d)
		}
		if res.Level != common {
			t.Fatalf("resolved at level %d, common level %d", res.Level, common)
		}
		if common > 0 && res.Server != s.ServerFor(h, ids, d, common) {
			t.Fatalf("answered by %d, real server %d", res.Server, s.ServerFor(h, ids, d, common))
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no connected pairs checked")
	}
}

func TestQuerySelf(t *testing.T) {
	h, ids, g := randomHierarchy(50, 300, 110, 7)
	s := NewSelector(nil)
	hop := topology.NewBFSHops(g, 100)
	res := Query(s, h, ids, hop, 3, 3)
	if !res.Found || res.Packets != 0 || res.Level != 0 {
		t.Fatalf("self query = %+v", res)
	}
}

func BenchmarkBuildTable300(b *testing.B) {
	h, ids, _ := randomHierarchy(300, 600, 110, 1)
	s := NewSelector(nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.BuildTable(h, ids)
	}
}

func BenchmarkUpdateTableSmallPerturbation(b *testing.B) {
	const n = 300
	src := rng.New(2)
	d := geom.Disc{R: 600}
	pos := make([]geom.Vec, n)
	for i := range pos {
		pos[i] = d.Sample(src)
	}
	g1 := topology.BuildUnitDiskBrute(pos, 110)
	h1, ids1, tr := tracked(g1, nodesUpTo(n))
	pos[7] = pos[7].Add(geom.Vec{X: 30, Y: 0})
	g2 := topology.BuildUnitDiskBrute(pos, 110)
	h2, ids2 := cluster.BuildWithIdentities(g2, nodesUpTo(n), cluster.Config{}, h1, ids1, tr, 1)
	s := NewSelector(nil)
	t1 := s.BuildTable(h1, ids1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.UpdateTable(t1, h1, ids1, h2, ids2)
	}
}
