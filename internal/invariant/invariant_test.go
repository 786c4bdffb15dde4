package invariant_test

import (
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/invariant"
	"repro/internal/lm"
	"repro/internal/obs"
	"repro/internal/topology"
)

// buildState constructs a full derived-state snapshot (hierarchy,
// identities, LM table) over the given edge list.
func buildState(t *testing.T, n int, edges [][2]int) (*invariant.State, *lm.Selector) {
	t.Helper()
	g := topology.NewGraph(n)
	for _, e := range edges {
		g.AddEdge(e[0], e[1])
	}
	nodes := make([]int, n)
	for i := range nodes {
		nodes[i] = i
	}
	tracker := cluster.NewIdentityTracker()
	h, ids := cluster.BuildWithIdentities(
		g, topology.GiantComponent(g, nodes), cluster.Config{}, nil, nil, tracker, 0)
	sel := lm.NewSelector(nil)
	return &invariant.State{Hier: h, IDs: ids, Table: sel.BuildTable(h, ids)}, sel
}

// twoCliques is a 8-node topology with two 4-cliques and a bridge —
// small but deep enough to elect two levels.
func twoCliques(t *testing.T) (*invariant.State, *lm.Selector) {
	t.Helper()
	edges := [][2]int{
		{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3},
		{4, 5}, {4, 6}, {4, 7}, {5, 6}, {5, 7}, {6, 7},
		{3, 7},
	}
	return buildState(t, 8, edges)
}

func snapshotOf(st *invariant.State, sel *lm.Selector) *invariant.Snapshot {
	return &invariant.Snapshot{Tick: 1, Time: 1, Seed: 42, Next: st, Selector: sel}
}

// checkNames runs the catalog over s and returns the names of the
// checks that fired.
func checkNames(s *invariant.Snapshot) []string {
	var fired []string
	c := invariant.New(invariant.EveryTick, nil, func(v invariant.Violation) {
		fired = append(fired, v.Check)
	})
	c.CheckTick(s)
	return fired
}

func assertFired(t *testing.T, s *invariant.Snapshot, want string) {
	t.Helper()
	fired := checkNames(s)
	for _, name := range fired {
		if name == want {
			return
		}
	}
	t.Errorf("mutation not caught by %q (fired: %v)", want, fired)
}

func TestCleanStatePasses(t *testing.T) {
	st, sel := twoCliques(t)
	if fired := checkNames(snapshotOf(st, sel)); len(fired) != 0 {
		t.Fatalf("clean state flagged by %v", fired)
	}
	// And with an identical prev snapshot plus its (empty) diff.
	s := snapshotOf(st, sel)
	s.Prev = st
	s.Diff = cluster.ComputeDiff(st.Hier, st.Hier)
	if fired := checkNames(s); len(fired) != 0 {
		t.Fatalf("clean prev/next pair flagged by %v", fired)
	}
}

// TestEachCheckFires corrupts the snapshot one structure at a time and
// asserts the matching check (and not silence) reports it.
func TestEachCheckFires(t *testing.T) {
	t.Run("partition-missing-member", func(t *testing.T) {
		st, sel := twoCliques(t)
		st.Hier.Levels[0].Member[2] = -1
		assertFired(t, snapshotOf(st, sel), "hierarchy-partition")
	})
	t.Run("partition-wrong-cluster", func(t *testing.T) {
		st, sel := twoCliques(t)
		lvl0 := st.Hier.Levels[0]
		// Reassign a node in Member without touching Members.
		lvl0.Member[0] = int32(st.Hier.Levels[1].Nodes[len(st.Hier.Levels[1].Nodes)-1])
		assertFired(t, snapshotOf(st, sel), "hierarchy-partition")
	})
	t.Run("partition-head-not-own-cluster", func(t *testing.T) {
		st, sel := twoCliques(t)
		lvl1 := st.Hier.Levels[1]
		head, other := lvl1.Nodes[0], lvl1.Nodes[len(lvl1.Nodes)-1]
		// Move the head itself into another cluster, keeping the
		// partition otherwise consistent.
		moveMember(st.Hier.Levels[0], head, other)
		assertFired(t, snapshotOf(st, sel), "hierarchy-partition")
	})
	t.Run("reach-detached-member", func(t *testing.T) {
		// Two triangles bridged through a chain: pick a non-head node
		// and claim it is a member of a head it is not adjacent to,
		// keeping the partition itself valid.
		edges := [][2]int{
			{0, 1}, {0, 2}, {1, 2},
			{3, 4}, {3, 5}, {4, 5},
			{2, 5}, {5, 8}, {8, 9},
		}
		st, sel := buildState(t, 10, edges)
		lvl0 := st.Hier.Levels[0]
		victim, far := -1, -1
		for _, v := range lvl0.Nodes {
			if lvl0.MemberOf(v) == v {
				continue // head; moving it breaks the partition instead
			}
			for _, c := range st.Hier.Levels[1].Nodes {
				if c != lvl0.MemberOf(v) && !lvl0.Graph.HasEdge(v, c) {
					victim, far = v, c
				}
			}
		}
		if victim < 0 {
			t.Fatal("no non-head node with a non-adjacent foreign head")
		}
		moveMember(lvl0, victim, far)
		assertFired(t, snapshotOf(st, sel), "hierarchy-reach")
	})
	t.Run("alca-state-count", func(t *testing.T) {
		st, sel := twoCliques(t)
		head := st.Hier.Levels[1].Nodes[0]
		st.Hier.Levels[0].State[head]++
		assertFired(t, snapshotOf(st, sel), "alca-state")
	})
	t.Run("alca-unit-step", func(t *testing.T) {
		prev, sel := twoCliques(t)
		next, _ := twoCliques(t)
		// Forge the prev head state without any elector flip backing
		// it: the Head maps are identical across the tick, so the
		// decomposition (delta == gained - lost electors) must reject
		// the phantom state change. Only the cross-snapshot half of
		// alca-state can see this — next alone is self-consistent.
		head := prev.Hier.Levels[1].Nodes[0]
		prev.Hier.Levels[0].State[head]--
		s := snapshotOf(next, sel)
		s.Prev = prev
		s.Diff = cluster.ComputeDiff(prev.Hier, next.Hier)
		assertFired(t, s, "alca-state")
	})
	t.Run("diff-nodes-spurious-election", func(t *testing.T) {
		st, sel := twoCliques(t)
		s := snapshotOf(st, sel)
		s.Prev = st
		d := cluster.ComputeDiff(st.Hier, st.Hier)
		d.Elections = map[int][]int{1: {99}}
		s.Diff = d
		assertFired(t, s, "diff-reconcile-nodes")
	})
	t.Run("diff-links-missing-event", func(t *testing.T) {
		prev, sel := twoCliques(t)
		next, _ := buildState(t, 8, [][2]int{
			{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3},
			{4, 5}, {4, 6}, {4, 7}, {5, 6}, {5, 7}, {6, 7},
			{3, 7}, {2, 6}, // extra bridge changes the level-1 graph
		})
		s := snapshotOf(next, sel)
		s.Prev = prev
		d := cluster.ComputeDiff(prev.Hier, next.Hier)
		d.MigrationLinkEvents = map[int][]topology.LinkEvent{}
		d.StructuralLinkEvents = map[int][]topology.LinkEvent{}
		s.Diff = d
		if prevG, nextG := prev.Hier.Levels[1].Graph, next.Hier.Levels[1].Graph; prevG.Equal(nextG) {
			t.Skip("level-1 graphs identical; topology change did not propagate")
		}
		assertFired(t, s, "diff-reconcile-links")
	})
	t.Run("diff-members-dropped", func(t *testing.T) {
		prev, sel := twoCliques(t)
		next, _ := buildState(t, 8, [][2]int{
			{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3},
			{4, 5}, {4, 6}, {4, 7}, {5, 6}, {5, 7}, {6, 7},
			{2, 7}, {3, 7},
		})
		s := snapshotOf(next, sel)
		s.Prev = prev
		d := cluster.ComputeDiff(prev.Hier, next.Hier)
		if len(d.Memberships) == 0 {
			t.Skip("topology change produced no membership events")
		}
		d.Memberships = d.Memberships[:len(d.Memberships)-1]
		s.Diff = d
		assertFired(t, s, "diff-reconcile-members")
	})
	t.Run("diff-state-forged", func(t *testing.T) {
		st, sel := twoCliques(t)
		s := snapshotOf(st, sel)
		s.Prev = st
		d := cluster.ComputeDiff(st.Hier, st.Hier)
		head := st.Hier.Levels[1].Nodes[0]
		d.StateDeltas = append(d.StateDeltas, cluster.StateDelta{Level: 0, Node: head, Old: 1, New: 2})
		s.Diff = d
		assertFired(t, s, "diff-reconcile-state")
	})
	t.Run("table-misrouted-entry", func(t *testing.T) {
		st, sel := twoCliques(t)
		if !st.Table.CorruptServer(5) {
			t.Fatal("CorruptServer found nothing to corrupt")
		}
		assertFired(t, snapshotOf(st, sel), "table-rebuild-equal")
	})
	t.Run("table-missing-owner", func(t *testing.T) {
		st, sel := twoCliques(t)
		// Swap in a table built over a hierarchy missing one clique:
		// the owner set no longer matches the hierarchy's level 0.
		g := topology.NewGraph(8)
		for _, e := range [][2]int{{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}} {
			g.AddEdge(e[0], e[1])
		}
		small, smallIDs := cluster.BuildWithIdentities(
			g, topology.GiantComponent(g, []int{0, 1, 2, 3}), cluster.Config{},
			nil, nil, cluster.NewIdentityTracker(), 0)
		st.Table = sel.BuildTable(small, smallIDs)
		assertFired(t, snapshotOf(st, sel), "table-owners")
	})
}

// TestCheckPanicIsViolation pins runCheck's recover: a check that
// panics on unreachably corrupt state (here a nil hierarchy) reports a
// violation rather than crashing the harness.
func TestCheckPanicIsViolation(t *testing.T) {
	st, sel := twoCliques(t)
	st.Hier = nil
	var details []string
	c := invariant.New(invariant.EveryTick, nil, func(v invariant.Violation) {
		details = append(details, v.Detail)
	})
	if n := c.CheckTick(snapshotOf(st, sel)); n == 0 {
		t.Fatal("nil hierarchy produced no violations")
	}
	panicked := false
	for _, d := range details {
		if strings.Contains(d, "check panicked") {
			panicked = true
		}
	}
	if !panicked {
		t.Errorf("no check reported a recovered panic: %v", details)
	}
}

func TestParseLevelRoundTrip(t *testing.T) {
	for _, l := range []invariant.Level{invariant.Off, invariant.Sampled, invariant.EveryTick} {
		got, err := invariant.ParseLevel(l.String())
		if err != nil || got != l {
			t.Errorf("ParseLevel(%q) = %v, %v", l.String(), got, err)
		}
	}
	if got, err := invariant.ParseLevel(""); err != nil || got != invariant.Off {
		t.Errorf("ParseLevel(\"\") = %v, %v; want Off", got, err)
	}
	if _, err := invariant.ParseLevel("banana"); err == nil {
		t.Error("ParseLevel accepted an unknown level")
	}
}

func TestShouldCheckCadence(t *testing.T) {
	every := invariant.New(invariant.EveryTick, nil, func(invariant.Violation) {})
	sampled := invariant.New(invariant.Sampled, nil, func(invariant.Violation) {})
	var off *invariant.Checker
	for tick := 0; tick < 40; tick++ {
		if !every.ShouldCheck(tick) {
			t.Fatalf("every-tick skipped tick %d", tick)
		}
		if off.ShouldCheck(tick) {
			t.Fatalf("nil checker wants tick %d", tick)
		}
		if got, want := sampled.ShouldCheck(tick), tick%16 == 1; got != want {
			t.Fatalf("sampled at tick %d = %v, want %v", tick, got, want)
		}
	}
	if invariant.New(invariant.Off, nil, nil) != nil {
		t.Error("New(Off) should return nil")
	}
}

func TestViolationCountersAndDump(t *testing.T) {
	st, sel := twoCliques(t)
	st.Table.CorruptServer(3)
	reg := obs.NewRegistry()
	var got invariant.Violation
	c := invariant.New(invariant.EveryTick, reg, func(v invariant.Violation) { got = v })
	if n := c.CheckTick(snapshotOf(st, sel)); n == 0 {
		t.Fatal("corrupt table produced no violations")
	}
	snap := reg.Snapshot()
	if snap.Counters[obs.InvariantTicksChecked] != 1 {
		t.Errorf("ticks_checked = %d, want 1", snap.Counters[obs.InvariantTicksChecked])
	}
	if snap.Counters[obs.InvariantViolations] == 0 {
		t.Error("violations counter not incremented")
	}
	if got.Tick != 1 || got.Seed != 42 {
		t.Errorf("violation context = tick %d seed %d, want tick 1 seed 42", got.Tick, got.Seed)
	}
	if !strings.Contains(got.Dump, "next:") || !strings.Contains(got.Dump, "table:") {
		t.Errorf("dump missing sections:\n%s", got.Dump)
	}
	if !strings.Contains(got.Error(), "table-rebuild-equal") {
		t.Errorf("Error() does not name the check: %s", got.Error())
	}
}

// moveMember reassigns node v to cluster dst in both Member and
// Members, keeping the partition structurally valid so only the reach
// check can object.
func moveMember(lvl *cluster.Level, v, dst int) {
	old := lvl.Member[v]
	lvl.Member[v] = int32(dst)
	src := lvl.Members[old]
	for i, u := range src {
		if u == v {
			lvl.Members[old] = append(src[:i], src[i+1:]...)
			break
		}
	}
	members := append([]int(nil), lvl.Members[dst]...)
	members = append(members, v)
	for i := len(members) - 1; i > 0 && members[i] < members[i-1]; i-- {
		members[i], members[i-1] = members[i-1], members[i]
	}
	lvl.Members[dst] = members
}
