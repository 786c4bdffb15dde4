package simnet

import (
	"slices"
	"testing"

	"repro/internal/cluster"
	"repro/internal/lm"
)

// logicalEdge is an undirected level-k cluster adjacency in logical ID
// space (a < b).
type logicalEdge struct{ a, b uint64 }

// logicalEdges returns the level-k cluster adjacencies of h under ids
// as a set.
func logicalEdges(h *cluster.Hierarchy, ids *cluster.Identities, k int) map[logicalEdge]bool {
	out := map[logicalEdge]bool{}
	if lvl := h.Level(k); lvl != nil {
		for _, e := range lvl.Graph.Edges() {
			pa, pb := e.Nodes()
			a, okA := ids.Logical(k, pa)
			b, okB := ids.Logical(k, pb)
			if okA && okB {
				out[logicalEdge{min(a, b), max(a, b)}] = true
			}
		}
	}
	return out
}

// refClusterLinkEvents is countClusterLinkEvents in logical-ID space:
// edge sets keyed by logical ID, and the clusters live on both sides
// read off the two LM tables' chains, in fresh maps on every call. It
// adds the counts to acc and returns it.
func refClusterLinkEvents(
	acc []int64,
	prevH *cluster.Hierarchy, prevIDs *cluster.Identities,
	nextH *cluster.Hierarchy, nextIDs *cluster.Identities,
	prevT, nextT *lm.Table,
) []int64 {
	for k := 1; k <= max(prevH.L(), nextH.L()); k++ {
		pe := logicalEdges(prevH, prevIDs, k)
		ne := logicalEdges(nextH, nextIDs, k)
		if len(pe) == 0 && len(ne) == 0 {
			continue
		}
		prevLive, nextLive := prevT.LiveAt(k), nextT.LiveAt(k)
		persists := func(e logicalEdge) bool {
			return prevLive[e.a] && prevLive[e.b] && nextLive[e.a] && nextLive[e.b]
		}
		count := int64(0)
		for e := range pe {
			if _, ok := ne[e]; !ok && persists(e) {
				count++
			}
		}
		for e := range ne {
			if _, ok := pe[e]; !ok && persists(e) {
				count++
			}
		}
		for len(acc) <= k {
			acc = append(acc, 0)
		}
		acc[k] += count
	}
	return acc
}

// carryConfig is a small run whose hierarchy depth both grows and
// shrinks between ticks (an uncapped top, so the election alone sets
// the depth) and whose warmup makes the first measured tick a later
// tick.
func carryConfig(t *testing.T, seed uint64) (Config, *looper) {
	t.Helper()
	cfg := Config{N: 96, Seed: seed, Warmup: 4, Duration: 120, Mu: 25, TopArity: -1}.withDefaults()
	if err := cfg.validate(); err != nil {
		t.Fatal(err)
	}
	lp, err := setupRun(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return cfg, lp
}

// TestClusterLinkEventsCarryMatchesRecompute: after every measured
// tick the per-level migration link counts the run carries must equal
// those of the logical-ID reference, through ticks where the hierarchy
// depth grows and shrinks.
func TestClusterLinkEventsCarryMatchesRecompute(t *testing.T) {
	cfg, lp := carryConfig(t, 5)
	var want []int64
	grew, shrank := false, false
	now, measured := 0.0, 0
	for now+cfg.ScanInterval <= cfg.Warmup+cfg.Duration {
		prevH, prevIDs, prevT := lp.hier, lp.idents, lp.table
		now += cfg.ScanInterval
		lp.step(now)
		if now <= cfg.Warmup {
			continue
		}
		if measured == 0 && lp.tick == 1 {
			t.Fatal("the first measured tick is the run's first tick")
		}
		if measured > 0 {
			grew = grew || lp.hier.L() > prevH.L()
			shrank = shrank || lp.hier.L() < prevH.L()
		}
		measured++
		want = refClusterLinkEvents(want, prevH, prevIDs, lp.hier, lp.idents, prevT, lp.table)
		if !slices.Equal(lp.st.migLinkEvents, want) {
			t.Fatalf("tick %d (L %d -> %d): migration link events %v, recomputed %v",
				lp.tick, prevH.L(), lp.hier.L(), lp.st.migLinkEvents, want)
		}
	}
	if !grew || !shrank {
		t.Fatalf("hierarchy depth never changed both ways between measured ticks (grew %v, shrank %v)", grew, shrank)
	}
	if slices.Max(want) == 0 {
		t.Fatal("no migration link event was counted")
	}
}

// TestClusterLinkEventsUnchainedCalls: a call depends on its own tick
// pair only, not on the previous call's. Two runs step in lockstep and
// one accumulator is fed their tick pairs alternately.
func TestClusterLinkEventsUnchainedCalls(t *testing.T) {
	cfg, a := carryConfig(t, 5)
	_, b := carryConfig(t, 6)
	st := newStateRun(cfg, cfg.Region())
	var want []int64
	for now := cfg.ScanInterval; now <= 40; now += cfg.ScanInterval {
		for _, lp := range []*looper{a, b} {
			prevH, prevIDs, prevT := lp.hier, lp.idents, lp.table
			lp.step(now)
			st.countClusterLinkEvents(prevH, prevIDs, lp.hier, lp.idents)
			want = refClusterLinkEvents(want, prevH, prevIDs, lp.hier, lp.idents, prevT, lp.table)
			if !slices.Equal(st.migLinkEvents, want) {
				t.Fatalf("t=%v: migration link events %v, recomputed %v", now, st.migLinkEvents, want)
			}
		}
	}
	if slices.Max(want) == 0 {
		t.Fatal("no migration link event was counted")
	}
}
