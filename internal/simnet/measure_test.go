package simnet

import (
	"slices"
	"testing"

	"repro/internal/cluster"
	"repro/internal/lm"
)

// refClusterLinkEvents is countClusterLinkEvents recomputing both
// sides from scratch on every call, in fresh maps: the reference the
// carried measurement sets must reproduce. It adds the counts to acc
// and returns it.
func refClusterLinkEvents(
	acc []int64,
	prevH *cluster.Hierarchy, prevIDs *cluster.Identities,
	nextH *cluster.Hierarchy, nextIDs *cluster.Identities,
	prevT, nextT *lm.Table,
) []int64 {
	for k := 1; k <= max(prevH.L(), nextH.L()); k++ {
		pe := cluster.LogicalEdges(prevH, prevIDs, k)
		ne := cluster.LogicalEdges(nextH, nextIDs, k)
		if len(pe) == 0 && len(ne) == 0 {
			continue
		}
		prevLive, nextLive := prevT.LiveAt(k), nextT.LiveAt(k)
		persists := func(e cluster.LogicalEdge) bool {
			return prevLive[e.A] && prevLive[e.B] && nextLive[e.A] && nextLive[e.B]
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

// TestClusterLinkEventsCarryMatchesRecompute pins the carry-over of
// countClusterLinkEvents' measurement sets: after every measured tick
// the per-level migration link counts must equal those of the
// recompute-both-sides reference, and the sets just built for the
// live snapshot must be the ones the next tick carries, so that only
// the first measured tick builds a previous side.
func TestClusterLinkEventsCarryMatchesRecompute(t *testing.T) {
	cfg, lp := carryConfig(t, 5)
	defer lp.close()
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
		if !lp.st.meas[0].holds(lp.hier, lp.idents, lp.table) {
			t.Fatalf("tick %d: the live snapshot's sets are not carried to the next tick", lp.tick)
		}
	}
	if !grew || !shrank {
		t.Fatalf("hierarchy depth never changed both ways between measured ticks (grew %v, shrank %v)", grew, shrank)
	}
	if slices.Max(want) == 0 {
		t.Fatal("no migration link event was counted")
	}
}

// TestClusterLinkEventsUnchainedCalls: when consecutive calls do not
// chain (the previous snapshot is not the last call's next one), the
// previous side must be rebuilt, not carried. Two runs step in
// lockstep and one accumulator is fed their tick pairs alternately.
func TestClusterLinkEventsUnchainedCalls(t *testing.T) {
	cfg, a := carryConfig(t, 5)
	defer a.close()
	_, b := carryConfig(t, 6)
	defer b.close()
	st := newStateRun(cfg, cfg.Region())
	var want []int64
	for now := cfg.ScanInterval; now <= 40; now += cfg.ScanInterval {
		for _, lp := range []*looper{a, b} {
			prevH, prevIDs, prevT := lp.hier, lp.idents, lp.table
			lp.step(now)
			st.countClusterLinkEvents(prevH, prevIDs, lp.hier, lp.idents, prevT, lp.table)
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
