package simnet_test

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/obs"
	"repro/internal/simnet"
	"repro/internal/trace"
)

// marshalRunWithMetrics mirrors marshalRun (par_test.go) with an
// optional metrics registry attached to the config.
func marshalRunWithMetrics(t *testing.T, cfg simnet.Config, reg *obs.Registry) (resultsJSON, traceOut []byte) {
	t.Helper()
	var buf bytes.Buffer
	tr := trace.New(&buf)
	cfg.Observer = tr.Observer()
	cfg.Metrics = reg
	r, err := simnet.Run(cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if err := tr.Close(); err != nil {
		t.Fatalf("trace close: %v", err)
	}
	data, err := json.Marshal(struct {
		*simnet.Results
		Config struct{}
	}{Results: r})
	if err != nil {
		t.Fatalf("marshal results: %v", err)
	}
	return data, buf.Bytes()
}

// TestMetricsDoNotPerturbResults is the obs determinism contract: a
// run with a metrics registry attached must produce byte-identical
// Results and per-tick traces to the same run without one.
func TestMetricsDoNotPerturbResults(t *testing.T) {
	cfg := simnet.Config{
		N: 48, Seed: 7, Duration: 15, Warmup: 4,
		SampleHops: 3, HopPairs: 8,
		TrackStates: true, TrackClasses: true,
	}
	plainRes, plainTrace := marshalRunWithMetrics(t, cfg, nil)
	if len(plainTrace) == 0 {
		t.Fatal("trace output is empty; comparison is vacuous")
	}
	obsRes, obsTrace := marshalRunWithMetrics(t, cfg, obs.NewRegistry())
	if !bytes.Equal(plainRes, obsRes) {
		t.Errorf("results differ with metrics on:\noff: %s\non:  %s", plainRes, obsRes)
	}
	if !bytes.Equal(plainTrace, obsTrace) {
		t.Error("traces differ with metrics on")
	}
}

// TestPhaseTimersCoverTick checks the phase accounting is coherent:
// every phase fires once per (applicable) tick, and the disjoint
// sub-phase spans nest inside the tick span, so their wall-time totals
// sum to at most — and in practice almost exactly — the tick total.
func TestPhaseTimersCoverTick(t *testing.T) {
	reg := obs.NewRegistry()
	cfg := simnet.Config{
		N: 48, Seed: 3, Duration: 12, Warmup: 3,
		SampleHops: 2, HopPairs: 8,
		Metrics:  reg,
		Observer: func(simnet.ObsEvent) {},
	}
	r, err := simnet.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()

	tick := snap.Phases[obs.PhaseTick]
	if tick.Count == 0 || tick.Seconds <= 0 {
		t.Fatalf("tick phase not recorded: %+v", tick)
	}
	if got := snap.Counters["sim.ticks"]; got != tick.Count {
		t.Errorf("sim.ticks = %d, tick spans = %d", got, tick.Count)
	}
	if got := snap.Counters["sim.measured_ticks"]; got != int64(r.Ticks) {
		t.Errorf("sim.measured_ticks = %d, Results.Ticks = %d", got, r.Ticks)
	}

	perTick := []string{
		obs.PhaseAdvance, obs.PhaseRebuild, obs.PhaseCluster,
		obs.PhaseDiff, obs.PhaseLMUpdate, obs.PhaseObserver,
	}
	var sub float64
	for _, name := range perTick {
		ps, ok := snap.Phases[name]
		if !ok {
			t.Fatalf("phase %s missing from snapshot", name)
		}
		if ps.Count != tick.Count {
			t.Errorf("phase %s count = %d, want %d", name, ps.Count, tick.Count)
		}
		sub += ps.Seconds
	}
	if ps := snap.Phases[obs.PhaseMeasure]; ps.Count != int64(r.Ticks) {
		t.Errorf("measure count = %d, want %d", ps.Count, r.Ticks)
	}
	sub += snap.Phases[obs.PhaseMeasure].Seconds
	if ps, ok := snap.Phases[obs.PhaseHops]; !ok || ps.Count == 0 {
		t.Errorf("hop sampling phase not recorded: %+v", ps)
	}
	sub += snap.Phases[obs.PhaseHops].Seconds

	// Sub-spans nest strictly inside the tick span; allow a sliver of
	// slack for float accumulation.
	if sub > tick.Seconds*1.001 {
		t.Errorf("sub-phase total %.6fs exceeds tick total %.6fs", sub, tick.Seconds)
	}
	// The sub-phases bracket everything substantive in the loop; if
	// they cover less than half the tick the instrumentation has a
	// hole (generous bound to stay robust on loaded CI machines).
	if sub < tick.Seconds*0.5 {
		t.Errorf("sub-phase total %.6fs covers <50%% of tick total %.6fs", sub, tick.Seconds)
	}
	if snap.Gauges["sim.levels"] <= 0 {
		t.Errorf("sim.levels gauge = %v", snap.Gauges["sim.levels"])
	}
}

// TestLMWorkCounters checks the LM update's work counters: every tick
// hashes at least one candidate per Select.
func TestLMWorkCounters(t *testing.T) {
	reg := obs.NewRegistry()
	cfg := simnet.Config{N: 96, Seed: 5, Duration: 10, Warmup: 2, Metrics: reg}
	if _, err := simnet.Run(cfg); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	selects, hashes := snap.Counters["lm.selects"], snap.Counters["lm.hashes"]
	if selects <= 0 || hashes < selects {
		t.Fatalf("lm.selects = %d, lm.hashes = %d", selects, hashes)
	}
}
