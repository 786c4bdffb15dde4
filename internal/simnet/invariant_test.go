package simnet_test

import (
	"testing"

	"repro/internal/invariant"
	"repro/internal/obs"
	"repro/internal/simnet"
)

// runWithChecks runs cfg with its CheckLevel (every-tick when unset),
// collecting violations instead of panicking, and returns them
// alongside the registry snapshot.
func runWithChecks(t *testing.T, cfg simnet.Config) ([]invariant.Violation, obs.Snapshot) {
	t.Helper()
	var violations []invariant.Violation
	reg := obs.NewRegistry()
	if cfg.CheckLevel == "" {
		cfg.CheckLevel = invariant.LevelEveryTick
	}
	cfg.OnViolation = func(v invariant.Violation) {
		if len(violations) < 8 {
			violations = append(violations, v)
		}
	}
	cfg.Metrics = reg
	if _, err := simnet.Run(cfg); err != nil {
		t.Fatalf("Run: %v", err)
	}
	return violations, reg.Snapshot()
}

// TestInvariantsCleanScenarios runs every-tick checks over a spread of
// configurations and requires zero violations — the harness must not
// cry wolf on healthy runs.
func TestInvariantsCleanScenarios(t *testing.T) {
	cases := []struct {
		name string
		cfg  simnet.Config
	}{
		{"base", simnet.Config{N: 48, Seed: 7, Duration: 15, Warmup: 4}},
		{"churn", simnet.Config{N: 48, Seed: 11, Duration: 15, Warmup: 4,
			ChurnRate: 0.02, MeanDowntime: 8}},
		{"bfs-hops", simnet.Config{N: 48, Seed: 5, Duration: 12, Warmup: 3,
			HopModel: simnet.HopBFS, SampleHops: 2, HopPairs: 16}},
		{"static", simnet.Config{N: 40, Seed: 13, Duration: 10, Warmup: 2,
			Mobility: simnet.MobilityStatic}},
		{"naive-naming", simnet.Config{N: 40, Seed: 9, Duration: 12, Warmup: 3,
			NaiveNaming: true}},
		{"no-top-cap", simnet.Config{N: 48, Seed: 3, Duration: 12, Warmup: 3,
			TopArity: -1}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			violations, snap := runWithChecks(t, tc.cfg)
			for _, v := range violations {
				t.Errorf("%v", v)
			}
			if got := snap.Counters[obs.InvariantTicksChecked]; got == 0 {
				t.Fatalf("checker never ran (ticks_checked = 0)")
			}
			if got := snap.Counters[obs.InvariantViolations]; got != int64(len(violations)) {
				t.Errorf("violation counter %d does not match %d reported", got, len(violations))
			}
		})
	}
}

// TestInvariantsDefaultScenarioEveryTick is the acceptance run: the
// default lmsim scenario (N=256, 300 s measured, 60 s warmup, seed 1)
// with every-tick checks must produce zero violations.
func TestInvariantsDefaultScenarioEveryTick(t *testing.T) {
	cfg := simnet.Config{N: 256, Seed: 1, Duration: 300, Warmup: 60}
	if testing.Short() {
		cfg.Duration, cfg.Warmup = 30, 6
	}
	violations, snap := runWithChecks(t, cfg)
	for _, v := range violations {
		t.Errorf("%v", v)
	}
	if got := snap.Counters[obs.InvariantTicksChecked]; got == 0 {
		t.Fatalf("checker never ran (ticks_checked = 0)")
	}
}

// TestInvariantsSampledMode checks the sampled cadence: roughly one
// tick in sixteen is audited, and the default scenario stays clean.
func TestInvariantsSampledMode(t *testing.T) {
	reg := obs.NewRegistry()
	cfg := simnet.Config{
		N: 48, Seed: 7, Duration: 32, Warmup: -1,
		ScanInterval: 1,
		CheckLevel:   invariant.LevelSampled,
		Metrics:      reg,
	}
	if _, err := simnet.Run(cfg); err != nil {
		t.Fatalf("Run: %v", err)
	}
	snap := reg.Snapshot()
	checked := snap.Counters[obs.InvariantTicksChecked]
	if checked != 2 { // ticks 1 and 17 of 32
		t.Errorf("sampled mode checked %d ticks, want 2", checked)
	}
	if v := snap.Counters[obs.InvariantViolations]; v != 0 {
		t.Errorf("sampled run found %d violations, want 0", v)
	}
}

// TestInvariantsLargeNSampled runs sampled invariant checks beyond the
// sizes the other scenarios use: the paper's waypoint/unit-disk setting
// at N=4096 and N=8192, and Gauss-Markov motion over log-shadow links
// with node churn at N=4096, each for 10 s of warmup and 20 s
// measured.
func TestInvariantsLargeNSampled(t *testing.T) {
	if testing.Short() {
		t.Skip("N >= 4096 runs; skipped under -short")
	}
	cases := []struct {
		name string
		cfg  simnet.Config
	}{
		{"waypoint-unitdisk/n4096", simnet.Config{N: 4096}},
		{"waypoint-unitdisk/n8192", simnet.Config{N: 8192}},
		{"gaussmarkov-logshadow-churn/n4096", simnet.Config{N: 4096,
			Mobility: simnet.MobilityGaussMarkov, Link: simnet.LinkLogShadow,
			ChurnRate: 60.0 / 3600}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			cfg.Seed, cfg.Warmup, cfg.Duration = 1, 10, 20
			cfg.CheckLevel = invariant.LevelSampled
			violations, snap := runWithChecks(t, cfg)
			for _, v := range violations {
				t.Errorf("%v", v)
			}
			if got := snap.Counters[obs.InvariantTicksChecked]; got == 0 {
				t.Fatal("checker never ran (ticks_checked = 0)")
			}
		})
	}
}

// TestSeededFaultCaught proves the harness catches an intentionally
// injected handoff bug: a periodically misrouted table entry must be
// flagged by the rebuild differential at exactly the injection ticks.
func TestSeededFaultCaught(t *testing.T) {
	var violations []invariant.Violation
	cfg := simnet.Config{
		N: 48, Seed: 7, Duration: 45, Warmup: -1,
		ScanInterval: 1,
		CheckLevel:   invariant.LevelEveryTick,
		Fault:        simnet.FaultHandoffMisroute,
		OnViolation: func(v invariant.Violation) {
			violations = append(violations, v)
		},
	}
	if _, err := simnet.Run(cfg); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(violations) == 0 {
		t.Fatal("seeded handoff fault produced no violations")
	}
	for _, v := range violations {
		if v.Check != "table-rebuild-equal" {
			t.Errorf("fault flagged by %q at tick %d, want table-rebuild-equal", v.Check, v.Tick)
		}
		if v.Tick%37 != 0 {
			t.Errorf("violation at tick %d, want a multiple of the injection period 37", v.Tick)
		}
		if v.Seed != cfg.Seed {
			t.Errorf("violation seed %d, want %d", v.Seed, cfg.Seed)
		}
		if v.Dump == "" {
			t.Error("violation carries no state dump")
		}
	}
}

// TestViolationPanicsWithoutCallback pins the default delivery: with
// no OnViolation callback, the first violation panics with the full
// Violation value.
func TestViolationPanicsWithoutCallback(t *testing.T) {
	cfg := simnet.Config{
		N: 48, Seed: 7, Duration: 45, Warmup: -1,
		ScanInterval: 1,
		CheckLevel:   invariant.LevelEveryTick,
		Fault:        simnet.FaultHandoffMisroute,
	}
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected a panic from the unhandled violation")
		}
		v, ok := r.(invariant.Violation)
		if !ok {
			t.Fatalf("panic value %T, want invariant.Violation", r)
		}
		if v.Check != "table-rebuild-equal" {
			t.Errorf("panicked on %q, want table-rebuild-equal", v.Check)
		}
	}()
	_, _ = simnet.Run(cfg)
}

// TestCheckLevelValidation pins config handling of the knob.
func TestCheckLevelValidation(t *testing.T) {
	if _, err := simnet.Run(simnet.Config{N: 8, Duration: 1, Warmup: -1, CheckLevel: "bogus"}); err == nil {
		t.Error("bogus CheckLevel accepted")
	}
	if _, err := simnet.Run(simnet.Config{N: 8, Duration: 1, Warmup: -1, Fault: "bogus"}); err == nil {
		t.Error("bogus Fault accepted")
	}
}
