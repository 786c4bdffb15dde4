package simnet

import (
	"math"
	"strings"
	"testing"

	"repro/internal/cluster"
)

// feq compares defaulted config floats exactly: defaults are assigned,
// not computed, so any drift is a bug.
func feq(a, b float64) bool { return math.Abs(a-b) == 0 }

func TestWithDefaults(t *testing.T) {
	cases := []struct {
		name string
		in   Config
		want func(t *testing.T, c Config)
	}{
		{"all zero fields take defaults", Config{N: 64}, func(t *testing.T, c Config) {
			if !feq(c.RTX, 100) {
				t.Errorf("RTX = %v, want 100", c.RTX)
			}
			if !feq(c.Degree, 9) {
				t.Errorf("Degree = %v, want 9", c.Degree)
			}
			if !feq(c.Mu, 10) {
				t.Errorf("Mu = %v, want 10", c.Mu)
			}
			if !feq(c.ScanInterval, 1) { // min(1, 0.1·100/10)
				t.Errorf("ScanInterval = %v, want 1", c.ScanInterval)
			}
			if !feq(c.Duration, 300) {
				t.Errorf("Duration = %v, want 300", c.Duration)
			}
			if !feq(c.Warmup, 60) {
				t.Errorf("Warmup = %v, want 60", c.Warmup)
			}
			if c.Mobility != MobilityWaypoint {
				t.Errorf("Mobility = %q, want waypoint", c.Mobility)
			}
			if c.HopModel != HopEuclidean {
				t.Errorf("HopModel = %q, want euclid", c.HopModel)
			}
			if !feq(c.Detour, 1.3) {
				t.Errorf("Detour = %v, want 1.3", c.Detour)
			}
			if c.Hash == nil {
				t.Error("Hash not defaulted")
			}
			if c.HopPairs != 64 {
				t.Errorf("HopPairs = %v, want 64", c.HopPairs)
			}
			if c.TopArity != 12 {
				t.Errorf("TopArity = %v, want 12", c.TopArity)
			}
			if !feq(c.MeanDowntime, 30) {
				t.Errorf("MeanDowntime = %v, want 30", c.MeanDowntime)
			}
		}},
		{"positive values kept", Config{N: 64, RTX: 50, Degree: 6, Mu: 2, ScanInterval: 0.5,
			Duration: 10, Warmup: 5, Detour: 2, MeanDowntime: 7}, func(t *testing.T, c Config) {
			for _, x := range []struct {
				name      string
				got, want float64
			}{
				{"RTX", c.RTX, 50}, {"Degree", c.Degree, 6}, {"Mu", c.Mu, 2},
				{"ScanInterval", c.ScanInterval, 0.5}, {"Duration", c.Duration, 10},
				{"Warmup", c.Warmup, 5}, {"Detour", c.Detour, 2},
				{"MeanDowntime", c.MeanDowntime, 7},
			} {
				if !feq(x.got, x.want) {
					t.Errorf("%s = %v, want %v", x.name, x.got, x.want)
				}
			}
		}},
		{"negative sentinel means exactly zero", Config{N: 64, Warmup: -1, Mu: -1}, func(t *testing.T, c Config) {
			if !feq(c.Warmup, 0) {
				t.Errorf("Warmup = %v, want 0 (explicit -1)", c.Warmup)
			}
			if !feq(c.Mu, 0) {
				t.Errorf("Mu = %v, want 0 (explicit -1)", c.Mu)
			}
		}},
		{"scan interval tracks speed", Config{N: 64, Mu: 50}, func(t *testing.T, c Config) {
			// 0.1·RTX/Mu = 0.1·100/50 = 0.2 < 1 s cap.
			if !feq(c.ScanInterval, 0.2) {
				t.Errorf("ScanInterval = %v, want 0.2", c.ScanInterval)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) { tc.want(t, tc.in.withDefaults()) })
	}
}

func TestValidateRejectsExplicitZeros(t *testing.T) {
	cases := []struct {
		name    string
		in      Config
		wantErr string // substring of the validation error; "" = valid
	}{
		{"defaults valid", Config{N: 64}, ""},
		{"explicit zero RTX", Config{N: 64, RTX: -1}, "RTX"},
		{"explicit zero Degree", Config{N: 64, Degree: -1}, "Degree"},
		{"explicit zero ScanInterval", Config{N: 64, ScanInterval: -1}, "ScanInterval"},
		{"explicit zero Duration", Config{N: 64, Duration: -1}, "Duration"},
		{"explicit zero Detour", Config{N: 64, Detour: -1}, "Detour"},
		{"no warmup is fine", Config{N: 64, Warmup: -1}, ""},
		{"zero speed needs static model", Config{N: 64, Mu: -1}, "Mu"},
		{"zero speed static ok", Config{N: 64, Mu: -1, Mobility: MobilityStatic}, ""},
		{"zero detour with BFS hops ok", Config{N: 64, Detour: -1, HopModel: HopBFS}, ""},
		{"churn needs downtime", Config{N: 64, ChurnRate: 0.01, MeanDowntime: -1}, "MeanDowntime"},
		{"N too small", Config{N: 1}, "N"},
		{"negative SampleHops", Config{N: 64, SampleHops: -1}, "SampleHops"},
		{"negative HopPairs", Config{N: 64, SampleHops: 5, HopPairs: -1}, "HopPairs"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.in.withDefaults().validate()
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("config accepted, want error mentioning %q", tc.wantErr)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not mention %q", err, tc.wantErr)
			}
		})
	}
}

// TestSteadyStateTickAllocs pins the allocation budget of one
// steady-state scan tick; it is the repository's allocation gate, with
// one leg per path the tick can take. Before the double-buffered
// scratch path this was ~24k allocations per tick at N=512; the
// reusable buffers leave only the elector's per-level head maps, a few
// closures and occasional adjacency regrowth. Measured per tick on Go
// 1.24/linux-amd64 at N=256, under a budget of 64: oracle 32, churn
// 32, log-shadow links 49, sticky elector 34,
// debounced elector 37-38 and hop sampling every tick 32. The N=2048
// leg measures 295 under a budget of 384; most of it is adjacency
// regrowth in liftGraph's BuildFromSortedEdgesInto and in
// buildLinksInto. Each budget catches a regression to per-tick
// rebuilds of any one structure; the hop leg catches per-sample
// descendant lists (thousands per tick).
func TestSteadyStateTickAllocs(t *testing.T) {
	cases := []struct {
		name   string
		cfg    Config
		budget float64
	}{
		{"oracle", Config{N: 256}, 64},
		{"churn", Config{N: 256, ChurnRate: 60.0 / 3600}, 64},
		{"logshadow", Config{N: 256, Link: LinkLogShadow}, 64},
		{"sticky", Config{N: 256, Elector: cluster.StickyLCA{}}, 64},
		{"debounced", Config{N: 256, Elector: &cluster.DebouncedLCA{Grace: 10, LevelScale: 1.9}}, 64},
		{"hops", Config{N: 256, SampleHops: 1}, 64},
		{"tracked-stats", Config{N: 256, TrackStates: true, TrackClasses: true}, 64},
		{"n2048", Config{N: 2048}, 384},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if tc.cfg.N > 256 && testing.Short() {
				t.Skip("N=2048 leg skipped under -short")
			}
			cfg := tc.cfg
			cfg.Seed, cfg.Warmup = 7, -1
			cfg = cfg.withDefaults()
			if err := cfg.validate(); err != nil {
				t.Fatal(err)
			}
			lp, err := setupRun(cfg)
			if err != nil {
				t.Fatal(err)
			}
			now := 0.0
			step := func() {
				now += cfg.ScanInterval
				lp.step(now)
			}
			// Let pooled capacities reach steady state first.
			for i := 0; i < 30; i++ {
				step()
			}
			avg := testing.AllocsPerRun(20, step)
			if avg > tc.budget {
				t.Fatalf("steady-state tick allocates %.0f times, budget %.0f", avg, tc.budget)
			}
			t.Logf("steady-state tick: %.1f allocs (budget %.0f)", avg, tc.budget)
		})
	}
}
