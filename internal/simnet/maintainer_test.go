package simnet_test

import (
	"bytes"
	"testing"

	"repro/internal/cluster"
	"repro/internal/simnet"
)

// TestIncrementalMatchesOracle is the end-to-end equivalence contract
// of Config.Maintainer: for every scenario — elector variants, churn,
// forced top, static networks — and across serial and parallel
// execution, the incremental (delta-patched) maintainer must produce
// byte-identical Results (minus Config) and a byte-identical per-tick
// trace to the oracle full rebuild. The serial leg runs with
// every-tick invariant checks so the incremental-hierarchy-equal
// oracle differential stays hot throughout the run; the other leg
// pins the same bytes without rechecking.
func TestIncrementalMatchesOracle(t *testing.T) {
	cases := []struct {
		name string
		cfg  simnet.Config
	}{
		{"base", simnet.Config{
			N: 48, Seed: 7, Duration: 15, Warmup: 4,
		}},
		{"sticky", simnet.Config{
			N: 48, Seed: 11, Duration: 15, Warmup: 4,
			Elector: cluster.StickyLCA{},
		}},
		{"debounced", simnet.Config{
			N: 48, Seed: 13, Duration: 15, Warmup: 4,
			Elector: &cluster.DebouncedLCA{Grace: 2.5, LevelScale: 1.9},
		}},
		{"churn", simnet.Config{
			N: 48, Seed: 17, Duration: 15, Warmup: 4,
			ChurnRate: 0.02, MeanDowntime: 8,
		}},
		{"forced-top", simnet.Config{
			N: 48, Seed: 19, Duration: 15, Warmup: 4,
			TopArity: 4,
		}},
		{"static", simnet.Config{
			N: 40, Seed: 23, Duration: 10, Warmup: 2,
			Mobility: simnet.MobilityStatic,
		}},
		{"tiny", simnet.Config{
			N: 5, Seed: 2, Duration: 12, Warmup: 3,
		}},
		{"gauss-markov", simnet.Config{
			N: 44, Seed: 29, Duration: 15, Warmup: 4,
			Mobility: simnet.MobilityGaussMarkov,
		}},
		{"manhattan", simnet.Config{
			N: 44, Seed: 31, Duration: 15, Warmup: 4,
			Mobility: simnet.MobilityManhattan,
		}},
		{"hotspot", simnet.Config{
			N: 44, Seed: 37, Duration: 15, Warmup: 4,
			Mobility: simnet.MobilityHotspot,
		}},
	}
	legs := []struct {
		name    string
		workers int
		check   bool
	}{
		{"serial-scan", 0, true},
		{"par-scan", 3, false},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			oracleRes, oracleTrace := marshalRun(t, tc.cfg)
			if len(oracleTrace) == 0 {
				t.Fatal("trace output is empty; comparison is vacuous")
			}
			for _, leg := range legs {
				leg := leg
				t.Run(leg.name, func(t *testing.T) {
					cfg := tc.cfg
					cfg.Maintainer = simnet.MaintainerIncremental
					cfg.IntraTickParallelism = leg.workers
					if leg.check {
						cfg.CheckLevel = "every-tick"
					}
					incRes, incTrace := marshalRun(t, cfg)
					if !bytes.Equal(oracleRes, incRes) {
						t.Errorf("incremental results differ from oracle:\noracle:      %s\nincremental: %s",
							oracleRes, incRes)
					}
					if !bytes.Equal(oracleTrace, incTrace) {
						t.Errorf("incremental trace differs from oracle")
					}
				})
			}
		})
	}
}

// TestMaintainerConfigValidation: the maintainer knob rejects unknown
// values and accepts the two strategies by name (empty defaults to
// oracle).
func TestMaintainerConfigValidation(t *testing.T) {
	cfg := simnet.Config{N: 8, Duration: 2, Warmup: -1, Maintainer: "psychic"}
	if _, err := simnet.Run(cfg); err == nil {
		t.Fatal("unknown maintainer accepted")
	}
	for _, m := range []string{"", simnet.MaintainerOracle, simnet.MaintainerIncremental} {
		cfg := simnet.Config{N: 8, Duration: 2, Warmup: -1, Maintainer: m}
		if _, err := simnet.Run(cfg); err != nil {
			t.Fatalf("maintainer %q rejected: %v", m, err)
		}
	}
}
