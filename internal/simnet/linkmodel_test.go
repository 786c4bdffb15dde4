package simnet_test

import (
	"bytes"
	"testing"

	"repro/internal/simnet"
)

// TestLinkConfigValidation: the link knob rejects unknown values and
// accepts both registered models by name (empty defaults to unitdisk).
func TestLinkConfigValidation(t *testing.T) {
	cfg := simnet.Config{N: 8, Duration: 2, Warmup: -1, Link: "freespace"}
	if _, err := simnet.Run(cfg); err == nil {
		t.Fatal("unknown link model accepted")
	}
	for _, l := range []string{"", simnet.LinkUnitDisk, simnet.LinkLogShadow} {
		cfg := simnet.Config{N: 8, Duration: 2, Warmup: -1, Link: l}
		if _, err := simnet.Run(cfg); err != nil {
			t.Fatalf("link %q rejected: %v", l, err)
		}
	}
	cfg = simnet.Config{N: 8, Duration: 2, Warmup: -1, PathLossExp: -1}
	if _, err := simnet.Run(cfg); err == nil {
		t.Fatal("negative path-loss exponent accepted")
	}
}

// TestLogShadowScanBattery runs the lossy link model with every-tick
// invariant checks across the mobility zoo, and pins the repeat-run
// byte-identity the determinism contract demands of a stateful link
// model.
func TestLogShadowScanBattery(t *testing.T) {
	for _, mob := range simnet.MobilityModels() {
		mob := mob
		t.Run(mob, func(t *testing.T) {
			cfg := simnet.Config{
				N: 44, Seed: 41, Duration: 12, Warmup: 3,
				Mobility: mob, Link: simnet.LinkLogShadow,
				CheckLevel: "every-tick",
			}
			firstRes, firstTrace := marshalRun(t, cfg)
			if len(firstTrace) == 0 {
				t.Fatal("trace output is empty; comparison is vacuous")
			}
			// Repeat run: a stateful link model must still be a pure
			// function of (config, seed).
			againRes, againTrace := marshalRun(t, cfg)
			if !bytes.Equal(firstRes, againRes) || !bytes.Equal(firstTrace, againTrace) {
				t.Error("repeat run diverged: logshadow state is not seed-deterministic")
			}
		})
	}
}

// TestLogShadowDiffersFromUnitDisk is the sanity complement to the
// equivalence suite: with default shadowing the lossy radio must
// actually change the topology relative to unit disk (same seed), or
// every Z1 "logshadow" cell silently measures the wrong model.
func TestLogShadowDiffersFromUnitDisk(t *testing.T) {
	base := simnet.Config{N: 44, Seed: 47, Duration: 12, Warmup: 3}
	_, udTrace := marshalRun(t, base)
	lossy := base
	lossy.Link = simnet.LinkLogShadow
	_, lsTrace := marshalRun(t, lossy)
	if bytes.Equal(udTrace, lsTrace) {
		t.Fatal("logshadow trace is identical to unitdisk: shadowing had no effect")
	}
}
