package simnet

import (
	"testing"

	"repro/internal/cluster"
)

func TestNaiveNamingInflatesOverhead(t *testing.T) {
	base := Config{N: 100, Seed: 11, Duration: 60, Warmup: 15}
	withIDs, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	naive := base
	naive.NaiveNaming = true
	without, err := Run(naive)
	if err != nil {
		t.Fatal(err)
	}
	// Head-ID naming re-homes subtrees on every relabel: strictly more
	// handoff traffic (ablation A4's mechanism).
	if without.GammaRate <= withIDs.GammaRate {
		t.Fatalf("naive naming γ %v not above logical-ID γ %v",
			without.GammaRate, withIDs.GammaRate)
	}
}

func TestUncappedTopRuns(t *testing.T) {
	cfg := Config{N: 100, Seed: 12, Duration: 40, Warmup: 10, TopArity: -1, CheckLevel: "every-tick"}
	r, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.TotalRate() <= 0 {
		t.Fatal("no overhead")
	}
}

func TestForcedTopReducesDepth(t *testing.T) {
	base := Config{N: 150, Seed: 13, Duration: 40, Warmup: 10}
	capped, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	un := base
	un.TopArity = -1
	uncapped, err := Run(un)
	if err != nil {
		t.Fatal(err)
	}
	if capped.MeanLevels > uncapped.MeanLevels {
		t.Fatalf("forced top deepened hierarchy: %v vs %v",
			capped.MeanLevels, uncapped.MeanLevels)
	}
}

func TestDebouncedElectorReducesChurn(t *testing.T) {
	base := Config{N: 120, Seed: 14, Duration: 60, Warmup: 15}
	lit, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	deb := base
	deb.Elector = cluster.NewDebouncedLCA(15)
	stab, err := Run(deb)
	if err != nil {
		t.Fatal(err)
	}
	if stab.GammaRate >= lit.GammaRate {
		t.Fatalf("debounced γ %v not below memoryless γ %v", stab.GammaRate, lit.GammaRate)
	}
}

func TestUpdateRateAccounted(t *testing.T) {
	r, err := Run(Config{N: 100, Seed: 15, Duration: 40, Warmup: 10})
	if err != nil {
		t.Fatal(err)
	}
	// Mobile nodes change clusters, so owner-driven location updates
	// ([17]) must be non-zero and per-level rates must sum to the total.
	if r.UpdateRate <= 0 {
		t.Fatal("no location-update traffic under mobility")
	}
	var sum float64
	for _, v := range r.UpdateRateByLevel {
		sum += v
	}
	if diff := sum - r.UpdateRate; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("per-level update rates sum %v != total %v", sum, r.UpdateRate)
	}
}

func TestDeterminismIncludesNewCounters(t *testing.T) {
	run := func() *Results {
		r, err := Run(Config{N: 80, Seed: 16, Duration: 30, Warmup: 10})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	a, b := run(), run()
	if a.UpdateRate != b.UpdateRate || a.RegRate != b.RegRate {
		t.Fatalf("registration counters not deterministic: %v/%v %v/%v",
			a.UpdateRate, b.UpdateRate, a.RegRate, b.RegRate)
	}
}

func TestChurnProducesDeathsAndRegistrations(t *testing.T) {
	base := Config{N: 100, Seed: 21, Duration: 60, Warmup: 15}
	calm, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	if calm.DeathRate != 0 {
		t.Fatalf("deaths without churn: %v", calm.DeathRate)
	}
	churny := base
	churny.ChurnRate = 0.01 // ~36 deaths/node/hour
	r, err := Run(churny)
	if err != nil {
		t.Fatal(err)
	}
	if r.DeathRate <= 0 {
		t.Fatal("no deaths under churn")
	}
	// Measured death rate within a factor of the configured rate.
	if r.DeathRate < churny.ChurnRate/4 || r.DeathRate > churny.ChurnRate*4 {
		t.Fatalf("death rate %v far from configured %v", r.DeathRate, churny.ChurnRate)
	}
	// Returning nodes re-register: registration traffic rises.
	if r.RegRate <= calm.RegRate {
		t.Fatalf("churn registration %v not above baseline %v", r.RegRate, calm.RegRate)
	}
}

func TestChurnDeterminism(t *testing.T) {
	cfg := Config{N: 80, Seed: 22, Duration: 30, Warmup: 10, ChurnRate: 0.02}
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.DeathRate != b.DeathRate || a.TotalRate() != b.TotalRate() {
		t.Fatal("churn not deterministic")
	}
}
