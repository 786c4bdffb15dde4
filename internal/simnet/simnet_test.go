package simnet

import (
	"math"
	"testing"

	"repro/internal/cluster"
)

func quickCfg(n int, seed uint64) Config {
	return Config{
		N: n, Seed: seed,
		Duration:   40,
		Warmup:     10,
		CheckLevel: "every-tick",
	}
}

func TestRunBasic(t *testing.T) {
	r, err := Run(quickCfg(80, 1))
	if err != nil {
		t.Fatal(err)
	}
	if r.Ticks == 0 {
		t.Fatal("no measured ticks")
	}
	if r.TotalRate() <= 0 {
		t.Fatal("zero handoff overhead in a mobile network")
	}
	if r.MeanLevels < 1 {
		t.Fatalf("mean levels = %v", r.MeanLevels)
	}
	if r.GiantFraction <= 0.5 {
		t.Fatalf("giant fraction = %v; network too sparse", r.GiantFraction)
	}
	if r.F0 <= 0 {
		t.Fatal("no level-0 link events under mobility")
	}
	if s := r.Summary(); len(s) == 0 {
		t.Fatal("empty summary")
	}
}

func TestRunDeterminism(t *testing.T) {
	a, err := Run(quickCfg(60, 7))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(quickCfg(60, 7))
	if err != nil {
		t.Fatal(err)
	}
	if a.PhiRate != b.PhiRate || a.GammaRate != b.GammaRate || a.F0 != b.F0 {
		t.Fatalf("non-deterministic: φ %v/%v γ %v/%v f0 %v/%v",
			a.PhiRate, b.PhiRate, a.GammaRate, b.GammaRate, a.F0, b.F0)
	}
}

func TestRunSeedsDiffer(t *testing.T) {
	a, _ := Run(quickCfg(60, 1))
	b, _ := Run(quickCfg(60, 2))
	if a.PhiRate == b.PhiRate && a.GammaRate == b.GammaRate && a.F0 == b.F0 {
		t.Fatal("different seeds produced identical measurements")
	}
}

func TestStaticNetworkHasNoHandoff(t *testing.T) {
	cfg := quickCfg(80, 3)
	cfg.Mobility = MobilityStatic
	r, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.TotalRate() != 0 {
		t.Fatalf("static network produced overhead %v", r.TotalRate())
	}
	if r.F0 != 0 {
		t.Fatalf("static network produced link events: f0 = %v", r.F0)
	}
}

func TestRandomDirectionModelRuns(t *testing.T) {
	cfg := quickCfg(60, 4)
	cfg.Mobility = MobilityDirection
	r, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.TotalRate() <= 0 {
		t.Fatal("no overhead under random direction")
	}
}

func TestBFSHopModelRuns(t *testing.T) {
	cfg := quickCfg(50, 5)
	cfg.HopModel = HopBFS
	r, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.TotalRate() <= 0 {
		t.Fatal("no overhead with BFS hop model")
	}
}

func TestTrackStatesAndClasses(t *testing.T) {
	cfg := quickCfg(80, 6)
	cfg.TrackStates = true
	cfg.TrackClasses = true
	// Fig. 3's adjacent-transition property is an infinitesimal-interval
	// statement; sample finely enough that per-tick movement is ~2% of
	// R_TX (experiment E3 sweeps this interval explicitly).
	cfg.ScanInterval = 0.2
	r, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.States.Samples() == 0 {
		t.Fatal("no state samples collected")
	}
	if p, n := r.States.P1(1); n == 0 || p <= 0 || p >= 1 {
		t.Fatalf("P1(1) = %v over %d obs", p, n)
	}
	frac, total := r.States.UnitTransitionFraction()
	if total == 0 {
		t.Fatal("no state transitions observed")
	}
	// Fig. 3 premise: with a fine scan interval, transitions are
	// mostly unit steps.
	if frac < 0.8 {
		t.Fatalf("unit transition fraction = %v", frac)
	}
	if r.Classes.Total() == 0 {
		t.Fatal("no reorg triggers classified")
	}
}

func TestHopSampling(t *testing.T) {
	cfg := quickCfg(100, 7)
	cfg.SampleHops = 10
	r, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.HopMeanByLevel) < 2 || r.HopMeanByLevel[1] <= 0 {
		t.Fatalf("hop means = %v", r.HopMeanByLevel)
	}
	// h_k grows with level.
	for k := 2; k < len(r.HopMeanByLevel); k++ {
		if r.HopMeanByLevel[k] != 0 && r.HopMeanByLevel[k] < r.HopMeanByLevel[1]*0.8 {
			t.Fatalf("h_%d = %v < h_1 = %v", k, r.HopMeanByLevel[k], r.HopMeanByLevel[1])
		}
	}
}

func TestAlphaAndStructure(t *testing.T) {
	r, err := Run(quickCfg(150, 8))
	if err != nil {
		t.Fatal(err)
	}
	// |V_k| decreasing in k.
	for k := 1; k < len(r.NodesByLevel); k++ {
		if r.NodesByLevel[k] >= r.NodesByLevel[k-1] {
			t.Fatalf("|V_%d| = %v >= |V_%d| = %v", k, r.NodesByLevel[k], k-1, r.NodesByLevel[k-1])
		}
		if r.AlphaByLevel[k] <= 1 {
			t.Fatalf("alpha_%d = %v", k, r.AlphaByLevel[k])
		}
	}
}

func TestObserverInvoked(t *testing.T) {
	cfg := quickCfg(40, 9)
	count := 0
	var lastT float64
	cfg.Observer = func(ev ObsEvent) {
		count++
		if ev.Time <= lastT {
			t.Fatalf("observer times not increasing: %v after %v", ev.Time, lastT)
		}
		lastT = ev.Time
		if ev.Hierarchy == nil || ev.Diff == nil || len(ev.Positions) != 40 {
			t.Fatal("observer payload incomplete")
		}
	}
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	want := int(math.Round((cfg.Warmup + cfg.Duration) / 1.0)) // scan interval defaults to 1s here
	if count < want-2 || count > want+2 {
		t.Fatalf("observer called %d times, want ~%d", count, want)
	}
}

func TestStickyElectorReducesReorg(t *testing.T) {
	base := quickCfg(100, 10)
	base.Duration = 60
	r1, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	sticky := base
	sticky.Elector = cluster.StickyLCA{}
	r2, err := Run(sticky)
	if err != nil {
		t.Fatal(err)
	}
	// Hysteresis must not increase reorganization churn.
	if r2.GammaEntryRate > r1.GammaEntryRate*1.1 {
		t.Fatalf("sticky γ entry rate %v vs memoryless %v", r2.GammaEntryRate, r1.GammaEntryRate)
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := Run(Config{N: 1}); err == nil {
		t.Fatal("N=1 accepted")
	}
	if _, err := Run(Config{N: 50, Mobility: "bogus"}); err == nil {
		t.Fatal("bogus mobility accepted")
	}
	if _, err := Run(Config{N: 50, HopModel: "bogus"}); err == nil {
		t.Fatal("bogus hop model accepted")
	}
}
