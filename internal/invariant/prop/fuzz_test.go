package prop

import (
	"os"
	"testing"

	"repro/internal/simnet"
)

// FuzzScenario is the property-based fuzz target: arbitrary bytes
// become a scenario (FromParams), which must run with no panic and no
// every-tick invariant check firing. The f.Add seeds cover the base,
// churn, tracking and hop-sampling runs plus the known-tricky
// degenerate configs; `go test` replays
// them (and testdata/fuzz, once the fuzzer has found anything)
// deterministically in tier-1, and `make fuzz` explores from there.
//
// On failure the scenario is shrunk to a minimal reproduction; set
// MANET_FUZZ_FAILURES to a directory to also persist it as a corpus
// file (the nightly CI job uploads that directory as an artifact).
func FuzzScenario(f *testing.F) {
	// Param order: seed, n, mobility, hop, degree, speed, churn,
	// topArity, ticks, elector, flags, link.
	f.Add(uint64(7), uint16(47), uint8(0), uint8(0), uint8(12), uint8(9), uint8(0), uint8(0), uint8(8), uint8(0), uint8(0), uint8(0))  // base waypoint run
	f.Add(uint64(11), uint16(47), uint8(0), uint8(0), uint8(12), uint8(9), uint8(1), uint8(0), uint8(8), uint8(0), uint8(0), uint8(0)) // churn
	f.Add(uint64(3), uint16(45), uint8(0), uint8(0), uint8(12), uint8(9), uint8(0), uint8(0), uint8(8), uint8(0), uint8(3), uint8(0))  // state+class tracking
	f.Add(uint64(5), uint16(47), uint8(0), uint8(1), uint8(9), uint8(9), uint8(0), uint8(0), uint8(8), uint8(0), uint8(16), uint8(0))  // BFS hop sampling
	f.Add(uint64(2), uint16(4), uint8(0), uint8(0), uint8(12), uint8(9), uint8(0), uint8(0), uint8(8), uint8(0), uint8(16), uint8(0))  // tiny N
	f.Add(uint64(1), uint16(0), uint8(0), uint8(0), uint8(12), uint8(9), uint8(0), uint8(0), uint8(8), uint8(0), uint8(0), uint8(0))   // N=1 (config rejection)
	f.Add(uint64(9), uint16(22), uint8(0), uint8(0), uint8(12), uint8(9), uint8(0), uint8(0), uint8(8), uint8(0), uint8(4), uint8(0))  // all nodes colocated
	f.Add(uint64(13), uint16(30), uint8(2), uint8(0), uint8(12), uint8(9), uint8(0), uint8(0), uint8(8), uint8(0), uint8(0), uint8(0)) // zero mobility
	f.Add(uint64(17), uint16(39), uint8(1), uint8(0), uint8(5), uint8(4), uint8(0), uint8(1), uint8(20), uint8(2), uint8(0), uint8(0)) // debounced elector, no top cap
	f.Add(uint64(19), uint16(43), uint8(4), uint8(0), uint8(12), uint8(9), uint8(0), uint8(0), uint8(8), uint8(0), uint8(0), uint8(0)) // Gauss–Markov mobility
	f.Add(uint64(23), uint16(41), uint8(5), uint8(0), uint8(12), uint8(9), uint8(0), uint8(0), uint8(8), uint8(0), uint8(0), uint8(0)) // Manhattan mobility
	f.Add(uint64(29), uint16(44), uint8(6), uint8(0), uint8(12), uint8(9), uint8(0), uint8(0), uint8(8), uint8(0), uint8(0), uint8(0)) // hotspot mobility
	f.Add(uint64(31), uint16(46), uint8(0), uint8(0), uint8(12), uint8(9), uint8(0), uint8(0), uint8(8), uint8(0), uint8(0), uint8(1)) // logshadow link (scan-only)

	f.Fuzz(func(t *testing.T, seed uint64, n uint16, mobility, hop, degree, speed, churn, topArity, ticks, elector, flags, link uint8) {
		sc := FromParams(seed, n, mobility, hop, degree, speed, churn, topArity, ticks, elector, flags, link)
		fail := CheckScenario(sc)
		if fail == nil {
			return
		}
		shrunk := Shrink(fail)
		if dir := os.Getenv("MANET_FUZZ_FAILURES"); dir != "" {
			if path, err := WriteRepro(dir, shrunk); err != nil {
				t.Logf("could not persist repro: %v", err)
			} else {
				t.Logf("shrunk repro written to %s", path)
			}
		}
		t.Fatalf("%v", shrunk)
	})
}

// TestRegressionCorpusReplays replays testdata/regress in tier-1: the
// base, churn, tracking and hop-sampling runs plus the degenerate
// configs, each pinned
// to its expected outcome (all currently healthy — any Failure the
// fuzzer finds lands here via WriteRepro and stays as a regression).
func TestRegressionCorpusReplays(t *testing.T) {
	corpus, err := ReadCorpus("testdata/regress")
	if err != nil {
		t.Fatalf("ReadCorpus: %v", err)
	}
	if len(corpus) < 8 {
		t.Fatalf("regression corpus has %d entries, want >= 8", len(corpus))
	}
	names := make([]string, 0, len(corpus))
	for name := range corpus {
		names = append(names, name)
	}
	for _, name := range names {
		r := corpus[name]
		t.Run(name, func(t *testing.T) {
			fail := CheckScenario(r.Scenario)
			if r.Kind == "" {
				if fail != nil {
					t.Fatalf("pinned-healthy scenario now fails: %v", fail)
				}
				return
			}
			if fail == nil {
				t.Fatalf("pinned failure %s/%s no longer reproduces", r.Kind, r.Check)
			}
			if fail.Kind != r.Kind {
				t.Errorf("failure kind %q, corpus pins %q", fail.Kind, r.Kind)
			}
			if r.Check != "" && fail.Check != r.Check {
				t.Errorf("failed check %q, corpus pins %q", fail.Check, r.Check)
			}
		})
	}
}

// TestSeededFaultCaughtAndShrunk is the end-to-end acceptance
// demonstration: an intentionally seeded handoff bug (a periodically
// misrouted table entry) must be caught by the invariant battery,
// shrunk to a <= 200-tick reproduction, persisted, and replayed from
// the corpus file.
func TestSeededFaultCaughtAndShrunk(t *testing.T) {
	sc := Scenario{
		Seed: 7, N: 48, Ticks: 160,
		Fault: simnet.FaultHandoffMisroute,
	}
	fail := CheckScenario(sc)
	if fail == nil {
		t.Fatal("seeded handoff fault not caught")
	}
	if fail.Kind != KindViolation || fail.Check != "table-rebuild-equal" {
		t.Fatalf("fault caught as %s/%s, want violation/table-rebuild-equal", fail.Kind, fail.Check)
	}

	shrunk := Shrink(fail)
	if shrunk.Scenario.Ticks > 200 {
		t.Errorf("shrunk reproduction needs %d ticks, want <= 200", shrunk.Scenario.Ticks)
	}
	if shrunk.Scenario.N > sc.N {
		t.Errorf("shrinking grew N to %d", shrunk.Scenario.N)
	}

	// Persist and replay the shrunk reproduction from disk.
	dir := t.TempDir()
	path, err := WriteRepro(dir, shrunk)
	if err != nil {
		t.Fatalf("WriteRepro: %v", err)
	}
	corpus, err := ReadCorpus(dir)
	if err != nil {
		t.Fatalf("ReadCorpus: %v", err)
	}
	if len(corpus) != 1 {
		t.Fatalf("corpus has %d entries, want 1 (%s)", len(corpus), path)
	}
	for _, r := range corpus {
		replay := CheckScenario(r.Scenario)
		if replay == nil {
			t.Fatal("persisted reproduction no longer fails on replay")
		}
		if replay.Kind != r.Kind || replay.Check != r.Check {
			t.Errorf("replay failed as %s/%s, corpus recorded %s/%s",
				replay.Kind, replay.Check, r.Kind, r.Check)
		}
	}
}

// TestShrinkTruncates pins the shrinker's tick-truncation: a failure
// at tick T must shrink to a run of at most T+1 ticks.
func TestShrinkTruncates(t *testing.T) {
	sc := Scenario{Seed: 7, N: 24, Ticks: 150, Fault: simnet.FaultHandoffMisroute}
	fail := CheckScenario(sc)
	if fail == nil {
		t.Fatal("fault not caught")
	}
	shrunk := Shrink(fail)
	if shrunk.Tick < 1 {
		t.Fatalf("shrunk failure lost its tick: %+v", shrunk)
	}
	if shrunk.Scenario.Ticks > shrunk.Tick+1 {
		t.Errorf("shrunk run is %d ticks for a tick-%d failure", shrunk.Scenario.Ticks, shrunk.Tick)
	}
}

// TestFromParamsTotal pins FromParams' totality: every byte pattern
// maps to a scenario that either runs clean or is a config error —
// never a panic or a violation.
func TestFromParamsTotal(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive-ish sweep")
	}
	for i := 0; i < 8; i++ {
		b := uint8(i*37 + 1)
		sc := FromParams(uint64(i), uint16(i*31), b, b>>1, b, b>>2, b, b>>3, b, b>>4, b, b>>5)
		if fail := CheckScenario(sc); fail != nil {
			t.Errorf("FromParams case %d fails: %v", i, fail)
		}
	}
}
