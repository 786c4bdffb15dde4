package prop

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// shrinkBudget bounds the number of CheckScenario executions one
// Shrink may spend (each is one short simulation).
const shrinkBudget = 40

// Shrink greedily reduces a failing scenario while it keeps failing:
// truncate the run right after the failing tick, halve N, then strip
// optional features one at a time (non-default mobility and link
// models, churn, tracking, naming, hop sampling, elector, top cap).
// The result is the smallest
// (config, seed, tick) triple found within the budget; the original
// failure is returned unchanged if nothing smaller still fails.
func Shrink(f *Failure) *Failure {
	cur := f
	budget := shrinkBudget

	// try re-runs candidate and adopts it if it still fails.
	try := func(sc Scenario) bool {
		if budget <= 0 {
			return false
		}
		budget--
		if nf := CheckScenario(sc); nf != nil {
			cur = nf
			return true
		}
		return false
	}

	truncate := func() {
		// Keep one tick past the failure so the failing tick itself
		// still executes under RunUntil's horizon.
		for cur.Tick >= 1 && cur.Tick+1 < cur.Scenario.Ticks {
			sc := cur.Scenario
			sc.Ticks = cur.Tick + 1
			if !try(sc) {
				break
			}
		}
	}

	truncate()
	for cur.Scenario.N > 2 {
		sc := cur.Scenario
		sc.N = sc.N / 2
		if !try(sc) {
			break
		}
	}
	simplify := []func(*Scenario){
		func(sc *Scenario) { sc.Mobility = "" },
		func(sc *Scenario) { sc.Link = "" },
		func(sc *Scenario) { sc.ChurnRate, sc.MeanDowntime = 0, 0 },
		func(sc *Scenario) { sc.TrackStates, sc.TrackClasses = false, false },
		func(sc *Scenario) { sc.NaiveNaming = false },
		func(sc *Scenario) { sc.SampleHops, sc.HopPairs = 0, 0 },
		func(sc *Scenario) { sc.Elector = "" },
		func(sc *Scenario) { sc.TopArity = 0 },
		func(sc *Scenario) { sc.Colocated = false },
	}
	for _, simp := range simplify {
		sc := cur.Scenario
		simp(&sc)
		if sc == cur.Scenario {
			continue // already minimal on this axis
		}
		try(sc)
	}
	truncate() // simplifications may have moved the failure earlier
	return cur
}

// WriteRepro persists a failure as a regression corpus file in dir
// (created if missing) and returns the file path. The name encodes the
// failure signature, so re-writing the same shrunk failure is
// idempotent.
func WriteRepro(dir string, f *Failure) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	check := f.Check
	if check == "" {
		check = "x"
	}
	name := fmt.Sprintf("%s-%s-seed%d-n%d-t%d.json",
		f.Kind, sanitize(check), f.Scenario.Seed, f.Scenario.N, f.Tick)
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return "", err
	}
	return path, nil
}

// Repro is one regression corpus entry: a scenario plus its expected
// outcome. Kind == "" means the scenario must pass (a known-tricky
// configuration pinned as healthy); otherwise CheckScenario must
// reproduce the recorded failure kind.
type Repro struct {
	Scenario Scenario `json:"scenario"`
	Kind     string   `json:"kind,omitempty"`
	Check    string   `json:"check,omitempty"`
	Tick     int      `json:"tick,omitempty"`
	Detail   string   `json:"detail,omitempty"`
	Note     string   `json:"note,omitempty"`
}

// ReadCorpus loads every *.json repro in dir, sorted by file name for
// deterministic replay order. A missing directory is an empty corpus.
func ReadCorpus(dir string) (map[string]Repro, error) {
	entries, err := os.ReadDir(dir)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".json") {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	corpus := make(map[string]Repro, len(names))
	for _, name := range names {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			return nil, err
		}
		var r Repro
		if err := json.Unmarshal(data, &r); err != nil {
			return nil, fmt.Errorf("corpus %s: %w", name, err)
		}
		corpus[name] = r
	}
	return corpus, nil
}

func sanitize(s string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9', r == '-':
			return r
		}
		return '_'
	}, s)
}
