package simnet_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"testing"

	"repro/internal/cluster"
	"repro/internal/simnet"
	"repro/internal/trace"
)

var update = flag.Bool("update", false, "rewrite testdata/golden.json from the current code")

const goldenPath = "testdata/golden.json"

// goldenCell is one stored reference: the lmsim -json field set of the
// run's Results and the SHA-256 of its JSONL trace.
type goldenCell struct {
	Results     map[string]any `json:"results"`
	TraceSHA256 string         `json:"trace_sha256"`
}

// goldenConfigs is the pinned scenario matrix: every mobility × link
// cell, plus waypoint/unit-disk legs for the stateful elector, churn,
// BFS hops and the paper's scale (N=2048).
func goldenConfigs() map[string]simnet.Config {
	base := simnet.Config{N: 64, Seed: 1, Duration: 25, Warmup: 5}
	cells := map[string]simnet.Config{}
	for _, mob := range simnet.MobilityModels() {
		for _, link := range simnet.LinkModels() {
			cfg := base
			cfg.Mobility, cfg.Link = mob, link
			cells[mob+"/"+link] = cfg
		}
	}
	leg := func(name string, set func(*simnet.Config)) {
		cfg := base
		set(&cfg)
		cells["waypoint/unitdisk/"+name] = cfg
	}
	leg("debounced", func(c *simnet.Config) {
		c.Elector = &cluster.DebouncedLCA{Grace: 2.5, LevelScale: 1.9}
	})
	leg("churn", func(c *simnet.Config) { c.ChurnRate, c.MeanDowntime = 0.01, 8 })
	leg("bfs-hops", func(c *simnet.Config) {
		c.HopModel, c.SampleHops, c.HopPairs = simnet.HopBFS, 5, 16
	})
	leg("n2048", func(c *simnet.Config) { c.N, c.Warmup, c.Duration = 2048, 10, 10 })
	return cells
}

// goldenRun runs cfg and renders what the golden file stores. The
// field set is the one lmsim -json prints, normalized through a JSON
// round trip so stored and fresh values compare exactly.
func goldenRun(t *testing.T, cfg simnet.Config) goldenCell {
	t.Helper()
	var buf bytes.Buffer
	tr := trace.New(&buf)
	cfg.Observer = tr.Observer()
	r, err := simnet.Run(cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if err := tr.Close(); err != nil {
		t.Fatalf("trace close: %v", err)
	}
	if buf.Len() == 0 {
		t.Fatal("trace output is empty; the digest would be vacuous")
	}
	raw, err := json.Marshal(map[string]any{
		"n":               r.Config.N,
		"seed":            r.Config.Seed,
		"duration_s":      r.Duration,
		"phi_rate":        r.PhiRate,
		"gamma_rate":      r.GammaRate,
		"total_rate":      r.TotalRate(),
		"f0":              r.F0,
		"mean_levels":     r.MeanLevels,
		"giant_fraction":  r.GiantFraction,
		"phi_by_level":    r.PhiRateByLevel,
		"gamma_by_level":  r.GammaRateByLevel,
		"fmig_by_level":   r.FMigByLevel,
		"nodes_by_level":  r.NodesByLevel,
		"edges_by_level":  r.EdgesByLevel,
		"gprime_by_level": r.GPrimeByLevel,
	})
	if err != nil {
		t.Fatalf("marshal results: %v", err)
	}
	var fields map[string]any
	if err := json.Unmarshal(raw, &fields); err != nil {
		t.Fatalf("unmarshal results: %v", err)
	}
	sum := sha256.Sum256(buf.Bytes())
	return goldenCell{Results: fields, TraceSHA256: hex.EncodeToString(sum[:])}
}

// firstDiff describes the first leaf (in sorted key order, then index
// order) at which got and want differ, or returns "" when they are
// equal.
func firstDiff(path string, got, want any) string {
	switch w := want.(type) {
	case map[string]any:
		g, ok := got.(map[string]any)
		if !ok {
			break
		}
		keys := make([]string, 0, len(w)+len(g))
		for k := range w {
			keys = append(keys, k)
		}
		for k := range g {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		keys = slices.Compact(keys)
		for _, k := range keys {
			p := k
			if path != "" {
				p = path + "." + k
			}
			if d := firstDiff(p, g[k], w[k]); d != "" {
				return d
			}
		}
		return ""
	case []any:
		g, ok := got.([]any)
		if !ok {
			break
		}
		for i := 0; i < len(w) && i < len(g); i++ {
			if d := firstDiff(fmt.Sprintf("%s[%d]", path, i), g[i], w[i]); d != "" {
				return d
			}
		}
		if len(g) != len(w) {
			return fmt.Sprintf("%s: got length %d, want %d", path, len(g), len(w))
		}
		return ""
	}
	if reflect.DeepEqual(got, want) {
		return ""
	}
	return fmt.Sprintf("%s: got %v, want %v", path, got, want)
}

// TestGoldenDigests pins simulation behaviour against stored
// references rather than against another code path: every cell of the
// matrix must reproduce its stored lmsim -json fields exactly and its
// trace byte for byte. A refactor that shifts all paths the same way —
// a changed hash input, iteration order or trajectory — fails here.
// After an intended behaviour change, regenerate with
//
//	go test ./internal/simnet -run TestGoldenDigests -update
func TestGoldenDigests(t *testing.T) {
	cfgs := goldenConfigs()
	names := make([]string, 0, len(cfgs))
	for name := range cfgs {
		names = append(names, name)
	}
	sort.Strings(names)

	got := make(map[string]goldenCell, len(names))
	for _, name := range names {
		got[name] = goldenRun(t, cfgs[name])
	}

	if *update {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d cells to %s", len(got), goldenPath)
		return
	}

	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("%v (generate with -update)", err)
	}
	var want map[string]goldenCell
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("%s: %v", goldenPath, err)
	}
	for _, name := range names {
		w, ok := want[name]
		if !ok {
			t.Errorf("%s: no stored cell (regenerate with -update)", name)
			continue
		}
		g := got[name]
		if d := firstDiff("", g.Results, w.Results); d != "" {
			t.Errorf("%s: first differing field %s", name, d)
			continue
		}
		if g.TraceSHA256 != w.TraceSHA256 {
			t.Errorf("%s: first differing field trace_sha256: got %s, want %s",
				name, g.TraceSHA256, w.TraceSHA256)
		}
	}
	for name := range want {
		if _, ok := got[name]; !ok {
			t.Errorf("%s: stored cell no longer in the matrix (regenerate with -update)", name)
		}
	}
}
