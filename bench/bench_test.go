package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"

	"repro/internal/obs"
	"repro/internal/simnet"
)

// TestReplicaMatchesStepper pins the traced run's premise: the replica
// computes the same tick as the simulator, so the layer times it
// records describe the computation the end-to-end run timed. Each
// simulation scenario runs at N=64 for 30 ticks, 5 of them warm-up;
// lockstep fails at the first tick whose LM table or hierarchy depth
// differs.
func TestReplicaMatchesStepper(t *testing.T) {
	for _, w := range workloads() {
		if w.serve != nil {
			continue
		}
		t.Run(w.name, func(t *testing.T) {
			cfg := w.sim
			cfg.N = 64
			dt := cfg.ScanInterval
			if dt <= 0 {
				dt = 1
			}
			cfg.Warmup, cfg.Duration = 5*dt, 25.5*dt // half a tick of slack for float accumulation
			st, err := simnet.NewStepper(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			rep, err := newReplica(st.Config())
			if err != nil {
				t.Fatal(err)
			}
			tr := newTracer()
			if err := lockstep(st, rep, tr); err != nil {
				t.Fatal(err)
			}
			if rep.work.ticks != 30 {
				t.Errorf("ran %d ticks, want 30", rep.work.ticks)
			}
			if rep.work.transfers == 0 || rep.work.linkEvents == 0 {
				t.Errorf("measured ticks did no accounting: %+v", rep.work)
			}
			if n := len(tr.spans); n < 30*len(layerSpans) {
				t.Errorf("recorded %d spans, want at least %d", n, 30*len(layerSpans))
			}
		})
	}
}

func TestMedianAndQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs         []float64
		med        float64
		q1, q2, q3 float64
	}{
		// Expected values from Python's statistics.median and
		// statistics.quantiles(xs, n=4).
		{[]float64{10, 1, 2, 3, 4, 5, 6, 7, 8, 9}, 5.5, 2.75, 5.5, 8.25},
		{[]float64{5, 1, 4, 2, 3}, 3, 1.5, 3, 4.5},
		{[]float64{3, 1}, 2, 0.5, 2, 3.5},
	} {
		if got := median(c.xs); math.Abs(got-c.med) > 1e-12 {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.med)
		}
		q1, q2, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q2-c.q2) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	xs := make([]float64, 999)
	for i := range xs {
		xs[i] = float64(len(xs) - i) // descending, so percentile must sort
	}
	if _, err := percentile(xs, 0.99); err == nil {
		t.Error("p99 of 999 samples accepted")
	}
	xs = append(xs, 1000)
	got, err := percentile(xs, 0.99)
	if err != nil {
		t.Fatal(err)
	}
	if got != 990 {
		t.Errorf("p99 of 1..1000 = %v, want 990", got)
	}
	if got, _ := percentile(xs, 0.5); got != 500 {
		t.Errorf("p50 of 1..1000 = %v, want 500", got)
	}
	// A realization of 100 post-warm-up ticks supports exactly p90.
	if got, err := percentile(xs[:100], 0.9); err != nil || got != 989 {
		t.Errorf("p90 of 900..999 = %v, %v; want 989", got, err)
	}
	if _, err := percentile(xs[:99], 0.9); err == nil {
		t.Error("p90 of 99 samples accepted")
	}
}

func TestHistQuantileInterpolatesWithinBucket(t *testing.T) {
	h := &obs.Histogram{}
	// 1..2000 µs, evenly spread: true p50 = 1000 µs, p99 = 1980 µs.
	for i := 1; i <= 2000; i++ {
		h.Observe(float64(i) * 1e-6)
	}
	for _, c := range []struct{ q, want float64 }{{0.5, 1000e-6}, {0.99, 1980e-6}} {
		got, err := histQuantile(h, c.q)
		if err != nil {
			t.Fatal(err)
		}
		upper := h.Quantile(c.q)
		if got > upper || got < upper/math.Pow(2, 0.25) {
			t.Errorf("q=%v: %v lies outside its bucket (%v]", c.q, got, upper)
		}
		if math.Abs(got-c.want) > math.Abs(upper-c.want) {
			t.Errorf("q=%v: interpolated %v is farther from %v than the bucket bound %v", c.q, got, c.want, upper)
		}
	}
	small := &obs.Histogram{}
	small.Observe(1e-3)
	if _, err := histQuantile(small, 0.99); err == nil {
		t.Error("p99 of one sample accepted")
	}
}

func TestJudgeVerdicts(t *testing.T) {
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scale := func(f float64) []float64 {
		out := make([]float64, len(base))
		for i, x := range base {
			out[i] = x * f
		}
		return out
	}
	wide := []float64{60, 140, 80, 120, 100, 70, 130, 90, 110, 100}
	for _, c := range []struct {
		name         string
		a, b         []float64
		higherBetter bool
		want         string
	}{
		{"faster", base, scale(0.8), false, improved},
		{"same", base, base, false, noWorse},
		{"slightly slower", base, scale(1.05), false, noWorse},
		{"slower", base, scale(1.2), false, regressed},
		{"throughput up", base, scale(1.2), true, improved},
		{"throughput down", base, scale(0.8), true, regressed},
		{"noisy parent", wide, base, false, unresolved},
		{"noisy parent, change always faster", wide, scale(0.5), false, improved},
		{"too few pairs", base[:5], scale(0.8)[:5], false, noWorse},
		{"one run", base[:1], base[:1], false, unresolved},
	} {
		if _, _, got := judge(c.a, c.b, c.higherBetter, 0.1); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
}

// TestSpecsMatchBenchmarkJSON keeps the metric names and units the
// benchmark prints, and its workload names, in step with
// BENCHMARK.json.
func TestSpecsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []metricSpecJSON `json:"end_to_end"`
		PerLayer []metricSpecJSON `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	ws := workloads()
	if len(spec.Workloads) != len(ws) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(spec.Workloads), len(ws))
	}
	for i, w := range ws {
		if spec.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json %q, benchmark %q", i, spec.Workloads[i].Name, w.name)
		}
	}
	checkSpecs(t, "end_to_end", spec.EndToEnd, e2eMetrics)
	checkSpecs(t, "per_layer", spec.PerLayer, layerMetrics)
}

type metricSpecJSON struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

func checkSpecs(t *testing.T, list string, got []metricSpecJSON, want []metricSpec) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: BENCHMARK.json lists %d metrics, the benchmark prints %d", list, len(got), len(want))
	}
	for i, w := range want {
		if got[i].Name != w.name || got[i].Unit != w.unit {
			t.Errorf("%s[%d]: BENCHMARK.json %s (%s), benchmark %s (%s)", list, i, got[i].Name, got[i].Unit, w.name, w.unit)
		}
		if got[i].Better != "lower" && got[i].Better != "higher" {
			t.Errorf("%s: %s has better=%q", list, got[i].Name, got[i].Better)
		}
	}
}
