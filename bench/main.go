// Command bench times whole simulator runs. Each run measures one
// workload for at least --seconds of wall time and prints, as its last
// line of standard output, one JSON object: whether every output
// matched its reference digest, how many operations were attempted and
// failed, and each metric with its unit. Run it from the repository
// root:
//
//	bash bench/run.sh --workload paper-1s --seed 1 --seconds 20 --trace 0
//	bash bench/run.sh --workload all --out runs.jsonl
//	bash bench/run.sh compare parent.jsonl change.jsonl
//
// --trace 0 reports the end-to-end metrics, measured with tracing off;
// --trace 1 reports the per-layer metrics of a separate traced run.
// See README.md for the workloads, the metrics and the compare rule.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func newResult(attempted int) result {
	return result{Attempted: attempted, Metrics: map[string]metric{}}
}

// set records a metric under its declared unit.
func (r result) set(name string, v float64) {
	u, ok := units[name]
	if !ok {
		panic("bench: undeclared metric " + name)
	}
	r.Metrics[name] = metric{Value: v, Unit: u}
}

// complete reports an error unless r holds every end-to-end metric, or
// with traced every per-layer one.
func (r result) complete(traced bool) error {
	want := e2eMetrics
	if traced {
		want = layerMetrics
	}
	for _, m := range want {
		if _, ok := r.Metrics[m.name]; !ok {
			return fmt.Errorf("metric %s was not measured", m.name)
		}
	}
	return nil
}

// metricSpec names a metric and its unit; BENCHMARK.json lists the same
// metrics with their direction and bound (checked by TestSpecsMatchBenchmarkJSON).
type metricSpec struct{ name, unit string }

var e2eMetrics = []metricSpec{
	{"setup_s", "s"},
	{"sim_us_per_simsec", "us"},
	{"latency_mean_us", "us"},
	{"latency_p90_us", "us"},
	{"allocs_per_tick", "count"},
	{"peak_heap_mib", "MiB"},
}

var layerMetrics = []metricSpec{
	{"lm.update_us", "us"},
	{"lm.apply_us", "us"},
	{"lm.transfers", "count"},
	{"lm.rows", "count"},
	{"cluster.maintain_us", "us"},
	{"cluster.diff_us", "us"},
	{"cluster.levels", "count"},
	{"topology.build_us", "us"},
	{"topology.diff_us", "us"},
	{"topology.giant_us", "us"},
	{"topology.edges", "count"},
	{"topology.link_events", "count"},
	{"mobility.advance_us", "us"},
	{"spatial.update_us", "us"},
	{"simnet.step_us", "us"},
	{"simnet.other_us", "us"},
	{"trace.overhead_frac", "ratio"},
	{"serve.misroutes_per_query", "ratio"},
	{"serve.retries_per_query", "ratio"},
	{"serve.forced", "count"},
	{"serve.shed", "count"},
	{"serve.requests_per_batch", "ratio"},
	{"serve.unavail_share", "ratio"},
	{"serve.packets_per_query", "ratio"},
	{"serve.served_qps", "1/s"},
}

var units = func() map[string]string {
	m := map[string]string{}
	for _, s := range append(append([]metricSpec(nil), e2eMetrics...), layerMetrics...) {
		m[s.name] = s.unit
	}
	return m
}()

// record is one run as --out stores it and compare reads it.
type record struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Trace    int    `json:"trace"`
	result
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	var (
		name     = flag.String("workload", "all", "workload to run, or all")
		seed     = flag.Uint64("seed", 1, "workload seed")
		seconds  = flag.Float64("seconds", 20, "wall seconds to measure each workload")
		traceOn  = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run")
		spansDir = flag.String("spans", "", "with --trace 1, write the spans to this directory")
		outPath  = flag.String("out", "", "append each run's record to this JSON-lines file")
	)
	flag.Parse()
	if *traceOn != 0 && *traceOn != 1 {
		fmt.Fprintln(os.Stderr, "bench: --trace must be 0 or 1")
		os.Exit(2)
	}

	var ws []workload
	if *name == "all" {
		ws = workloads()
	} else {
		w, ok := findWorkload(*name)
		if !ok {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
			os.Exit(2)
		}
		ws = []workload{w}
	}

	code := 0
	for _, w := range ws {
		var (
			res result
			err error
		)
		if *traceOn == 1 {
			res, err = measureTraced(w, *seed, *seconds, *spansDir)
		} else {
			res, err = measure(w, *seed, *seconds)
		}
		if err == nil {
			err = res.complete(*traceOn == 1)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			os.Exit(1)
		}
		if *outPath != "" {
			if err := appendRecord(*outPath, record{w.name, *seed, *traceOn, res}); err != nil {
				fmt.Fprintf(os.Stderr, "bench: %v\n", err)
				os.Exit(1)
			}
		}
		line, err := json.Marshal(res)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			os.Exit(1)
		}
		fmt.Println(string(line))
		if !res.Correct {
			fmt.Fprintf(os.Stderr, "bench: %s: outputs do not match their reference digest\n", w.name)
			code = 1
		}
	}
	os.Exit(code)
}

func appendRecord(path string, rec record) error {
	b, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
