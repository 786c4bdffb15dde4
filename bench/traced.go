package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	//lint:ignore forbiddenimport spans carry wall-clock times of calls into the simulator's layers
	"time"

	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/simnet"
)

// span is one timed call: a "tick" root per lockstep tick, and one
// child per layer call made during it. Children of one tick share its
// ID as their Parent.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"` // -1 for a tick
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"` // since the tracer started
	EndNS   int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer
// records nothing.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{
		ID: len(t.spans), Parent: parent, Name: name,
		StartNS: time.Since(t.t0).Nanoseconds(),
	})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id].EndNS = time.Since(t.t0).Nanoseconds()
}

// drop discards span id and every span begun after it.
func (t *tracer) drop(id int) {
	if t == nil {
		return
	}
	t.spans = t.spans[:id]
}

// sumUS returns the total duration of the spans with each name, in µs.
func (t *tracer) sumUS() map[string]float64 {
	out := map[string]float64{}
	for _, s := range t.spans {
		out[s.Name] += float64(s.EndNS-s.StartNS) / 1e3
	}
	return out
}

// write stores the spans as JSON lines, each with its self time: its
// duration minus the time its children cover. Children of a span run
// one after another, so they cover the sum of their durations.
func (t *tracer) write(path string) error {
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.EndNS - s.StartNS
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i, s := range t.spans {
		rec := struct {
			span
			SelfNS int64 `json:"self_ns"`
		}{s, s.EndNS - s.StartNS - child[i]}
		if err := enc.Encode(rec); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layerSpans are the replica's layer calls, in tick order; each is
// reported as <name>_us, and their sum is what simnet.other_us
// subtracts from the simulator's Step.
var layerSpans = []string{
	"mobility.advance", "spatial.update", "topology.build", "topology.giant",
	"cluster.maintain", "cluster.diff", "lm.update", "topology.diff", "lm.apply",
}

// measureTraced reports the per-layer metrics of w. After the
// reference realization, it runs realizations in lockstep with a
// replica of the simulator's tick for at least seconds, timing each
// layer call, then reruns the first realization untraced, which must
// reproduce its Results, to measure the tracing overhead. On the
// serving workload it also serves that realization once and reads the
// server's counters. spansDir, when set, receives the spans.
func measureTraced(w workload, seed uint64, seconds float64, spansDir string) (result, error) {
	ok, err := reference(w)
	if err != nil {
		return result{}, err
	}
	tr := newTracer()
	var (
		work    workCounts
		digests []string
	)
	start := time.Now()
	for len(digests) == 0 || time.Since(start).Seconds() < seconds {
		d, err := tracedRep(w.realization(seed, len(digests)).sim, tr, &work)
		if err != nil {
			return result{}, fmt.Errorf("%s traced realization %d: %w", w.name, len(digests), err)
		}
		digests = append(digests, d)
	}

	first := w.realization(seed, 0)
	base, err := simRep(first.sim)
	if err != nil {
		return result{}, fmt.Errorf("%s untraced realization 0: %w", w.name, err)
	}
	if base.digest != digests[0] {
		fmt.Fprintf(os.Stderr, "%s realization 0: untraced digest %s, traced %s\n", w.name, base.digest, digests[0])
		ok = false
	}
	untracedUS := base.wall / float64(base.ticks) * 1e6

	out := newResult(len(digests) + 2) // plus the reference and the untraced rerun
	us := tr.sumUS()
	ticks := float64(work.ticks)
	step := us["simnet.step"] / ticks
	other := step
	for _, name := range layerSpans {
		out.set(name+"_us", us[name]/ticks)
		other -= us[name] / ticks
	}
	out.set("lm.transfers", float64(work.transfers)/ticks)
	out.set("lm.rows", float64(work.rows)/ticks)
	out.set("cluster.levels", float64(work.levels)/ticks)
	out.set("topology.edges", float64(work.edges)/ticks)
	out.set("topology.link_events", float64(work.linkEvents)/ticks)
	out.set("simnet.step_us", step)
	out.set("simnet.other_us", other)
	out.set("trace.overhead_frac", step/untracedUS-1)

	serveMetrics := map[string]float64{}
	if first.serve != nil {
		if serveMetrics, err = serveCounters(*first.serve); err != nil {
			return result{}, err
		}
		out.Attempted++
	}
	for _, m := range layerMetrics {
		if strings.HasPrefix(m.name, "serve.") {
			out.set(m.name, serveMetrics[m.name])
		}
	}
	out.Correct = ok
	if !ok {
		out.Failed = 1
	}

	if spansDir != "" {
		if err := os.MkdirAll(spansDir, 0o755); err != nil {
			return result{}, err
		}
		if err := tr.write(filepath.Join(spansDir, fmt.Sprintf("%s-seed%d.jsonl", w.name, seed))); err != nil {
			return result{}, fmt.Errorf("write spans: %w", err)
		}
	}
	return out, nil
}

// tracedRep runs one realization in lockstep with a replica, adds the
// replica's work counts to work, and returns the Results digest.
func tracedRep(cfg simnet.Config, tr *tracer, work *workCounts) (string, error) {
	runtime.GC()
	st, err := simnet.NewStepper(cfg)
	if err != nil {
		return "", err
	}
	defer st.Close()
	rep, err := newReplica(st.Config())
	if err != nil {
		return "", err
	}
	if err := lockstep(st, rep, tr); err != nil {
		return "", err
	}
	res, err := st.Results()
	if err != nil {
		return "", err
	}
	work.add(rep.work)
	return digest(res)
}

// serveCounters runs the server once and derives the serve.* metrics
// from the counters it records into Config.Metrics.
func serveCounters(cfg serve.Config) (map[string]float64, error) {
	runtime.GC()
	reg := obs.NewRegistry()
	cfg.Metrics = reg
	res, err := serve.Run(cfg)
	if err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	c := func(name string) float64 { return float64(reg.Counter(name).Value()) }
	queries := c(serve.MetricQueries)
	return map[string]float64{
		"serve.misroutes_per_query": c(serve.MetricMisroutes) / queries,
		"serve.retries_per_query":   c(serve.MetricRetries) / queries,
		"serve.forced":              c(serve.MetricForced),
		"serve.shed":                c(serve.MetricShed),
		"serve.requests_per_batch":  (queries + c(serve.MetricUpdates)) / c(serve.MetricBatches),
		// Owner-seconds spent mid-handoff per owner per wall second.
		"serve.unavail_share":     c(serve.MetricUnavailNS) / 1e9 / (float64(cfg.Sim.N) * res.WallSeconds),
		"serve.packets_per_query": c(serve.MetricQueryPkts) / queries,
		"serve.served_qps":        res.QPS,
	}, nil
}
