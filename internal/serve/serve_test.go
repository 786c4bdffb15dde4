package serve_test

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/simnet"
	"repro/internal/trace"
)

// marshalSim executes one plain simulation and serializes everything
// except Config, plus the per-tick trace stream.
func marshalSim(t *testing.T, cfg simnet.Config) (resultsJSON, traceOut []byte) {
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
	return marshalResults(t, r), buf.Bytes()
}

func marshalResults(t *testing.T, r *simnet.Results) []byte {
	t.Helper()
	data, err := json.Marshal(struct {
		*simnet.Results
		Config struct{}
	}{Results: r})
	if err != nil {
		t.Fatalf("marshal results: %v", err)
	}
	return data
}

// TestServeDoesNotPerturbSim is the tentpole's determinism contract:
// the embedded simulation's Results and trace must be byte-identical
// with serving enabled vs disabled.
func TestServeDoesNotPerturbSim(t *testing.T) {
	cases := []struct {
		name string
		cfg  simnet.Config
	}{
		{"serial", simnet.Config{N: 48, Seed: 7, Duration: 10, Warmup: 2}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			wantRes, wantTrace := marshalSim(t, tc.cfg)

			cfg := tc.cfg
			var buf bytes.Buffer
			tr := trace.New(&buf)
			cfg.Observer = tr.Observer()
			reg := obs.NewRegistry()
			res, err := serve.Run(serve.Config{
				Sim: cfg, Rate: 5000, Pace: 0.002, Seed: 42, Metrics: reg,
			})
			if err != nil {
				t.Fatalf("serve.Run: %v", err)
			}
			if err := tr.Close(); err != nil {
				t.Fatalf("trace close: %v", err)
			}
			if !bytes.Equal(marshalResults(t, res.Sim), wantRes) {
				t.Error("simulation Results diverge with serving enabled")
			}
			if !bytes.Equal(buf.Bytes(), wantTrace) {
				t.Error("simulation trace diverges with serving enabled")
			}
			if res.Requests == 0 {
				t.Error("no requests generated")
			}
			if res.Queries+res.Updates == 0 {
				t.Error("no requests served")
			}
			snap := reg.Snapshot()
			if snap.Counters[serve.MetricRequests] != res.Requests {
				t.Errorf("registry requests = %d, results say %d",
					snap.Counters[serve.MetricRequests], res.Requests)
			}
		})
	}
}

// TestServeBackpressure pins the bounded-queue contract: a rate far
// beyond what one tiny queue drains must shed rather than block or
// grow without bound.
func TestServeBackpressure(t *testing.T) {
	res, err := serve.Run(serve.Config{
		Sim:           simnet.Config{N: 32, Seed: 3, Duration: 3, Warmup: -1},
		Rate:          2e6,
		Shards:        1,
		QueueDepth:    8,
		Batch:         4,
		Pace:          0.02,
		UnavailWindow: -1,
		Seed:          1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Shed == 0 {
		t.Fatalf("rate 2e6 into a depth-8 queue shed nothing (requests=%d)", res.Requests)
	}
	if res.Queries+res.Updates == 0 {
		t.Fatal("backpressure shed everything; queue never drained")
	}
}

// TestServeUnavailability pins handoff-window accounting: a mobile run
// with transfers must open windows and accumulate unavailability time.
func TestServeUnavailability(t *testing.T) {
	reg := obs.NewRegistry()
	res, err := serve.Run(serve.Config{
		Sim:           simnet.Config{N: 64, Seed: 11, Duration: 20, Warmup: -1, Mu: 25},
		Rate:          20000,
		Pace:          0.002,
		UnavailWindow: 0.05,
		Seed:          5,
		Metrics:       reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.UnavailWindows == 0 {
		t.Fatal("20 mobile ticks opened no handoff windows")
	}
	if res.UnavailSeconds <= 0 {
		t.Fatal("windows opened but no unavailability time accumulated")
	}
	if res.Sim.PhiRate+res.Sim.GammaRate <= 0 {
		t.Fatal("simulation recorded no handoff work; test premise broken")
	}
	snap := reg.Snapshot()
	if snap.Counters[serve.MetricWindows] != res.UnavailWindows {
		t.Errorf("registry windows = %d, results say %d",
			snap.Counters[serve.MetricWindows], res.UnavailWindows)
	}
}

// TestServeLatencyHistograms pins that served queries record latency.
func TestServeLatencyHistograms(t *testing.T) {
	res, err := serve.Run(serve.Config{
		Sim:  simnet.Config{N: 48, Seed: 7, Duration: 8, Warmup: -1},
		Rate: 10000, Pace: 0.002, Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.QueryLatency.Count == 0 {
		t.Fatal("no query latencies recorded")
	}
	q := res.QueryLatency
	if q.P50Seconds <= 0 || q.P99Seconds < q.P50Seconds || q.MaxSeconds < q.P99Seconds*0.8 {
		t.Fatalf("implausible latency stats: %+v", q)
	}
	if res.QPS <= 0 {
		t.Fatalf("qps = %v", res.QPS)
	}
}

func TestServeConfigValidate(t *testing.T) {
	sim := simnet.Config{N: 32, Seed: 1, Duration: 2, Warmup: -1}
	cases := []serve.Config{
		{Sim: sim, Rate: -5},
		{Sim: sim, QueryFraction: 2},
		{Sim: sim, Shards: -1},
		{Sim: sim, QueueDepth: -1},
		{Sim: sim, Batch: -1},
		{Sim: simnet.Config{N: 1}},
	}
	for i, cfg := range cases {
		if _, err := serve.New(cfg); err == nil {
			t.Errorf("case %d: config %+v accepted", i, cfg)
		}
	}
}
