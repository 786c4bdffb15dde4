package simnet_test

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/simnet"
	"repro/internal/trace"
)

// TestStepperMatchesRun pins the Stepper's contract: driving the run
// tick-by-tick produces byte-identical Results and traces to Run(cfg),
// serial, parallel and under incremental maintenance.
func TestStepperMatchesRun(t *testing.T) {
	cases := []struct {
		name string
		cfg  simnet.Config
	}{
		{"base", simnet.Config{N: 48, Seed: 7, Duration: 15, Warmup: 4}},
		{"incremental", simnet.Config{
			N: 48, Seed: 9, Duration: 12, Warmup: 3,
			Maintainer: simnet.MaintainerIncremental,
		}},
		{"parallel", simnet.Config{
			N: 48, Seed: 5, Duration: 12, Warmup: 3, IntraTickParallelism: 3,
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			wantRes, wantTrace := marshalRun(t, tc.cfg)

			cfg := tc.cfg
			var buf bytes.Buffer
			tr := trace.New(&buf)
			cfg.Observer = tr.Observer()
			st, err := simnet.NewStepper(cfg)
			if err != nil {
				t.Fatalf("NewStepper: %v", err)
			}
			defer st.Close()
			ticks := 0
			for st.Step() {
				ticks++
				if now := st.Now(); now <= 0 {
					t.Fatalf("tick %d: Now() = %v", ticks, now)
				}
				if st.Hierarchy() == nil || st.Graph() == nil {
					t.Fatalf("tick %d: nil snapshot", ticks)
				}
			}
			if !st.Done() {
				t.Fatal("Step returned false but Done() is false")
			}
			if st.Step() {
				t.Fatal("Step after done must keep returning false")
			}
			r, err := st.Results()
			if err != nil {
				t.Fatalf("Results: %v", err)
			}
			if err := tr.Close(); err != nil {
				t.Fatalf("trace close: %v", err)
			}
			got, err := json.Marshal(struct {
				*simnet.Results
				Config struct{}
			}{Results: r})
			if err != nil {
				t.Fatalf("marshal results: %v", err)
			}
			if !bytes.Equal(got, wantRes) {
				t.Errorf("Stepper results diverge from Run")
			}
			if !bytes.Equal(buf.Bytes(), wantTrace) {
				t.Errorf("Stepper trace diverges from Run")
			}
			if want := st.Config().Warmup + st.Config().Duration; st.Now() != want {
				t.Errorf("final clock = %v, want horizon %v", st.Now(), want)
			}
		})
	}
}

func TestStepperRejectsBadConfig(t *testing.T) {
	if _, err := simnet.NewStepper(simnet.Config{N: 1}); err == nil {
		t.Fatal("NewStepper accepted N=1")
	}
}
