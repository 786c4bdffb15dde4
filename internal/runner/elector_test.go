package runner

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/simnet"
)

// marshalResults serializes r without its Config, which holds funcs
// and the elector and cannot be marshalled.
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

// TestStabilizedSweepOwnsElectorState is the regression for sharing
// one stateful elector across runs: StabilizedConfig puts a single
// *DebouncedLCA into the sweep's Base, so every cell used to write
// the same grace-timer map — concurrently in a parallel sweep (a
// fatal concurrent map write), and cell after cell in a serial one
// (timers leaking into the next run). Each run must own its
// hysteresis state: the sweep's cells must match standalone runs,
// whatever the sweep parallelism.
func TestStabilizedSweepOwnsElectorState(t *testing.T) {
	base := StabilizedConfig(simnet.Config{Duration: 20, Warmup: 5})
	var want [][]byte
	for _, par := range []int{1, 2} {
		cells := Sweep(SweepSpec{
			Ns: []int{40, 56}, Seeds: 2, Base: base, Parallelism: par,
		})
		if len(cells) != 4 {
			t.Fatalf("parallelism %d: %d cells, want 4", par, len(cells))
		}
		for i, c := range cells {
			if c.Err != nil {
				t.Fatalf("parallelism %d cell %d: %v", par, i, c.Err)
			}
			got := marshalResults(t, c.R)
			if want == nil || len(want) <= i {
				cfg := StabilizedConfig(simnet.Config{
					N: c.N, Seed: c.Seed, Duration: 20, Warmup: 5,
				})
				r, err := simnet.Run(cfg)
				if err != nil {
					t.Fatalf("standalone run %d: %v", i, err)
				}
				want = append(want, marshalResults(t, r))
			}
			if !bytes.Equal(got, want[i]) {
				t.Errorf("parallelism %d cell %d (N=%d seed=%d): results differ from a standalone run",
					par, i, c.N, c.Seed)
			}
		}
	}
}
