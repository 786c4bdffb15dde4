package simnet_test

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/simnet"
	"repro/internal/trace"
)

// marshalRun executes one simulation and serializes everything except
// Config (funcs/interfaces), plus the per-tick trace stream.
func marshalRun(t *testing.T, cfg simnet.Config) (resultsJSON, traceOut []byte) {
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
	data, err := json.Marshal(struct {
		*simnet.Results
		Config struct{}
	}{Results: r})
	if err != nil {
		t.Fatalf("marshal results: %v", err)
	}
	return data, buf.Bytes()
}
