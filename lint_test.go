package manet_test

import (
	"testing"

	"repro/internal/analysis"
	"repro/internal/lint"
)

// TestManetlintClean makes the static gates part of tier-1
// verification: `go test ./...` fails if any package in the module
// violates an invariant the internal/lint analyzer suite enforces
// (map-order-dependent iteration, stray randomness or wall-clock time
// in simulation code, exact float comparison, unseeded or
// goroutine-shared rng streams, out-of-band state mutation, and stale
// or catch-all //lint:ignore directives).
// Run `go run ./cmd/manetlint ./...` for the same report from the
// command line; DESIGN.md §10 catalogs the analyzers.
func TestManetlintClean(t *testing.T) {
	root, err := analysis.FindModuleRoot(".")
	if err != nil {
		t.Fatalf("module root: %v", err)
	}
	d := &analysis.Driver{Analyzers: lint.Analyzers()}
	findings, err := d.Run(root, root, []string{"./..."})
	if err != nil {
		t.Fatalf("manetlint: %v", err)
	}
	for _, f := range findings {
		t.Errorf("%s", f)
	}
	if len(findings) > 0 {
		t.Logf("%d finding(s); see DESIGN.md §10 for the analyzer catalog and the //lint:ignore syntax", len(findings))
	}
}
