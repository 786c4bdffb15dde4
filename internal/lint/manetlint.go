// Package lint assembles the manetlint analyzer suite: the full
// catalog of repro's determinism gates, each a
// standalone *analysis.Analyzer runnable on its own (or, via
// cmd/manetlint, as a multichecker or a `go vet -vettool`).
//
// See DESIGN.md §10 for the catalog with rationale per analyzer.
package lint

import (
	"repro/internal/analysis"
	"repro/internal/lint/floateq"
	"repro/internal/lint/forbiddenimport"
	"repro/internal/lint/ignorecheck"
	"repro/internal/lint/maprange"
	"repro/internal/lint/rawrng"
	"repro/internal/lint/shardsafe"
	"repro/internal/lint/sharedrng"
	"repro/internal/lint/statemut"
)

// Analyzers returns the full manetlint suite in reporting order. The
// slice is freshly allocated; callers may filter it.
func Analyzers() []*analysis.Analyzer {
	as := []*analysis.Analyzer{
		forbiddenimport.Analyzer,
		maprange.Analyzer,
		floateq.Analyzer,
		rawrng.Analyzer,
		sharedrng.Analyzer,
		statemut.Analyzer,
		shardsafe.Analyzer,
		ignorecheck.Analyzer,
	}
	names := make([]string, 0, len(as))
	for _, a := range as {
		names = append(names, a.Name)
	}
	ignorecheck.KnownRules = append(names, "typecheck")
	return as
}
