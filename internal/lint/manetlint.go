// Package lint assembles the manetlint analyzer suite: the full
// catalog of repro's determinism gates, each a standalone
// *analysis.Analyzer that cmd/manetlint and the root lint test run
// together through analysis.Driver.
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
	"repro/internal/lint/sharedrng"
	"repro/internal/lint/statemut"
)

// Analyzers returns the full manetlint suite in reporting order.
func Analyzers() []*analysis.Analyzer {
	as := []*analysis.Analyzer{
		forbiddenimport.Analyzer,
		maprange.Analyzer,
		floateq.Analyzer,
		rawrng.Analyzer,
		sharedrng.Analyzer,
		statemut.Analyzer,
		ignorecheck.Analyzer,
	}
	names := make([]string, 0, len(as))
	for _, a := range as {
		names = append(names, a.Name)
	}
	ignorecheck.KnownRules = append(names, "typecheck")
	return as
}
