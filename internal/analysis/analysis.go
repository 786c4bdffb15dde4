// Package analysis is a self-contained, offline reimplementation of
// the golang.org/x/tools/go/analysis API surface this repository
// needs. The build environment has no module proxy access, so x/tools
// cannot be vendored; instead this package mirrors its core contract —
// Analyzer, Pass and Diagnostic — closely enough that every
// analyzer under internal/lint (and its analysistest golden tests)
// would compile against the real framework with only import-path
// changes once the dependency becomes available.
//
// Only the part of that contract the suite uses is here: an Analyzer
// is a name, a doc string and a Run function, and Driver runs every
// analyzer on every package, type errors or not. No analyzer feeds its
// result to another and there are no cross-package facts: every
// analyzer looks at one package at a time and shares nothing.
//
// Deliberate deviations from x/tools, all additive:
//
//   - Pass.TestFiles carries the package's parsed _test.go files so
//     import-hygiene analyzers can see them (the upstream framework
//     models test files as separate packages, which the offline module
//     loader does not type-check).
//   - Diagnostics with Category "strict" cannot be waived by a
//     //lint:ignore directive (enforced by Driver, not here).
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// An Analyzer is one named static check, run once per package.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and //lint:ignore
	// directives. It must be a valid Go identifier.
	Name string

	// Doc is the analyzer's documentation; the first line is used as a
	// one-line summary.
	Doc string

	// Run applies the analyzer to a package and reports diagnostics
	// via pass.Report. Its result is discarded (the return type is kept
	// for source compatibility with x/tools).
	Run func(*Pass) (any, error)
}

func (a *Analyzer) String() string { return a.Name }

// A Pass provides one analyzer with the material of one package and
// collects its diagnostics.
type Pass struct {
	Fset      *token.FileSet
	Files     []*ast.File // the package's non-test source files
	TestFiles []*ast.File // parsed _test.go files (deviation; see package doc)
	PkgPath   string      // import path; set even when Pkg is nil (test-only package)
	Pkg       *types.Package
	TypesInfo *types.Info

	// Report emits one diagnostic. The driver populates it.
	Report func(Diagnostic)
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// ReportStrictf reports a diagnostic that //lint:ignore cannot waive
// (Category "strict"; a repository extension, see the package doc).
func (p *Pass) ReportStrictf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Category: CategoryStrict, Message: fmt.Sprintf(format, args...)})
}

// CategoryStrict marks a diagnostic as not waivable by annotation.
const CategoryStrict = "strict"

// A Diagnostic is one finding at a source position.
type Diagnostic struct {
	Pos      token.Pos
	Category string // optional; "strict" findings cannot be ignored
	Message  string
}
