// Package analysis is a self-contained, offline reimplementation of
// the golang.org/x/tools/go/analysis API surface this repository
// needs. The build environment has no module proxy access, so x/tools
// cannot be vendored; instead this package mirrors its core contract —
// Analyzer, Pass and Diagnostic — closely enough that every
// analyzer under internal/lint (and its analysistest golden tests)
// would compile against the real framework with only import-path
// changes once the dependency becomes available.
//
// Deliberate deviations from x/tools, all additive:
//
//   - Pass.TestFiles carries the package's parsed _test.go files so
//     import-hygiene analyzers can see them (the upstream framework
//     models test files as separate packages, which the offline module
//     loader does not type-check).
//   - Diagnostics with Category "strict" cannot be waived by a
//     //lint:ignore directive (enforced by the drivers, not here).
//
// Cross-package facts are not supported: every analyzer here looks at
// one package at a time.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"reflect"
)

// An Analyzer is one named static check. It is run once per package;
// Requires lists analyzers whose results feed it.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics, flags, and
	// //lint:ignore directives. It must be a valid Go identifier.
	Name string

	// Doc is the analyzer's documentation; the first line is used as a
	// one-line summary.
	Doc string

	// Run applies the analyzer to a package. It may report diagnostics
	// via pass.Report and return a result for dependent analyzers.
	Run func(*Pass) (any, error)

	// Requires lists analyzers that must run first on the same package;
	// their results are available through Pass.ResultOf.
	Requires []*Analyzer

	// ResultType is the dynamic type of Run's result (checked by the
	// driver when non-nil).
	ResultType reflect.Type

	// RunDespiteErrors lets the analyzer run on packages with type
	// errors. Analyzers that rely on complete type information should
	// leave it false.
	RunDespiteErrors bool
}

func (a *Analyzer) String() string { return a.Name }

// A Pass provides one analyzer with the material of one package and
// collects its diagnostics.
type Pass struct {
	Analyzer *Analyzer

	Fset       *token.FileSet
	Files      []*ast.File // the package's non-test source files
	TestFiles  []*ast.File // parsed _test.go files (deviation; see package doc)
	PkgPath    string      // import path; set even when Pkg is nil (test-only package)
	Pkg        *types.Package
	TypesInfo  *types.Info
	TypeErrors []types.Error

	// ResultOf holds the results of the analyzers named in Requires.
	ResultOf map[*Analyzer]any

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
	End      token.Pos // optional
	Category string    // optional; "strict" findings cannot be ignored
	Message  string
}

// Validate checks the analyzer graph for the errors the real framework
// rejects: nil analyzers, empty names, nil Run, and require cycles.
func Validate(analyzers []*Analyzer) error {
	const (
		white = iota // unvisited
		grey         // on stack
		black        // done
	)
	color := map[*Analyzer]int{}
	var visit func(a *Analyzer) error
	visit = func(a *Analyzer) error {
		if a == nil {
			return fmt.Errorf("analysis: nil analyzer")
		}
		switch color[a] {
		case black:
			return nil
		case grey:
			return fmt.Errorf("analysis: require cycle through %s", a.Name)
		}
		color[a] = grey
		if a.Name == "" || a.Run == nil {
			return fmt.Errorf("analysis: analyzer %q must have a name and a Run function", a.Name)
		}
		for _, req := range a.Requires {
			if err := visit(req); err != nil {
				return err
			}
		}
		color[a] = black
		return nil
	}
	for _, a := range analyzers {
		if err := visit(a); err != nil {
			return err
		}
	}
	return nil
}
