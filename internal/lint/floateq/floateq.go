// Package floateq defines an Analyzer that flags == and != between
// floating-point operands: exact float comparison is sensitive to
// evaluation order and platform rounding, which is exactly the drift
// the determinism contract excludes. Approved epsilon helpers
// (function name containing an EpsilonMarkers substring) and the
// x != x NaN idiom are exempt, as are constant-only comparisons.
package floateq

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"repro/internal/analysis"
)

// EpsilonMarkers are lowercase substrings; a function whose name
// contains one is an approved epsilon helper and may compare floats
// with == / !=. Overridable by tests.
var EpsilonMarkers = []string{"approx", "almost", "close", "eps"}

var Analyzer = &analysis.Analyzer{
	Name: "floateq",
	Doc:  "flag exact floating-point == / != comparisons outside epsilon helpers",
	Run:  run,
}

func run(pass *analysis.Pass) (any, error) {
	info := pass.TypesInfo
	if info == nil {
		return nil, nil
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, isFunc := decl.(*ast.FuncDecl)
			if isFunc && isEpsilonHelper(fd.Name.Name) {
				continue
			}
			ast.Inspect(decl, func(n ast.Node) bool {
				be, ok := n.(*ast.BinaryExpr)
				if !ok || (be.Op != token.EQL && be.Op != token.NEQ) {
					return true
				}
				tx, ty := info.Types[be.X], info.Types[be.Y]
				if !isFloat(tx.Type) && !isFloat(ty.Type) {
					return true
				}
				if tx.Value != nil && ty.Value != nil {
					return true // constant folded at compile time
				}
				if types.ExprString(be.X) == types.ExprString(be.Y) {
					return true // x != x: the NaN check idiom
				}
				pass.Reportf(be.OpPos,
					"floating-point %s comparison is exact; use an epsilon helper or annotate //lint:ignore floateq <reason>", be.Op)
				return true
			})
		}
	}
	return nil, nil
}

func isEpsilonHelper(name string) bool {
	lower := strings.ToLower(name)
	for _, marker := range EpsilonMarkers {
		if strings.Contains(lower, marker) {
			return true
		}
	}
	return false
}

func isFloat(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}
