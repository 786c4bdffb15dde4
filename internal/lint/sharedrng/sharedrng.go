// Package sharedrng defines an Analyzer that flags a go statement
// whose function literal captures an rng stream from the enclosing
// scope: rng.Source is documented as not goroutine-safe, and
// concurrent draws are both racy and order-nondeterministic. Pass each
// goroutine its own Split() stream.
package sharedrng

import (
	"go/ast"
	"go/types"

	"repro/internal/analysis"
	"repro/internal/lint/rawrng"
)

var Analyzer = &analysis.Analyzer{
	Name: "sharedrng",
	Doc:  "flag goroutines capturing an rng stream from the enclosing scope",
	Run:  run,
}

func run(pass *analysis.Pass) (any, error) {
	info := pass.TypesInfo
	if info == nil {
		return nil, nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			gs, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			fl, ok := gs.Call.Fun.(*ast.FuncLit)
			if !ok {
				return true
			}
			reported := map[types.Object]bool{}
			ast.Inspect(fl.Body, func(n ast.Node) bool {
				id, ok := n.(*ast.Ident)
				if !ok {
					return true
				}
				v, ok := info.Uses[id].(*types.Var)
				if !ok || reported[v] || !rawrng.IsRngSourceOrPtr(v.Type()) {
					return true
				}
				if v.Pos() >= fl.Pos() && v.Pos() <= fl.End() {
					return true // declared inside the literal (param or local)
				}
				reported[v] = true
				pass.Reportf(id.Pos(),
					"goroutine captures rng stream %s from the enclosing scope; rng.Source is not goroutine-safe — pass each goroutine its own Split()", v.Name())
				return true
			})
			return true
		})
	}
	return nil, nil
}
