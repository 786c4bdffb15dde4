// Package maprange defines an Analyzer that flags `for … range` over a
// map-typed value in non-test code: the runtime randomizes map
// iteration order, so any order-sensitive use breaks the repository's
// byte-identical trace reproducibility contract. The one allowed idiom
// is the key harvest
//
//	for k := range m { keys = append(keys, k) }
//
// whose body does nothing but collect keys for subsequent sorting.
package maprange

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "maprange",
	Doc:  "flag nondeterministic map iteration outside the sorted-key-harvest idiom",
	Run:  run,
}

func run(pass *analysis.Pass) (any, error) {
	info := pass.TypesInfo
	if info == nil {
		return nil, nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			rs, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			t := info.TypeOf(rs.X)
			if t == nil {
				return true
			}
			if _, ok := t.Underlying().(*types.Map); !ok {
				return true
			}
			if isKeyHarvest(rs) {
				return true
			}
			pass.Reportf(rs.Pos(),
				"range over map %s has nondeterministic order; iterate sorted keys or annotate //lint:ignore maprange <reason>",
				types.ExprString(rs.X))
			return true
		})
	}
	return nil, nil
}

// isKeyHarvest reports whether the range body is exactly
// `keys = append(keys, k)` with k the range key.
func isKeyHarvest(rs *ast.RangeStmt) bool {
	key, ok := rs.Key.(*ast.Ident)
	if !ok || key.Name == "_" {
		return false
	}
	if rs.Value != nil {
		if v, ok := rs.Value.(*ast.Ident); !ok || v.Name != "_" {
			return false
		}
	}
	if len(rs.Body.List) != 1 {
		return false
	}
	as, ok := rs.Body.List[0].(*ast.AssignStmt)
	if !ok || as.Tok != token.ASSIGN || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
		return false
	}
	call, ok := as.Rhs[0].(*ast.CallExpr)
	if !ok || len(call.Args) != 2 {
		return false
	}
	fun, ok := call.Fun.(*ast.Ident)
	if !ok || fun.Name != "append" {
		return false
	}
	arg1, ok := call.Args[1].(*ast.Ident)
	if !ok || arg1.Name != key.Name {
		return false
	}
	return types.ExprString(as.Lhs[0]) == types.ExprString(call.Args[0])
}
