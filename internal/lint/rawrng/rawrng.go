// Package rawrng defines an Analyzer that flags construction of an rng
// stream by zero value, composite literal, or new(): streams must come
// from rng.New, Root.Stream, StreamN, or Split so that every draw is
// attributable to the experiment seed. The rng package itself is
// exempt.
package rawrng

import (
	"go/ast"
	"go/types"

	"repro/internal/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "rawrng",
	Doc:  "flag rng.Source values constructed outside rng.New / Root.Stream / Split",
	Run:  run,
}

func run(pass *analysis.Pass) (any, error) {
	info := pass.TypesInfo
	if info == nil || (pass.Pkg != nil && pass.Pkg.Name() == "rng") {
		return nil, nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CompositeLit:
				if IsRngSource(info.TypeOf(n)) {
					pass.Reportf(n.Pos(),
						"construct rng streams with rng.New, Root.Stream, or Split, not a composite literal")
				}
			case *ast.CallExpr:
				if id, ok := n.Fun.(*ast.Ident); ok && id.Name == "new" && len(n.Args) == 1 {
					if _, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin && IsRngSource(info.TypeOf(n.Args[0])) {
						pass.Reportf(n.Pos(),
							"construct rng streams with rng.New, Root.Stream, or Split, not new(rng.Source)")
					}
				}
			case *ast.ValueSpec:
				if n.Type != nil && len(n.Values) == 0 && IsRngSource(info.TypeOf(n.Type)) {
					pass.Reportf(n.Pos(),
						"zero-value rng.Source is a seed-0 stream; construct streams with rng.New, Root.Stream, or Split")
				}
			}
			return true
		})
	}
	return nil, nil
}

// IsRngSource reports whether t is the (non-pointer) Source type of a
// package named rng.
func IsRngSource(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj != nil && obj.Name() == "Source" && obj.Pkg() != nil && obj.Pkg().Name() == "rng"
}

// IsRngSourceOrPtr is IsRngSource behind at most one pointer.
func IsRngSourceOrPtr(t types.Type) bool {
	if t == nil {
		return false
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	return IsRngSource(t)
}
