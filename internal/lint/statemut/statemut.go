// Package statemut defines an Analyzer that confines direct
// simulator-state mutation to tick-phase code. A write through a value
// of a StateTypes type — field assignment, op-assignment, ++/--, or a
// write into an element of a state-typed field — is only legal inside
// a method declared on a state type or inside an allow-listed
// StateMutators function. Every other site is flagged: the runtime
// invariant checker reconciles before/after snapshots across tick
// phases, and an out-of-band mutation would invalidate exactly the
// reconciliation it relies on.
package statemut

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"repro/internal/analysis"
)

// Policy vars, overridable by tests; the defaults are this
// repository's rules.
var (
	// StateTypes are simulator-state types, each named as
	// "<package-path-suffix>.<TypeName>" (e.g. "internal/simnet.looper").
	StateTypes = []string{"internal/simnet.looper", "internal/simnet.stateRun"}
	// StateMutators are names of plain functions (constructors/setup)
	// allowed to mutate StateTypes directly.
	StateMutators = []string{"setupRun", "newStateRun"}
)

var Analyzer = &analysis.Analyzer{
	Name: "statemut",
	Doc:  "confine simulator-state writes to the state types' own methods and registered mutators",
	Run:  run,
}

func run(pass *analysis.Pass) (any, error) {
	info := pass.TypesInfo
	if info == nil || len(StateTypes) == 0 {
		return nil, nil
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if isStateMethod(info, fd) || isStateMutator(fd) {
				continue // tick-phase code: free to mutate its own state
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.AssignStmt:
					if n.Tok == token.DEFINE {
						return true // := declares locals, never state fields
					}
					for _, lhs := range n.Lhs {
						checkStateWrite(pass, lhs, fd.Name.Name)
					}
				case *ast.IncDecStmt:
					checkStateWrite(pass, n.X, fd.Name.Name)
				}
				return true
			})
		}
	}
	return nil, nil
}

// checkStateWrite flags lhs if, after peeling index/deref/paren
// wrappers, it is a selector whose base is state-typed.
func checkStateWrite(pass *analysis.Pass, lhs ast.Expr, fn string) {
	info := pass.TypesInfo
	for {
		switch e := lhs.(type) {
		case *ast.ParenExpr:
			lhs = e.X
		case *ast.IndexExpr:
			lhs = e.X
		case *ast.StarExpr:
			lhs = e.X
		case *ast.SelectorExpr:
			if isStateType(info.TypeOf(e.X)) {
				pass.Reportf(lhs.Pos(),
					"direct write to simulator state %s outside tick-phase code; mutate state only in the state type's methods or a registered mutator (%s is neither), or annotate //lint:ignore statemut <reason>",
					types.ExprString(e), fn)
				return
			}
			lhs = e.X
		default:
			return
		}
	}
}

// isStateMethod reports whether fd is declared on (a pointer to) one
// of the configured state types.
func isStateMethod(info *types.Info, fd *ast.FuncDecl) bool {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return false
	}
	return isStateType(info.TypeOf(fd.Recv.List[0].Type))
}

func isStateMutator(fd *ast.FuncDecl) bool {
	if fd.Recv != nil {
		return false
	}
	for _, name := range StateMutators {
		if fd.Name.Name == name {
			return true
		}
	}
	return false
}

// isStateType reports whether t (possibly behind a pointer) is one of
// StateTypes, each spelled "<pkg-path-suffix>.<TypeName>".
func isStateType(t types.Type) bool {
	if t == nil {
		return false
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj == nil || obj.Pkg() == nil {
		return false
	}
	path := obj.Pkg().Path()
	for _, spec := range StateTypes {
		dot := strings.LastIndex(spec, ".")
		if dot < 0 || obj.Name() != spec[dot+1:] {
			continue
		}
		pkgSpec := spec[:dot]
		if path == pkgSpec || strings.HasSuffix(path, "/"+pkgSpec) {
			return true
		}
	}
	return false
}
