// Package shardsafe defines an Analyzer that enforces the determinism
// contract of internal/par at its call sites: a callback passed to
// par.Pool.Run or par.Pool.RunShards may write captured state only
// through worker- or shard-indexed slots, so every parallel phase's
// outputs stay disjoint and byte-identical to the serial path.
//
// Inside such a callback the analyzer flags:
//
//   - writes to shared captured variables (plain assignment or
//     op-assignment whose target peels down to captured state without
//     passing a shard-indexed slot);
//   - writes into captured maps (map access is not a slot: maps are
//     neither index-disjoint nor goroutine-safe), including clear and
//     delete;
//   - channel sends (arrival order is scheduling-dependent);
//   - non-atomic counter increments (++/--/+=) on captured state.
//
// A slice-element write with an index the analyzer cannot derive from
// the worker/shard parameter is still accepted when an enclosing if
// guards the index against a shard-derived bound — the row-range
// ownership idiom of topology.buildLinksIntoPar.
//
// The analyzer also checks the callback's enclosing function for shard
// slots that alias a shared backing array: assigning a two-index slice
// expression (base[lo:hi], no capacity bound) into a captured slot
// lets one shard's append bleed into its neighbor's region; use a
// three-index slice or dedicated buffers.
package shardsafe

import (
	"go/ast"
	"go/types"

	"repro/internal/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "shardsafe",
	Doc:  "confine par.Pool callback writes to worker/shard-indexed slots",
	Run:  run,
}

func run(pass *analysis.Pass) (any, error) {
	info := pass.TypesInfo
	if info == nil {
		return nil, nil
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if !isPoolFanout(info, call) {
					return true
				}
				fl, ok := call.Args[len(call.Args)-1].(*ast.FuncLit)
				if !ok {
					return true
				}
				checkAliasedSlots(pass, fd, fl)
				newCallbackChecker(pass, fl).check()
				return true
			})
		}
	}
	return nil, nil
}

// isPoolFanout reports whether call is par.Pool.Run or
// par.Pool.RunShards with a final func-literal-compatible argument.
func isPoolFanout(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || (sel.Sel.Name != "Run" && sel.Sel.Name != "RunShards") || len(call.Args) == 0 {
		return false
	}
	selection, ok := info.Selections[sel]
	if !ok {
		return false
	}
	fn, ok := selection.Obj().(*types.Func)
	if !ok {
		return false
	}
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	t := recv.Type()
	if p, isPtr := t.(*types.Pointer); isPtr {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj != nil && obj.Name() == "Pool" && obj.Pkg() != nil && obj.Pkg().Name() == "par"
}

// checkAliasedSlots scans the callback's enclosing function for
// assignments of two-index slice expressions into state the callback
// captures: slot setup like slots[i] = backing[lo:hi] leaves no
// capacity bound between adjacent shards.
func checkAliasedSlots(pass *analysis.Pass, fd *ast.FuncDecl, fl *ast.FuncLit) {
	info := pass.TypesInfo
	captured := capturedVars(info, fl)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if n == fl {
			return false
		}
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for i, lhs := range as.Lhs {
			if i >= len(as.Rhs) {
				break
			}
			se, ok := ast.Unparen(as.Rhs[i]).(*ast.SliceExpr)
			if !ok || se.Slice3 {
				continue
			}
			if _, isSlice := typeUnderlying(info, se.X).(*types.Slice); !isSlice {
				if _, isArr := typeUnderlying(info, se.X).(*types.Pointer); !isArr {
					continue
				}
			}
			base := baseVar(info, lhs)
			if base == nil || !captured[base] {
				continue
			}
			if _, indexed := ast.Unparen(lhs).(*ast.IndexExpr); !indexed {
				continue
			}
			pass.Reportf(as.Pos(),
				"shard slot %s aliases a shared backing array (two-index slice %s); a parallel append can overrun into the next shard — use a three-index slice [lo:hi:hi] or dedicated buffers",
				types.ExprString(lhs), types.ExprString(as.Rhs[i]))
		}
		return true
	})
}

func typeUnderlying(info *types.Info, e ast.Expr) types.Type {
	t := info.TypeOf(e)
	if t == nil {
		return nil
	}
	return t.Underlying()
}

// capturedVars returns the variables referenced by fl but declared
// outside it.
func capturedVars(info *types.Info, fl *ast.FuncLit) map[*types.Var]bool {
	out := map[*types.Var]bool{}
	ast.Inspect(fl, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		if v, ok := info.Uses[id].(*types.Var); ok && !v.IsField() && (v.Pos() < fl.Pos() || v.Pos() > fl.End()) {
			out[v] = true
		}
		return true
	})
	return out
}

// baseVar peels selectors, indexes, derefs, and parens down to the
// root identifier's variable.
func baseVar(info *types.Info, e ast.Expr) *types.Var {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.SelectorExpr:
			e = x.X
		case *ast.Ident:
			v, _ := info.ObjectOf(x).(*types.Var)
			return v
		default:
			return nil
		}
	}
}

// callbackChecker analyzes one Run/RunShards callback body.
type callbackChecker struct {
	pass *analysis.Pass
	fl   *ast.FuncLit

	indexParams  map[*types.Var]bool // the worker/shard parameters
	shardDerived map[*types.Var]bool // locals data-derived from them
	dirtyLocals  map[*types.Var]bool // locals aliasing captured state
}

func newCallbackChecker(pass *analysis.Pass, fl *ast.FuncLit) *callbackChecker {
	c := &callbackChecker{
		pass:         pass,
		fl:           fl,
		indexParams:  map[*types.Var]bool{},
		shardDerived: map[*types.Var]bool{},
		dirtyLocals:  map[*types.Var]bool{},
	}
	info := pass.TypesInfo
	for _, field := range fl.Type.Params.List {
		for _, name := range field.Names {
			if v, ok := info.Defs[name].(*types.Var); ok {
				c.indexParams[v] = true
				c.shardDerived[v] = true
			}
		}
	}
	return c
}

func (c *callbackChecker) check() {
	c.classifyLocals()
	c.walk(c.fl.Body, nil)
}

// classifyLocals runs two fixpoints over the callback body: which
// locals are shard-derived (assigned from expressions mentioning a
// worker/shard parameter), and which locals are dirty aliases of
// captured state (reference-typed values reached without a
// shard-indexed slot on the way).
func (c *callbackChecker) classifyLocals() {
	info := c.pass.TypesInfo
	for changed := true; changed; {
		changed = false
		ast.Inspect(c.fl.Body, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok {
				return true
			}
			derived := false
			for _, rhs := range as.Rhs {
				if c.mentionsShardDerived(rhs) {
					derived = true
				}
			}
			for i, lhs := range as.Lhs {
				id, ok := ast.Unparen(lhs).(*ast.Ident)
				if !ok {
					continue
				}
				v, ok := info.ObjectOf(id).(*types.Var)
				if !ok || !c.declaredInside(v) {
					continue
				}
				if derived && !c.shardDerived[v] {
					c.shardDerived[v] = true
					changed = true
				}
				rhs := ast.Expr(nil)
				if len(as.Rhs) == len(as.Lhs) {
					rhs = as.Rhs[i]
				} else if len(as.Rhs) == 1 {
					rhs = as.Rhs[0]
				}
				if rhs != nil && isRefType(info.TypeOf(id)) && c.tainted(rhs) && !c.dirtyLocals[v] {
					c.dirtyLocals[v] = true
					changed = true
				}
			}
			return true
		})
	}
}

func (c *callbackChecker) declaredInside(v *types.Var) bool {
	return v.Pos() >= c.fl.Pos() && v.Pos() <= c.fl.End()
}

func (c *callbackChecker) mentionsShardDerived(e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if found {
			return false
		}
		if id, ok := n.(*ast.Ident); ok {
			if v, ok := c.pass.TypesInfo.ObjectOf(id).(*types.Var); ok && c.shardDerived[v] {
				found = true
			}
		}
		return true
	})
	return found
}

// tainted reports whether evaluating e can yield an alias into shared
// captured state: a reference to a captured (or dirty-local) variable
// not sanitized by a shard-derived index on the way. Function calls
// are assumed clean (a heuristic the package doc records).
func (c *callbackChecker) tainted(e ast.Expr) bool {
	info := c.pass.TypesInfo
	switch x := e.(type) {
	case *ast.Ident:
		v, ok := info.ObjectOf(x).(*types.Var)
		if !ok || v.IsField() {
			return false
		}
		if !c.declaredInside(v) {
			return true
		}
		return c.dirtyLocals[v]
	case *ast.ParenExpr:
		return c.tainted(x.X)
	case *ast.StarExpr:
		return c.tainted(x.X)
	case *ast.UnaryExpr:
		return c.tainted(x.X)
	case *ast.SelectorExpr:
		return c.tainted(x.X)
	case *ast.SliceExpr:
		return c.tainted(x.X)
	case *ast.IndexExpr:
		if c.mentionsShardDerived(x.Index) {
			return false // shard-indexed slot: this shard's private view
		}
		return c.tainted(x.X)
	}
	return false
}

// walk visits statements tracking the conditions of enclosing if
// statements (for the guarded-index idiom).
func (c *callbackChecker) walk(n ast.Node, guards []ast.Expr) {
	if n == nil {
		return
	}
	switch s := n.(type) {
	case *ast.IfStmt:
		c.walk(s.Init, guards)
		c.walk(s.Body, append(guards, s.Cond))
		c.walk(s.Else, guards)
		return
	case *ast.AssignStmt:
		for _, rhs := range s.Rhs {
			c.walkExpr(rhs, guards)
		}
		if s.Tok.IsOperator() && s.Tok.String() != ":=" && s.Tok.String() != "=" {
			// Op-assignment (+=, |=, …): a read-modify-write.
			for _, lhs := range s.Lhs {
				c.checkWrite(lhs, guards, "non-atomic op-assignment")
			}
			return
		}
		if s.Tok.String() == "=" {
			for _, lhs := range s.Lhs {
				c.checkWrite(lhs, guards, "write")
			}
		}
		return
	case *ast.IncDecStmt:
		c.checkWrite(s.X, guards, "non-atomic counter increment")
		return
	case *ast.SendStmt:
		c.pass.Reportf(s.Arrow,
			"channel send inside a par.Pool callback; arrival order is scheduling-dependent — collect per-shard outputs and merge in shard order")
		c.walkExpr(s.Value, guards)
		return
	case *ast.CallExpr:
		c.checkBuiltinMutation(s)
	}
	// Generic descent for every other node kind.
	children(n, func(child ast.Node) {
		c.walk(child, guards)
	})
}

// walkExpr descends into expressions that can contain statements
// (function literals) or further calls.
func (c *callbackChecker) walkExpr(e ast.Expr, guards []ast.Expr) {
	c.walk(e, guards)
}

// checkBuiltinMutation flags clear/delete on captured maps.
func (c *callbackChecker) checkBuiltinMutation(call *ast.CallExpr) {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || len(call.Args) == 0 {
		return
	}
	if _, isBuiltin := c.pass.TypesInfo.Uses[id].(*types.Builtin); !isBuiltin {
		return
	}
	if id.Name != "clear" && id.Name != "delete" {
		return
	}
	arg := call.Args[0]
	if _, isMap := typeUnderlying(c.pass.TypesInfo, arg).(*types.Map); !isMap {
		return
	}
	if c.tainted(arg) {
		c.pass.Reportf(call.Pos(),
			"%s on shared captured map %s inside a par.Pool callback; maps are not shard-indexed slots — use a per-worker map slot",
			id.Name, types.ExprString(arg))
	}
}

// checkWrite validates one write target inside the callback.
func (c *callbackChecker) checkWrite(lhs ast.Expr, guards []ast.Expr, kind string) {
	info := c.pass.TypesInfo
	e := ast.Unparen(lhs)
	sawShardIndex := false
	var unguardedIndexes []ast.Expr
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			if _, isMap := typeUnderlying(info, x.X).(*types.Map); isMap {
				if c.tainted(x.X) {
					c.pass.Reportf(lhs.Pos(),
						"map write to shared captured map %s inside a par.Pool callback; maps are not shard-indexed slots — use a per-worker map slot",
						types.ExprString(x.X))
				}
				return
			}
			if c.mentionsShardDerived(x.Index) {
				sawShardIndex = true
			} else {
				unguardedIndexes = append(unguardedIndexes, x.Index)
			}
			e = x.X
		case *ast.Ident:
			v, ok := info.ObjectOf(x).(*types.Var)
			if !ok {
				return
			}
			if c.declaredInside(v) && !c.dirtyLocals[v] {
				return // private local state
			}
			if sawShardIndex {
				return // worker/shard-indexed slot: disjoint by contract
			}
			if len(unguardedIndexes) > 0 && c.indexGuarded(unguardedIndexes, guards) {
				return // row-range ownership: index checked against a shard-derived bound
			}
			c.pass.Reportf(lhs.Pos(),
				"%s to shared captured state %s inside a par.Pool callback; route it through a worker/shard-indexed slot (or guard the index against a shard-derived bound)",
				kind, types.ExprString(lhs))
			return
		default:
			return
		}
	}
}

// indexGuarded reports whether some enclosing if condition compares a
// variable of one of the index expressions against a shard-derived
// value — the `if a >= lo && a < hi` ownership idiom.
func (c *callbackChecker) indexGuarded(indexes []ast.Expr, guards []ast.Expr) bool {
	info := c.pass.TypesInfo
	indexVars := map[*types.Var]bool{}
	for _, ix := range indexes {
		ast.Inspect(ix, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if v, ok := info.ObjectOf(id).(*types.Var); ok {
					indexVars[v] = true
				}
			}
			return true
		})
	}
	for _, g := range guards {
		ok := false
		ast.Inspect(g, func(n ast.Node) bool {
			be, isCmp := n.(*ast.BinaryExpr)
			if !isCmp {
				return true
			}
			switch be.Op.String() {
			case "<", "<=", ">", ">=", "==":
			default:
				return true
			}
			left := c.mentionsAny(be.X, indexVars)
			right := c.mentionsAny(be.Y, indexVars)
			if (left && c.mentionsShardDerived(be.Y)) || (right && c.mentionsShardDerived(be.X)) {
				ok = true
			}
			return true
		})
		if ok {
			return true
		}
	}
	return false
}

func (c *callbackChecker) mentionsAny(e ast.Expr, vars map[*types.Var]bool) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if found {
			return false
		}
		if id, ok := n.(*ast.Ident); ok {
			if v, ok := c.pass.TypesInfo.ObjectOf(id).(*types.Var); ok && vars[v] {
				found = true
			}
		}
		return true
	})
	return found
}

// isRefType reports whether a value of type t can alias other state:
// slices, maps, pointers, and channels.
func isRefType(t types.Type) bool {
	if t == nil {
		return false
	}
	switch t.Underlying().(type) {
	case *types.Slice, *types.Map, *types.Pointer, *types.Chan:
		return true
	}
	return false
}

// children invokes fn for each direct child node of n.
func children(n ast.Node, fn func(ast.Node)) {
	first := true
	ast.Inspect(n, func(child ast.Node) bool {
		if first {
			first = false
			return true
		}
		if child != nil {
			fn(child)
		}
		return false
	})
}
