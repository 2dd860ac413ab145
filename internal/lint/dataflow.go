package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// This file is the intraprocedural dataflow engine the dataflow-aware
// analyzers (frozenmsg, allocfree) sit on: a per-function value
// graph over go/ast + go/types tracking, for every local object, where
// its value can come from. Two lattices are computed to a fixpoint:
//
//   - owned: the object only ever holds memory constructed in this
//     function (&T{...}, new/make, composite literals, append onto an
//     owned slice, conversions of owned values). Writes through owned
//     values are the build phase of a lifecycle and are never flagged.
//   - tainted: the object may alias data the analyzer's flowConfig
//     declares shared (for frozenmsg: anything reachable from a frozen
//     wire struct). Taint enters through typed roots (an expression of
//     a flagged type that is not rooted at an owned object) and
//     propagates through assignments, address-of, slicing/indexing,
//     struct-literal capture and range statements.
//
// The analysis is flow-insensitive: one assignment from a tainted
// source taints the object for the whole function, and any assignment
// from an unknown source permanently revokes ownership. That trades a
// little precision for predictability — a diagnostic never depends on
// statement order the reader can't see.

// flowConfig parameterizes a funcFlow build.
type flowConfig struct {
	// taintedType reports whether an expression of this type is tainted
	// by construction (unless rooted at an owned object). frozenmsg
	// passes the wire-flavored type predicate here.
	taintedType func(t types.Type) bool
}

// funcFlow is the per-function value graph after fixpoint propagation.
type funcFlow struct {
	p   *Pass
	cfg flowConfig

	owned     map[types.Object]bool
	taint     map[types.Object]bool
	clobbered map[types.Object]bool // assigned from an unknown source at least once
}

// newFuncFlow builds the value graph for one function body (FuncDecl
// bodies include any nested function literals: captured variables keep
// one classification across the closure boundary).
func newFuncFlow(p *Pass, body ast.Node, cfg flowConfig) *funcFlow {
	fl := &funcFlow{
		p: p, cfg: cfg,
		owned:     make(map[types.Object]bool),
		taint:     make(map[types.Object]bool),
		clobbered: make(map[types.Object]bool),
	}
	if body == nil {
		return fl
	}
	// Assignment chains are short; the fixpoint converges in a handful
	// of passes. The cap bounds pathological inputs.
	for i := 0; i < 32; i++ {
		if !fl.propagate(body) {
			break
		}
	}
	return fl
}

func usedObj(info *types.Info, id *ast.Ident) types.Object {
	if obj := info.Uses[id]; obj != nil {
		return obj
	}
	return info.Defs[id]
}

// refLike reports whether a value of type t can alias memory (so taint
// is worth propagating into it). Basic scalars and strings are
// immutable copies; everything else — pointers, slices, maps, channels,
// interfaces, structs and arrays with reference fields — may alias.
func refLike(t types.Type) bool {
	if t == nil {
		return false
	}
	switch t.Underlying().(type) {
	case *types.Basic, *types.Signature:
		return false
	}
	return true
}

// propagate applies one walk of assignment-like statements, reporting
// whether any classification changed.
func (fl *funcFlow) propagate(body ast.Node) bool {
	changed := false
	setOwned := func(obj types.Object) {
		if obj != nil && !fl.clobbered[obj] && !fl.owned[obj] {
			fl.owned[obj] = true
			changed = true
		}
	}
	setTaint := func(obj types.Object) {
		if obj != nil && refLike(obj.Type()) && !fl.taint[obj] {
			fl.taint[obj] = true
			changed = true
		}
	}
	clobber := func(obj types.Object) {
		if obj == nil {
			return
		}
		if !fl.clobbered[obj] {
			fl.clobbered[obj] = true
			changed = true
		}
		if fl.owned[obj] {
			delete(fl.owned, obj)
			changed = true
		}
	}
	assignPair := func(lhs, rhs ast.Expr) {
		id, ok := lhs.(*ast.Ident)
		if !ok || id.Name == "_" {
			return // writes through selectors/indexes are the checkers' job
		}
		obj := usedObj(fl.p.Pkg.Info, id)
		if obj == nil {
			return
		}
		switch {
		case fl.exprOwned(rhs):
			setOwned(obj)
		case fl.exprTainted(rhs):
			clobber(obj)
			setTaint(obj)
		default:
			clobber(obj)
		}
	}

	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if len(n.Lhs) == len(n.Rhs) {
				for i := range n.Lhs {
					assignPair(n.Lhs[i], n.Rhs[i])
				}
				return true
			}
			// Tuple assignment from a call/map/type-assert: sources are
			// unknown, so every identifier target loses ownership (the
			// typed taint rule still applies at query time).
			for _, lhs := range n.Lhs {
				if id, ok := lhs.(*ast.Ident); ok && id.Name != "_" {
					clobber(usedObj(fl.p.Pkg.Info, id))
				}
			}
		case *ast.ValueSpec:
			if len(n.Values) == 0 {
				// var x T — the zero value is owned memory.
				for _, name := range n.Names {
					setOwned(fl.p.Pkg.Info.Defs[name])
				}
				return true
			}
			if len(n.Values) == len(n.Names) {
				for i, name := range n.Names {
					assignPair(ast.Expr(name), n.Values[i])
				}
				return true
			}
			for _, name := range n.Names {
				clobber(fl.p.Pkg.Info.Defs[name])
			}
		case *ast.RangeStmt:
			tainted := fl.exprTainted(n.X)
			owned := fl.exprOwned(n.X)
			for _, v := range []ast.Expr{n.Key, n.Value} {
				id, ok := v.(*ast.Ident)
				if !ok || id.Name == "_" {
					continue
				}
				obj := fl.p.Pkg.Info.Defs[id]
				if obj == nil {
					continue
				}
				switch {
				case tainted:
					setTaint(obj)
				case owned:
					setOwned(obj)
				}
			}
		}
		return true
	})
	return changed
}

// exprOwned reports whether e can only evaluate to memory constructed
// in this function.
func (fl *funcFlow) exprOwned(e ast.Expr) bool {
	switch e := e.(type) {
	case *ast.ParenExpr:
		return fl.exprOwned(e.X)
	case *ast.CompositeLit:
		return true
	case *ast.BasicLit:
		return true
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			return fl.exprOwned(e.X)
		}
	case *ast.StarExpr:
		return fl.exprOwned(e.X)
	case *ast.SelectorExpr:
		return fl.exprOwned(e.X)
	case *ast.IndexExpr:
		return fl.exprOwned(e.X)
	case *ast.SliceExpr:
		return fl.exprOwned(e.X)
	case *ast.Ident:
		if e.Name == "nil" {
			return true
		}
		obj := usedObj(fl.p.Pkg.Info, e)
		return obj != nil && fl.owned[obj]
	case *ast.CallExpr:
		if id, ok := e.Fun.(*ast.Ident); ok {
			if b, isBuiltin := fl.p.Pkg.Info.Uses[id].(*types.Builtin); isBuiltin {
				switch b.Name() {
				case "new", "make":
					return true
				case "append":
					return len(e.Args) > 0 && fl.exprOwned(e.Args[0])
				}
				return false
			}
		}
		// A conversion T(x) keeps x's provenance ([]byte(s) copies, but
		// treating the copy as owned is exactly right).
		if tv, ok := fl.p.Pkg.Info.Types[e.Fun]; ok && tv.IsType() && len(e.Args) == 1 {
			return fl.exprOwned(e.Args[0])
		}
	}
	return false
}

// exprTainted reports whether e may alias shared data per the
// flowConfig: rooted at a tainted object, or of a tainted type without
// an owned root.
func (fl *funcFlow) exprTainted(e ast.Expr) bool {
	switch e := e.(type) {
	case *ast.ParenExpr:
		return fl.exprTainted(e.X)
	case *ast.StarExpr:
		return fl.exprTainted(e.X)
	case *ast.SelectorExpr:
		return fl.exprTainted(e.X)
	case *ast.IndexExpr:
		return fl.exprTainted(e.X)
	case *ast.SliceExpr:
		return fl.exprTainted(e.X)
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			return fl.exprTainted(e.X)
		}
	case *ast.CompositeLit:
		// A struct/slice literal capturing a tainted reference carries
		// the alias with it (w := wrapper{msg} and []*wire.Message{m}).
		for _, el := range e.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				el = kv.Value
			}
			if fl.exprTainted(el) {
				return true
			}
		}
	case *ast.Ident:
		obj := usedObj(fl.p.Pkg.Info, e)
		if obj == nil {
			return false
		}
		if fl.taint[obj] {
			return true
		}
		if fl.owned[obj] {
			return false
		}
		return fl.cfg.taintedType != nil && fl.cfg.taintedType(obj.Type())
	case *ast.CallExpr:
		if id, ok := e.Fun.(*ast.Ident); ok {
			if b, isBuiltin := fl.p.Pkg.Info.Uses[id].(*types.Builtin); isBuiltin && b.Name() == "append" {
				return len(e.Args) > 0 && fl.exprTainted(e.Args[0])
			}
		}
		if tv, ok := fl.p.Pkg.Info.Types[e.Fun]; ok && tv.IsType() && len(e.Args) == 1 {
			return fl.exprTainted(e.Args[0])
		}
		// Non-conversion calls: the result is fresh unless its type is
		// tainted by construction (a *wire.Message return is shared
		// until proven otherwise — matching the v1 builder rule).
		return fl.cfg.taintedType != nil && fl.cfg.taintedType(fl.p.Pkg.Info.TypeOf(e))
	}
	return false
}

// unwrapSlicing strips parens and re-slicing from an expression.
func unwrapSlicing(e ast.Expr) ast.Expr {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		default:
			return e
		}
	}
}
