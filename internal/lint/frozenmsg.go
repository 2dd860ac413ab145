package lint

import (
	"go/ast"
	"go/types"
)

// FrozenMsg is the compile-time teeth behind DESIGN.md §8: once a
// wire.Message is published, the same pointer is delivered to every
// receiver, so any in-place mutation is cross-node data corruption.
//
// It sits on the dataflow engine (dataflow.go), which tracks frozen
// values through aliases (e := m.Response.Entries; e[0] = x) and range
// statements (for _, b := range m.Response.Blobs { b.Payload[0] = 0 }).
// The analyzer flags, outside the wire package itself:
//
//   - field writes through a pointer to a frozen wire struct (Message,
//     Query, Response, Fragment, Ack) — e.g. msg.From = id;
//   - element writes into any slice the engine proves may alias frozen
//     message data, reached through a pointer, a value copy, a range
//     variable or a local that holds a frozen section on some path;
//   - append whose destination is a frozen slice section (Receivers,
//     ChunkIDs, Serves, Entries, CDI, Blobs, Data): it may write the
//     shared backing array when capacity allows.
//
// Values the engine proves locally constructed (&wire.X{...},
// new(wire.X), make) are the build phase of the lifecycle and are
// allowed.
var FrozenMsg = &Analyzer{
	Name:    "frozenmsg",
	Doc:     "flags post-publish mutation of frozen wire.Message sections outside the wire package's builders, tracking aliases",
	Section: "DESIGN.md §8 (message ownership & copy-on-write)",
	Run:     runFrozenMsg,
}

// frozenSliceFields are the slice sections frozen with the message.
var frozenSliceFields = map[string]bool{
	"Receivers": true, "ChunkIDs": true, "Serves": true,
	"Entries": true, "CDI": true, "Blobs": true, "Data": true,
}

// wireFlavored reports whether a value of type t can reach frozen wire
// message memory by construction: the wire structs themselves and any
// pointer/slice/array/map closure over them: the dataflow engine's
// taint-root predicate.
func wireFlavored(t types.Type) bool {
	for depth := 0; t != nil && depth < 8; depth++ {
		if _, ok := namedWireType(t); ok {
			return true
		}
		switch u := t.Underlying().(type) {
		case *types.Slice:
			t = u.Elem()
		case *types.Array:
			t = u.Elem()
		case *types.Map:
			t = u.Elem()
		case *types.Pointer:
			t = u.Elem()
		default:
			return false
		}
	}
	return false
}

func runFrozenMsg(p *Pass) {
	if isWirePkg(p.Pkg.Types) {
		return // the builders live here by design
	}
	for _, f := range p.Pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fl := newFuncFlow(p, fd)
			checkFrozenFunc(p, fl, fd.Body)
		}
	}
}

func checkFrozenFunc(p *Pass, fl *funcFlow, body *ast.BlockStmt) {
	checkLHS := func(lhs ast.Expr) {
		switch l := lhs.(type) {
		case *ast.SelectorExpr:
			if name, ok := isPtrTo(p.Pkg.Info.TypeOf(l.X)); ok && !fl.exprOwned(l.X) {
				p.Reportf(l.Pos(), "write to frozen wire.%s field %s outside the wire builders: published messages are shared by every receiver (use ShallowShare/WithReceivers/WithBloom/WithEntries)",
					name, l.Sel.Name)
			}
		case *ast.IndexExpr:
			if t := p.Pkg.Info.TypeOf(l.X); t != nil {
				if _, isSlice := t.Underlying().(*types.Slice); isSlice && fl.exprTainted(l.X) && !fl.exprOwned(l.X) {
					p.Reportf(l.Pos(), "element write into %s, which aliases a frozen wire message section; copy the slice first",
						exprString(l.X))
				}
			}
		}
	}

	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				checkLHS(lhs)
			}
		case *ast.IncDecStmt:
			checkLHS(n.X)
		case *ast.CallExpr:
			checkFrozenAppend(p, fl, n)
		}
		return true
	})
}

// frozenFieldSel reports whether e (after unwrapping parens/slicing) is
// a selector of a frozen slice field on a wire struct, returning the
// selector and the owning struct name.
func frozenFieldSel(info *types.Info, e ast.Expr) (*ast.SelectorExpr, string, bool) {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		default:
			sel, ok := e.(*ast.SelectorExpr)
			if !ok || !frozenSliceFields[sel.Sel.Name] {
				return nil, "", false
			}
			name, ok := namedWireType(info.TypeOf(sel.X))
			if !ok {
				return nil, "", false
			}
			return sel, name, true
		}
	}
}

// checkFrozenAppend flags append(m.Query.ChunkIDs[:i], ...), which
// mutates the shared array in place when capacity allows; only the
// destination (first) argument is dangerous — frozen slices as
// variadic sources are reads.
func checkFrozenAppend(p *Pass, fl *funcFlow, call *ast.CallExpr) {
	id, ok := call.Fun.(*ast.Ident)
	if !ok || len(call.Args) == 0 {
		return
	}
	if b, isBuiltin := p.Pkg.Info.Uses[id].(*types.Builtin); !isBuiltin || b.Name() != "append" {
		return
	}
	if sel, fieldOf, ok := frozenFieldSel(p.Pkg.Info, call.Args[0]); ok && !fl.exprOwned(sel.X) {
		p.Reportf(call.Pos(), "append into frozen wire.%s.%s may write the shared backing array; copy first (append([]T(nil), s...)) or rebuild via a CoW helper",
			fieldOf, sel.Sel.Name)
	}
}
