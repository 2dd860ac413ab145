package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// FrozenMsg is the compile-time teeth behind DESIGN.md §8: once a
// wire.Message is published, the same pointer is delivered to every
// receiver, so any in-place mutation is cross-node data corruption.
//
// One source-order walk per function classifies its locals (see
// locals), which tracks frozen values through aliases
// (e := m.Response.Entries; e[0] = x) and range statements
// (for _, b := range m.Response.Blobs { b.Payload[0] = 0 }). The
// analyzer flags, outside the wire package itself:
//
//   - field writes through a pointer to a frozen wire struct (Message,
//     Query, Response, Fragment, Ack) — e.g. msg.From = id;
//   - element writes into any slice that may alias frozen message
//     data, reached through a pointer, a value copy, a range variable
//     or a local that holds a frozen section on some path;
//   - append whose destination is a frozen slice section (Receivers,
//     ChunkIDs, Serves, Entries, CDI, Blobs, Data): it may write the
//     shared backing array when capacity allows.
//
// Values built in the function (&wire.X{...}, new(wire.X), make) are
// the build phase of the lifecycle and are allowed.
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
// pointer/slice/array/map closure over them: the root a local's taint
// starts from.
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
			checkFrozenFunc(p, classifyLocals(p.Pkg.Info, fd.Body), fd.Body)
		}
	}
}

func checkFrozenFunc(p *Pass, locs *locals, body *ast.BlockStmt) {
	checkLHS := func(lhs ast.Expr) {
		switch l := lhs.(type) {
		case *ast.SelectorExpr:
			if name, ok := isPtrTo(p.Pkg.Info.TypeOf(l.X)); ok && !locs.owned(l.X) {
				p.Reportf(l.Pos(), "write to frozen wire.%s field %s outside the wire builders: published messages are shared by every receiver (use WithReceivers, or build a fresh NewQuery/NewResponse)",
					name, l.Sel.Name)
			}
		case *ast.IndexExpr:
			if t := p.Pkg.Info.TypeOf(l.X); t != nil {
				if _, isSlice := t.Underlying().(*types.Slice); isSlice && locs.tainted(l.X) && !locs.owned(l.X) {
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
			checkFrozenAppend(p, locs, n)
		}
		return true
	})
}

// frozenFieldSel reports whether e (after unwrapping parens/slicing) is
// a selector of a frozen slice field on a wire struct, returning the
// selector and the owning struct name.
func frozenFieldSel(info *types.Info, e ast.Expr) (*ast.SelectorExpr, string, bool) {
	sel, ok := unwrapSlicing(e).(*ast.SelectorExpr)
	if !ok || !frozenSliceFields[sel.Sel.Name] {
		return nil, "", false
	}
	name, ok := namedWireType(info.TypeOf(sel.X))
	return sel, name, ok
}

// checkFrozenAppend flags append(m.Query.ChunkIDs[:i], ...), which
// mutates the shared array in place when capacity allows; only the
// destination (first) argument is dangerous — frozen slices as
// variadic sources are reads.
func checkFrozenAppend(p *Pass, locs *locals, call *ast.CallExpr) {
	if builtinName(p.Pkg.Info, call) != "append" || len(call.Args) == 0 {
		return
	}
	if sel, fieldOf, ok := frozenFieldSel(p.Pkg.Info, call.Args[0]); ok && !locs.owned(sel.X) {
		p.Reportf(call.Pos(), "append into frozen wire.%s.%s may write the shared backing array; copy first (append([]T(nil), s...)) or rebuild via a CoW helper",
			fieldOf, sel.Sel.Name)
	}
}

// provenance is what the values assigned to a local are known to be.
// It only rises: a later assignment can take ownership away or add
// taint, never the reverse.
type provenance uint8

const (
	unassigned provenance = iota
	owned                 // every value assigned was built in the function
	foreign               // some value came from a source the walk cannot see
	tainted               // some value may alias a frozen wire message
)

// locals holds the provenance of one function's local objects. Nested
// function literals share it: a captured variable keeps one
// classification across the closure boundary.
type locals struct {
	info *types.Info
	prov map[types.Object]provenance
}

// classifyLocals walks body once, in source order, raising each
// assigned local to the provenance of its right-hand side as known at
// that point. There is no fixpoint, so an alias made earlier in the
// text than the assignment that taints its source is not seen:
// b := a; a = m.Query.ChunkIDs leaves b untainted.
func classifyLocals(info *types.Info, body ast.Node) *locals {
	l := &locals{info: info, prov: make(map[types.Object]provenance)}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				if len(n.Lhs) == len(n.Rhs) {
					l.assign(lhs, n.Rhs[i])
				} else {
					l.raise(lhs, foreign) // a tuple from a call, map or type assertion
				}
			}
		case *ast.ValueSpec:
			for i, name := range n.Names {
				switch len(n.Values) {
				case 0:
					l.raise(name, owned) // var x T: the zero value
				case len(n.Names):
					l.assign(name, n.Values[i])
				default:
					l.raise(name, foreign)
				}
			}
		case *ast.RangeStmt:
			if l.tainted(n.X) {
				l.raise(n.Key, tainted)
				l.raise(n.Value, tainted)
			}
		}
		return true
	})
	return l
}

func (l *locals) assign(lhs, rhs ast.Expr) {
	switch {
	case l.owned(rhs):
		l.raise(lhs, owned)
	case l.tainted(rhs):
		l.raise(lhs, tainted)
	default:
		l.raise(lhs, foreign)
	}
}

// raise lifts a local's provenance to at least p. Writes through
// selectors and indexes are the checks' business, not the walk's.
func (l *locals) raise(e ast.Expr, p provenance) {
	id, ok := e.(*ast.Ident)
	if !ok || id.Name == "_" {
		return
	}
	if obj := l.info.ObjectOf(id); obj != nil && l.prov[obj] < p {
		l.prov[obj] = p
	}
}

// owned reports whether e can only evaluate to memory built in this
// function.
func (l *locals) owned(e ast.Expr) bool {
	switch e := e.(type) {
	case *ast.CompositeLit, *ast.BasicLit:
		return true
	case *ast.Ident:
		return e.Name == "nil" || l.prov[l.info.Uses[e]] == owned
	case *ast.CallExpr:
		switch builtinName(l.info, e) {
		case "new", "make":
			return true
		case "append":
			return len(e.Args) > 0 && l.owned(e.Args[0])
		}
		return false
	}
	x := operand(e)
	return x != nil && l.owned(x)
}

// tainted reports whether e may alias frozen wire data: rooted at a
// tainted local, or of a wireFlavored type without an owned root. A
// call other than append is fresh unless its result type is
// wireFlavored: a returned *wire.Message is shared until proven
// otherwise.
func (l *locals) tainted(e ast.Expr) bool {
	switch e := e.(type) {
	case *ast.Ident:
		obj := l.info.Uses[e]
		switch l.prov[obj] {
		case tainted:
			return true
		case owned:
			return false
		}
		return obj != nil && wireFlavored(obj.Type())
	case *ast.CallExpr:
		if builtinName(l.info, e) == "append" {
			return len(e.Args) > 0 && l.tainted(e.Args[0])
		}
		return wireFlavored(l.info.TypeOf(e))
	}
	x := operand(e)
	return x != nil && l.tainted(x)
}

// operand returns the expression whose memory e reaches through a
// paren, dereference, address-of, selector, index or slice, or nil.
func operand(e ast.Expr) ast.Expr {
	switch e := e.(type) {
	case *ast.ParenExpr:
		return e.X
	case *ast.StarExpr:
		return e.X
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			return e.X
		}
	case *ast.SelectorExpr:
		return e.X
	case *ast.IndexExpr:
		return e.X
	case *ast.SliceExpr:
		return e.X
	}
	return nil
}
