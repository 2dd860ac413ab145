package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// FrozenMsg is the compile-time teeth behind DESIGN.md §8: once a
// wire.Message is published, the same pointer is delivered to every
// receiver, so any in-place mutation is cross-node data corruption.
//
// It sits on the dataflow engine (dataflow.go): frozen values are
// tracked through aliases (e := m.Response.Entries; e[0] = x), struct
// embedding (a wrapper embedding *wire.Message) and range statements
// (for _, b := range m.Response.Blobs { b.Payload[0] = 0 }). The
// analyzer flags, outside the wire package itself:
//
//   - field writes through a pointer to a frozen wire struct (Message,
//     Query, Response, Fragment, Ack) — e.g. msg.From = id — and
//     through anything the dataflow engine proves aliases one;
//   - element writes into a frozen slice section (Receivers, ChunkIDs,
//     Serves, Entries, CDI, Blobs, Data) or into any slice aliasing
//     frozen message data, whether reached through a pointer, a value
//     copy or a range variable;
//   - append/copy whose destination aliases a frozen slice (append may
//     write into the shared backing array when capacity allows);
//   - Bloom.Add on the shared filter, even via an alias; rewriting
//     goes through LQT's private clone and Message.WithBloom.
//
// Values the engine proves locally constructed (&wire.X{...},
// new(wire.X), value copies' scalar fields) are the build/CoW phase of
// the lifecycle and are allowed.
var FrozenMsg = &Analyzer{
	Name:    "frozenmsg",
	Doc:     "flags post-publish mutation of frozen wire.Message sections outside the wire package's builders, tracking aliases and embedding",
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
// pointer/slice/array/map closure over them. This is the taint-root
// predicate handed to the dataflow engine.
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
			fl := newFuncFlow(p, fd, flowConfig{taintedType: wireFlavored})
			checkFrozenFunc(p, fl, fd.Body)
		}
	}
}

func checkFrozenFunc(p *Pass, fl *funcFlow, body *ast.BlockStmt) {
	checkLHS := func(lhs ast.Expr) {
		switch l := lhs.(type) {
		case *ast.SelectorExpr:
			if name, ok := isPtrTo(p.Pkg.Info.TypeOf(l.X)); ok {
				if !fl.exprOwned(l.X) {
					p.Reportf(l.Pos(), "write to frozen wire.%s field %s outside the wire builders: published messages are shared by every receiver (use ShallowShare/WithReceivers/WithBloom/WithEntries)",
						name, l.Sel.Name)
				}
				return
			}
			if name, field, ok := embeddedWirePath(p.Pkg.Info, l); ok {
				p.Reportf(l.Pos(), "write to frozen wire.%s field %s through an embedded pointer: the wrapper shares the published message, clone it before mutating",
					name, field)
				return
			}
			// Alias rule: a pointer that the engine proves may reach
			// frozen data (w := msg.Response; w.Sender = id through an
			// interface table, a range variable, a container element).
			if t := p.Pkg.Info.TypeOf(l.X); t != nil {
				if _, isPtr := t.Underlying().(*types.Pointer); isPtr && fl.exprTainted(l.X) {
					p.Reportf(l.Pos(), "write through %s mutates data aliased from a frozen wire message; copy before mutating",
						exprString(l.X))
				}
			}
		case *ast.IndexExpr:
			if sel, fieldOf, ok := frozenFieldSel(p.Pkg.Info, l.X); ok {
				if !fl.exprOwned(sel.X) {
					p.Reportf(l.Pos(), "element write into frozen wire.%s.%s: the backing array is shared with the published message even through a struct copy",
						fieldOf, sel.Sel.Name)
				}
				return
			}
			if t := p.Pkg.Info.TypeOf(l.X); t != nil {
				if _, isSlice := t.Underlying().(*types.Slice); isSlice && fl.exprTainted(l.X) && !fl.exprOwned(l.X) {
					p.Reportf(l.Pos(), "element write into %s, which aliases a frozen wire message section; copy the slice first",
						exprString(l.X))
				}
			}
		case *ast.StarExpr:
			if name, ok := isPtrTo(p.Pkg.Info.TypeOf(l.X)); ok && !fl.exprOwned(l.X) {
				p.Reportf(l.Pos(), "write through *%s overwrites a frozen wire.%s in place; build a fresh message instead",
					exprString(l.X), name)
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
			checkFrozenCall(p, fl, n)
		}
		return true
	})
}

// embeddedWirePath reports whether the field selection traverses an
// embedded pointer to a frozen wire struct (the implicit step in
// w.TransmitID when w embeds *wire.Message), returning the wire struct
// name and the selected field.
func embeddedWirePath(info *types.Info, sel *ast.SelectorExpr) (wireName, field string, ok bool) {
	s := info.Selections[sel]
	if s == nil || s.Kind() != types.FieldVal || len(s.Index()) < 2 {
		return "", "", false
	}
	t := s.Recv()
	for _, idx := range s.Index()[:len(s.Index())-1] {
		if ptr, isPtr := t.Underlying().(*types.Pointer); isPtr {
			t = ptr.Elem()
		}
		st, isStruct := t.Underlying().(*types.Struct)
		if !isStruct || idx >= st.NumFields() {
			return "", "", false
		}
		ft := st.Field(idx).Type()
		if name, isWirePtr := isPtrTo(ft); isWirePtr {
			return name, sel.Sel.Name, true
		}
		t = ft
	}
	return "", "", false
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

func checkFrozenCall(p *Pass, fl *funcFlow, call *ast.CallExpr) {
	// append(m.Query.ChunkIDs[:i], ...) mutates the shared array in
	// place when capacity allows; only the destination (first) argument
	// is dangerous — frozen slices as variadic sources are reads. The
	// same goes for copy's destination.
	if id, ok := call.Fun.(*ast.Ident); ok && len(call.Args) > 0 {
		if b, isBuiltin := p.Pkg.Info.Uses[id].(*types.Builtin); isBuiltin {
			switch b.Name() {
			case "append":
				if sel, fieldOf, ok := frozenFieldSel(p.Pkg.Info, call.Args[0]); ok {
					if !fl.exprOwned(sel.X) {
						p.Reportf(call.Pos(), "append into frozen wire.%s.%s may write the shared backing array; copy first (append([]T(nil), s...)) or rebuild via a CoW helper",
							fieldOf, sel.Sel.Name)
					}
				} else if fl.exprTainted(call.Args[0]) && !fl.exprOwned(call.Args[0]) {
					p.Reportf(call.Pos(), "append into %s, which aliases a frozen wire message section, may write the shared backing array; copy first",
						exprString(unwrapSlicing(call.Args[0])))
				}
			case "copy":
				if len(call.Args) >= 2 {
					if sel, fieldOf, ok := frozenFieldSel(p.Pkg.Info, call.Args[0]); ok {
						if !fl.exprOwned(sel.X) {
							p.Reportf(call.Pos(), "copy into frozen wire.%s.%s overwrites the shared backing array",
								fieldOf, sel.Sel.Name)
						}
					} else if fl.exprTainted(call.Args[0]) && !fl.exprOwned(call.Args[0]) {
						p.Reportf(call.Pos(), "copy into %s overwrites a backing array aliased from a frozen wire message",
							exprString(unwrapSlicing(call.Args[0])))
					}
				}
			}
			return
		}
	}
	// q.Bloom.Add(...): the filter is shared even across value copies.
	if fun, ok := call.Fun.(*ast.SelectorExpr); ok && fun.Sel.Name == "Add" {
		if bloomSel, ok := fun.X.(*ast.SelectorExpr); ok && bloomSel.Sel.Name == "Bloom" {
			if name, ok := namedWireType(p.Pkg.Info.TypeOf(bloomSel.X)); ok && !fl.exprOwned(bloomSel.X) {
				p.Reportf(call.Pos(), "mutation of the shared wire.%s Bloom filter: clone it (LQT does before its first Add) and attach a snapshot via WithBloom", name)
				return
			}
		}
		// Alias form: b := q.Bloom; b.Add(h).
		if recv, _, ok := methodCall(p.Pkg.Info, call); ok {
			if pkg, tn, ok := receiverNamed(recv); ok && tn == "Filter" && pkg != nil &&
				strings.HasSuffix(pkg.Path(), "/internal/bloom") && fl.exprTainted(fun.X) {
				p.Reportf(call.Pos(), "mutation of a Bloom filter aliased from a frozen wire message: clone it and attach a snapshot via WithBloom")
			}
		}
	}
}
