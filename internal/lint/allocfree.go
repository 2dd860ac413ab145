package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// AllocFree is the source-level twin of the pds-benchdiff alloc gate
// (ROADMAP "drive steady-state allocations to ~zero"): functions
// annotated //pds:hotpath — plus a seeded list covering wire
// encode/decode, radio delivery, spatial scans, disabled-tracer paths
// and metrics.Pool — must not allocate in the ways this repo's history
// shipped there. The benchmark gate catches a regression after it
// moves BENCH_PDS.json; this analyzer points at the exact line before
// it lands. Flagged inside a hot-path function:
//
//   - make(...) — a fresh buffer per call;
//   - Append*(nil) — the call exists only to allocate a fresh slice;
//   - interface boxing of non-pointer-shaped arguments (the compiler
//     heap-allocates the value word), except fmt.Errorf's operands
//     inside a return statement — the error is built on the cold
//     failure path.
//
// Every other allocating construct is left to the AllocsPerRun tests
// of each hot path. A deliberate allocation stays only behind the
// audited //lint:allow allocfree escape hatch.
var AllocFree = &Analyzer{
	Name:    "allocfree",
	Doc:     "forbids make, Append*(nil) and interface boxing in //pds:hotpath functions and the seeded hot-path list",
	Section: "DESIGN.md §17 (dataflow lint & source-level alloc gate)",
	Run:     runAllocFree,
}

// hotSeed names a function that must carry //pds:hotpath: the package
// path suffix, receiver type name ("" for plain functions), and the
// function name. The list is the floor, not the ceiling — annotations
// elsewhere are picked up wherever they appear.
type hotSeed struct{ pkgSuffix, recv, name string }

var hotpathSeeds = []hotSeed{
	{"/internal/wire", "", "AppendEncode"},
	{"/internal/wire", "", "EncodedSize"},
	{"/internal/wire", "", "appendQuery"},
	{"/internal/wire", "", "appendResponse"},
	{"/internal/wire", "", "appendNodeIDs"},
	{"/internal/wire", "", "appendInts"},
	{"/internal/radio", "Medium", "finishTransmission"},
	{"/internal/radio", "Medium", "candidates"},
	{"/internal/radio", "Medium", "collided"},
	{"/internal/radio", "Medium", "collectOverlap"},
	{"/internal/radio", "Medium", "busyFor"},
	{"/internal/radio", "Medium", "busyUntil"},
	{"/internal/radio", "Radio", "macStep"},
	{"/internal/sim", "Timer", "Reset"},
	{"/internal/sim", "Timer", "Stop"},
	{"/internal/sim", "wheelQueue", "release"},
	{"/internal/link", "Link", "putPending"},
	{"/internal/link", "Link", "absorbAck"},
	{"/internal/spatial", "Grid", "AppendNeighborhood"},
	{"/internal/trace", "Tracer", "FrameTx"},
	{"/internal/trace", "Tracer", "Frame"},
	{"/internal/metrics", "Pool", "Add"},
	{"/internal/metrics", "Pool", "AddDuration"},
	{"/internal/attr", "Descriptor", "EncodedSize"},
	{"/internal/attr", "Query", "EncodedSize"},
	{"/internal/bloom", "Filter", "EncodedSize"},
	// Fixture-only seed exercising the missing-annotation diagnostic.
	{"fixture/allocfree", "medium", "busyUntil"},
}

// hotpathAnnotated reports whether the declaration's doc group carries
// the //pds:hotpath marker.
func hotpathAnnotated(fd *ast.FuncDecl) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		if strings.TrimSpace(c.Text) == "//pds:hotpath" {
			return true
		}
	}
	return false
}

// recvTypeName returns the receiver's named type ("" for functions).
func recvTypeName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return ""
	}
	t := fd.Recv.List[0].Type
	for {
		switch x := t.(type) {
		case *ast.StarExpr:
			t = x.X
		case *ast.ParenExpr:
			t = x.X
		case *ast.IndexExpr: // generic receiver
			t = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}

func seededHotpath(pkgPath string, fd *ast.FuncDecl) bool {
	recv := recvTypeName(fd)
	for _, s := range hotpathSeeds {
		if s.name == fd.Name.Name && s.recv == recv && strings.HasSuffix(pkgPath, s.pkgSuffix) {
			return true
		}
	}
	return false
}

func runAllocFree(p *Pass) {
	for _, f := range p.Pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			annotated := hotpathAnnotated(fd)
			seeded := seededHotpath(p.Pkg.Path, fd)
			if seeded && !annotated {
				p.Reportf(fd.Pos(), "seeded hot path %s lacks the //pds:hotpath annotation; annotate it so the alloc gate is visible at the declaration", fd.Name.Name)
			}
			if !annotated && !seeded {
				continue
			}
			checkAllocFree(p, fd)
		}
	}
}

func checkAllocFree(p *Pass, fd *ast.FuncDecl) {
	info := p.Pkg.Info
	fname := fd.Name.Name
	// fmt.Errorf inside a return builds the error on the cold failure
	// path; its operands may box.
	cold := make(map[*ast.CallExpr]bool)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if ret, ok := n.(*ast.ReturnStmt); ok {
			ast.Inspect(ret, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok {
					if path, name, ok := pkgFuncCall(info, call); ok && path == "fmt" && name == "Errorf" {
						cold[call] = true
					}
				}
				return true
			})
		}
		return true
	})
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok && !cold[call] {
			checkAllocCall(p, call, fname)
		}
		return true
	})
}

func checkAllocCall(p *Pass, call *ast.CallExpr, fname string) {
	info := p.Pkg.Info
	if id, ok := call.Fun.(*ast.Ident); ok {
		if b, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin {
			if b.Name() == "make" {
				p.Reportf(call.Pos(), "make in hot path %s allocates; preallocate outside the hot loop or reuse a pooled buffer", fname)
			}
			return
		}
	}
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		return // a conversion calls nothing
	}

	// Append*(nil): the call's only purpose is to allocate the result.
	if name := calleeName(call); strings.HasPrefix(name, "Append") && len(call.Args) > 0 {
		if id, ok := call.Args[0].(*ast.Ident); ok && id.Name == "nil" {
			p.Reportf(call.Pos(), "%s(nil) in hot path %s allocates a fresh slice per call; pass a reused buffer or use an analytic size", name, fname)
		}
	}

	// Interface boxing: a non-pointer-shaped concrete argument passed
	// to an interface parameter heap-allocates the value word.
	sig, ok := info.TypeOf(call.Fun).(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var paramT types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis != token.NoPos {
				continue // s... forwards the slice, no boxing here
			}
			if sl, okSl := params.At(params.Len() - 1).Type().Underlying().(*types.Slice); okSl {
				paramT = sl.Elem()
			}
		case i < params.Len():
			paramT = params.At(i).Type()
		}
		if paramT == nil || !types.IsInterface(paramT) {
			continue
		}
		at := info.TypeOf(arg)
		if at == nil || types.IsInterface(at) {
			continue
		}
		if tv, okv := info.Types[arg]; okv && tv.Value != nil {
			continue // constants may still box, but the common ones are interned
		}
		if bt, okb := at.Underlying().(*types.Basic); okb && bt.Kind() == types.UntypedNil {
			continue
		}
		switch at.Underlying().(type) {
		case *types.Pointer, *types.Map, *types.Chan, *types.Signature:
			continue // pointer-shaped: fits the interface word directly
		}
		p.Reportf(arg.Pos(), "interface boxing of non-pointer value in hot path %s allocates; pass a pointer or keep the call monomorphic", fname)
	}
}

func calleeName(call *ast.CallExpr) string {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		return fun.Sel.Name
	}
	return ""
}
