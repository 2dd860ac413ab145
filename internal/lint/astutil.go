package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// wireMessageTypes are the frozen wire structs of DESIGN.md §8.
var wireMessageTypes = map[string]bool{
	"Message": true, "Query": true, "Response": true,
	"Fragment": true, "Ack": true,
}

// isWirePkg reports whether a types.Package is the repo's wire package
// (matched by path suffix: the source importer and the direct loader
// may materialize distinct types.Package values for it).
func isWirePkg(p *types.Package) bool {
	return p != nil && (p.Path() == "pds/internal/wire" || strings.HasSuffix(p.Path(), "/internal/wire"))
}

// namedWireType returns the wire struct name ("Message", "Query", ...)
// if t is one of the frozen wire types, after unwrapping one level of
// pointer and any aliasing.
func namedWireType(t types.Type) (string, bool) {
	if t == nil {
		return "", false
	}
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return "", false
	}
	obj := named.Obj()
	if !isWirePkg(obj.Pkg()) || !wireMessageTypes[obj.Name()] {
		return "", false
	}
	return obj.Name(), true
}

// isPtrTo reports whether t is a pointer whose element is a frozen wire
// type, returning its name.
func isPtrTo(t types.Type) (string, bool) {
	if t == nil {
		return "", false
	}
	if _, ok := t.Underlying().(*types.Pointer); !ok {
		return "", false
	}
	return namedWireType(t)
}

// pkgFuncCall returns (pkgPath, funcName, true) when call invokes a
// package-level function through a package selector (e.g. time.Now).
func pkgFuncCall(info *types.Info, call *ast.CallExpr) (string, string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", "", false
	}
	obj, ok := info.Uses[sel.Sel]
	if !ok {
		return "", "", false
	}
	fn, ok := obj.(*types.Func)
	if !ok || fn.Pkg() == nil {
		return "", "", false
	}
	if fn.Type().(*types.Signature).Recv() != nil {
		return "", "", false
	}
	// Confirm the selector base is a package name, not a value.
	if id, ok := sel.X.(*ast.Ident); ok {
		if _, isPkg := info.Uses[id].(*types.PkgName); !isPkg {
			return "", "", false
		}
	}
	return fn.Pkg().Path(), fn.Name(), true
}

// methodCall returns the method's receiver type and name when call is a
// method invocation through a selector.
func methodCall(info *types.Info, call *ast.CallExpr) (recv types.Type, name string, ok bool) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return nil, "", false
	}
	s, found := info.Selections[sel]
	if !found || s.Kind() != types.MethodVal {
		return nil, "", false
	}
	return s.Recv(), sel.Sel.Name, true
}

// receiverNamed returns the name of the receiver's named type, after
// unwrapping a pointer.
func receiverNamed(t types.Type) (pkg *types.Package, name string, ok bool) {
	if t == nil {
		return nil, "", false
	}
	if ptr, isPtr := t.Underlying().(*types.Pointer); isPtr {
		t = ptr.Elem()
	}
	named, isNamed := t.(*types.Named)
	if !isNamed {
		return nil, "", false
	}
	return named.Obj().Pkg(), named.Obj().Name(), true
}

// builtinName returns the name of the builtin call invokes ("append",
// "make", ...), or "" when it calls anything else.
func builtinName(info *types.Info, call *ast.CallExpr) string {
	if id, ok := call.Fun.(*ast.Ident); ok {
		if b, ok := info.Uses[id].(*types.Builtin); ok {
			return b.Name()
		}
	}
	return ""
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

// exprString renders a short expression label for diagnostics (best
// effort: identifiers and selector chains; anything else is "expr").
func exprString(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return exprString(e.X) + "." + e.Sel.Name
	case *ast.StarExpr:
		return "*" + exprString(e.X)
	case *ast.IndexExpr:
		return exprString(e.X) + "[...]"
	case *ast.CallExpr:
		return exprString(e.Fun) + "()"
	case *ast.ParenExpr:
		return exprString(e.X)
	}
	return "expr"
}
