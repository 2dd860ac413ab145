package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Determinism enforces the property every figure reproduction depends
// on: same-seed runs produce byte-identical metric rows and trace
// exports. Inside the deterministic core it flags:
//
//   - time.Now / time.Since / time.Until (wall-clock reads; use the sim
//     clock via clock.Clock);
//   - map iteration whose body is order-sensitive: anything beyond
//     commutative accumulation (counters, sums, set/map inserts,
//     deletes) or the collect-keys-then-sort idiom feeds map order into
//     wire output, metrics or trace export.
//
// Scope is a path rule: every package of the module is in the
// deterministic core except the root package and cmd/ (real-clock
// wiring), examples/, internal/udptransport, internal/face,
// internal/tracker and internal/origin (real sockets and deadlines),
// internal/fault (its sources are seeded by construction),
// internal/diskstore (wall-clock maintenance timing) and this package.
// A new internal package is therefore covered from its first line.
//
// internal/spatial and internal/strategy get the opposite treatment —
// strict mode: the cell scans there sit under every geometric query of
// the radio hot path, and a strategy's choices feed every node's
// routing, where even a commutative-looking map range is one refactor
// away from feeding bucket order into delivery order, so ANY range over
// a map is flagged regardless of body shape.
var Determinism = &Analyzer{
	Name:    "determinism",
	Doc:     "forbids wall-clock reads and order-sensitive map iteration in the deterministic core",
	Section: "DESIGN.md §2/§9 (seeded determinism)",
	Run:     runDeterminism,
}

// determinismExemptSuffixes lists package-path suffixes outside the
// deterministic core. Matching is by suffix so both "pds/internal/..."
// and fixture paths resolve consistently.
var determinismExemptSuffixes = []string{
	"/internal/udptransport",
	"/internal/face",
	"/internal/tracker",
	"/internal/origin",
	"/internal/fault",
	"/internal/diskstore",
	"/internal/lint",
}

// determinismStrictSuffixes lists packages under the strict no-map-
// iteration rule ("fixture/spatial" is the test fixture's package
// path, mirroring how fixtures resolve for the general rule).
var determinismStrictSuffixes = []string{
	"/internal/spatial",
	"fixture/spatial",
	"/internal/strategy",
	"fixture/strategy",
}

func determinismStrict(path string) bool {
	for _, suf := range determinismStrictSuffixes {
		if strings.HasSuffix(path, suf) {
			return true
		}
	}
	return false
}

// determinismScoped decides whether a package carries the determinism
// contract. Fixture packages ("fixture/...") are in scope, so fixtures
// exercise the checks without standing up a module.
func determinismScoped(path, name string) bool {
	if name == "main" {
		return false
	}
	// The root package wires real clocks and transports.
	if !strings.Contains(path, "/") {
		return false
	}
	if strings.Contains(path, "/cmd/") || strings.Contains(path, "/examples/") {
		return false
	}
	for _, suf := range determinismExemptSuffixes {
		if strings.HasSuffix(path, suf) {
			return false
		}
	}
	return true
}

func runDeterminism(p *Pass) {
	if !determinismScoped(p.Pkg.Path, p.Pkg.Types.Name()) {
		return
	}
	for _, f := range p.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				checkDeterminismCall(p, n)
			case *ast.RangeStmt:
				checkMapRange(p, n)
			}
			return true
		})
	}
}

func checkDeterminismCall(p *Pass, call *ast.CallExpr) {
	pkg, name, ok := pkgFuncCall(p.Pkg.Info, call)
	if ok && pkg == "time" && (name == "Now" || name == "Since" || name == "Until") {
		p.Reportf(call.Pos(), "time.%s reads the wall clock in the deterministic core; take the simulated time from clock.Clock", name)
	}
}

// checkMapRange flags range-over-map loops whose body is order
// sensitive. Safe shapes:
//
//  1. commutative accumulation — counters (x++), commutative compound
//     assignments (+= -= *= |= &= ^=, x = min(x, ...)), inserts into
//     other maps, deletes, and ifs wrapping only such statements;
//  2. per-entry rewrites — plain assignments whose target is rooted in
//     the range key/value variable or a local declared inside the loop
//     body (each entry only touches its own state), including nested
//     slice/for loops over that entry (break is legal there, not at
//     the map level), in-place sort.*/slices.* calls, := declarations,
//     and early returns of constants (∀/∃ quantifier loops);
//  3. collect-then-sort — the body appends keys/values to slices
//     declared outside the loop, each of which is passed to a
//     sort.*/slices.* call later in the enclosing function.
//
// In strict scope no body shape is safe. Calls inside the body are
// still visited by the main walk, so wall-clock use is caught
// independently; a stateful helper called per entry (e.g. an ID
// allocator) is the known soundness gap.
func checkMapRange(p *Pass, rng *ast.RangeStmt) {
	t := p.Pkg.Info.TypeOf(rng.X)
	if t == nil {
		return
	}
	if _, isMap := t.Underlying().(*types.Map); !isMap {
		return
	}
	if !determinismStrict(p.Pkg.Path) {
		sc := &mapRangeScope{p: p, rng: rng, collected: make(map[types.Object]bool)}
		if sc.safeBody(rng.Body.List, 0) && (len(sc.collected) == 0 || allSortedAfter(p, rng, sc.collected)) {
			return // commutative accumulation, per-entry rewrites, or collect-then-sort
		}
	}
	p.Reportf(rng.Pos(), "map iteration order is random and this loop body is order-sensitive; collect keys and sort (cf. sortedIDs) or restrict the body to commutative updates")
}

// mapRangeScope carries one range-over-map statement through the body
// walk: which slices the body collects into (for the sort check) and
// which objects count as per-entry state.
type mapRangeScope struct {
	p         *Pass
	rng       *ast.RangeStmt
	collected map[types.Object]bool
}

func (sc *mapRangeScope) safeBody(stmts []ast.Stmt, depth int) bool {
	for _, s := range stmts {
		if !sc.safeStmt(s, depth) {
			return false
		}
	}
	return true
}

// safeStmt reports whether s is order-insensitive. depth counts nested
// loops inside the map range: break is fine there (it exits the inner
// loop), but at depth 0 it stops the map iteration at a random element.
func (sc *mapRangeScope) safeStmt(s ast.Stmt, depth int) bool {
	switch s := s.(type) {
	case *ast.IncDecStmt:
		return true
	case *ast.DeclStmt:
		return true // var/const/type declarations introduce body-locals
	case *ast.AssignStmt:
		switch s.Tok {
		case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN,
			token.OR_ASSIGN, token.AND_ASSIGN, token.XOR_ASSIGN:
			return true
		case token.DEFINE:
			return true // defines body-locals; calls are checked by the main walk
		case token.ASSIGN:
			return sc.safePlainAssign(s)
		}
		return false
	case *ast.ExprStmt:
		call, ok := s.X.(*ast.CallExpr)
		if !ok {
			return false
		}
		// delete(m, k) is commutative.
		if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "delete" {
			_, isBuiltin := sc.p.Pkg.Info.Uses[id].(*types.Builtin)
			return isBuiltin
		}
		// Sorting something in place erases order rather than leaking it.
		if pkg, _, ok := pkgFuncCall(sc.p.Pkg.Info, call); ok && (pkg == "sort" || pkg == "slices") {
			return true
		}
		return false
	case *ast.IfStmt:
		if s.Init != nil && !sc.safeStmt(s.Init, depth) {
			return false
		}
		if !sc.safeBody(s.Body.List, depth) {
			return false
		}
		switch e := s.Else.(type) {
		case nil:
			return true
		case *ast.BlockStmt:
			return sc.safeBody(e.List, depth)
		case *ast.IfStmt:
			return sc.safeStmt(e, depth)
		}
		return false
	case *ast.BranchStmt:
		if s.Label != nil {
			return false
		}
		// continue skips an element regardless of order; break is only
		// safe inside a nested loop — at the map level it stops at an
		// order-dependent element.
		return s.Tok == token.CONTINUE || (s.Tok == token.BREAK && depth > 0)
	case *ast.ReturnStmt:
		// Early exit returning only constants is the ∃/∀ quantifier
		// shape: whichever entry triggers it, the result is identical.
		for _, r := range s.Results {
			tv := sc.p.Pkg.Info.Types[r]
			if tv.Value == nil && !tv.IsNil() {
				return false
			}
		}
		return true
	case *ast.RangeStmt:
		// A nested loop scans within one entry; nested map ranges are
		// checked independently by the main walk.
		return sc.safeBody(s.Body.List, depth+1)
	case *ast.ForStmt:
		if s.Init != nil && !sc.safeStmt(s.Init, depth) {
			return false
		}
		if s.Post != nil && !sc.safeStmt(s.Post, depth) {
			return false
		}
		return sc.safeBody(s.Body.List, depth+1)
	case *ast.BlockStmt:
		return sc.safeBody(s.List, depth)
	}
	return false
}

// safePlainAssign accepts writes that cannot leak iteration order:
// inserts into maps, writes rooted in per-entry state (the range
// variables or body-locals), x = min(x, ...) / max folds, and s =
// append(s, x) collection into an outer slice, recorded for the sort check.
func (sc *mapRangeScope) safePlainAssign(s *ast.AssignStmt) bool {
	info := sc.p.Pkg.Info
	// The append-collect shape first: s = append(s, x).
	if len(s.Lhs) == 1 && len(s.Rhs) == 1 {
		if lhs, ok := s.Lhs[0].(*ast.Ident); ok {
			if call, ok := s.Rhs[0].(*ast.CallExpr); ok && len(call.Args) > 0 {
				if fn, ok := call.Fun.(*ast.Ident); ok && (fn.Name == "append" || fn.Name == "min" || fn.Name == "max") {
					if _, isBuiltin := info.Uses[fn].(*types.Builtin); isBuiltin {
						if dst, ok := call.Args[0].(*ast.Ident); ok && dst.Name == lhs.Name {
							if fn.Name != "append" {
								return true // x = min(x, ...) folds in any order
							}
							obj := info.Uses[lhs]
							if obj == nil {
								obj = info.Defs[lhs]
							}
							if obj == nil {
								return false
							}
							if !sc.perEntry(obj) {
								sc.collected[obj] = true
							}
							return true
						}
					}
				}
			}
		}
	}
	for _, lhs := range s.Lhs {
		if !sc.safeTarget(lhs) {
			return false
		}
	}
	return true
}

// safeTarget reports whether writing through lhs is order-insensitive:
// a map index (commutative insert keyed by the entry), or any target
// rooted in the range variables or a body-local.
func (sc *mapRangeScope) safeTarget(lhs ast.Expr) bool {
	if id, ok := lhs.(*ast.Ident); ok && id.Name == "_" {
		return true
	}
	if idx, ok := lhs.(*ast.IndexExpr); ok {
		if t := sc.p.Pkg.Info.TypeOf(idx.X); t != nil {
			if _, isMap := t.Underlying().(*types.Map); isMap {
				return true
			}
		}
	}
	base := baseIdent(lhs)
	if base == nil {
		return false
	}
	obj := sc.p.Pkg.Info.Uses[base]
	if obj == nil {
		obj = sc.p.Pkg.Info.Defs[base]
	}
	return sc.perEntry(obj)
}

// perEntry reports whether obj is per-entry state: one of the range
// variables, or declared inside the loop body.
func (sc *mapRangeScope) perEntry(obj types.Object) bool {
	if obj == nil {
		return false
	}
	for _, v := range []ast.Expr{sc.rng.Key, sc.rng.Value} {
		if id, ok := v.(*ast.Ident); ok {
			if o := sc.p.Pkg.Info.Defs[id]; o != nil && o == obj {
				return true
			}
		}
	}
	return sc.rng.Body.Pos() <= obj.Pos() && obj.Pos() < sc.rng.Body.End()
}

// baseIdent unwraps selector/index/star/paren chains to the root
// identifier, or nil if the root is not an identifier.
func baseIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// allSortedAfter reports whether every collected slice is an argument,
// whole or resliced (an append-style collector sorts dst[from:]), to a
// sort.*/slices.* call somewhere after the range statement in the same
// function.
func allSortedAfter(p *Pass, rng *ast.RangeStmt, collected map[types.Object]bool) bool {
	var fn ast.Node
	for _, file := range p.Pkg.Files {
		if file.Pos() <= rng.Pos() && rng.End() <= file.End() {
			ast.Inspect(file, func(n ast.Node) bool {
				switch n.(type) {
				case *ast.FuncDecl, *ast.FuncLit:
					if n.Pos() <= rng.Pos() && rng.End() <= n.End() {
						fn = n // innermost wins: keep descending
					}
				}
				return true
			})
		}
	}
	if fn == nil {
		return false
	}
	sorted := make(map[types.Object]bool)
	ast.Inspect(fn, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rng.End() {
			return true
		}
		pkg, _, ok := pkgFuncCall(p.Pkg.Info, call)
		if !ok || (pkg != "sort" && pkg != "slices") {
			return true
		}
		for _, arg := range call.Args {
			if id, ok := unwrapSlicing(arg).(*ast.Ident); ok {
				if obj := p.Pkg.Info.Uses[id]; obj != nil {
					sorted[obj] = true
				}
			}
		}
		return true
	})
	for obj := range collected {
		if !sorted[obj] {
			return false
		}
	}
	return true
}
