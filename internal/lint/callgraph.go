package lint

import (
	"go/ast"
	"sort"
	"strings"

	"go/types"
)

// CallGraph is the package-level call graph over one loaded module: an
// edge A→B exists when code in package A calls (or takes the value of)
// a function or method declared in package B. It is the scope oracle
// behind the determinism analyzer: instead of a hand-maintained list of
// "deterministic core" packages, the gate covers exactly what the
// scenario/sim entry points can reach, so a new package wired into the
// simulation inherits the gate the moment the first call lands.
//
// Edges are derived from resolved function objects rather than the
// import graph: a package imported only for a type name creates no
// edge, so the reachable set tracks actual control flow.
type CallGraph struct {
	// edges maps a package path to the sorted set of package paths it
	// calls into. Only module-local (loaded) packages appear.
	edges map[string][]string

	// memoized reachability sets, keyed by the joined root suffixes.
	reach map[string]map[string]bool
}

// BuildCallGraph resolves every call in every loaded package and
// returns the package-level graph. Packages outside pkgs (stdlib,
// which the module cannot lint anyway) are dropped.
func BuildCallGraph(pkgs []*Package) *CallGraph {
	local := make(map[string]bool, len(pkgs))
	for _, pkg := range pkgs {
		local[pkg.Path] = true
	}
	edgeSet := make(map[string]map[string]bool, len(pkgs))
	for _, pkg := range pkgs {
		out := edgeSet[pkg.Path]
		if out == nil {
			out = make(map[string]bool)
			edgeSet[pkg.Path] = out
		}
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				id, ok := n.(*ast.Ident)
				if !ok {
					return true
				}
				fn, ok := pkg.Info.Uses[id].(*types.Func)
				if !ok || fn.Pkg() == nil {
					return true
				}
				callee := fn.Pkg().Path()
				if callee != pkg.Path && local[callee] {
					out[callee] = true
				}
				return true
			})
		}
	}
	g := &CallGraph{edges: make(map[string][]string, len(edgeSet)), reach: make(map[string]map[string]bool)}
	for from, tos := range edgeSet {
		sorted := make([]string, 0, len(tos))
		for to := range tos {
			sorted = append(sorted, to)
		}
		sort.Strings(sorted)
		g.edges[from] = sorted
	}
	return g
}

// Reachable returns the set of package paths reachable (inclusive) from
// every loaded package whose path ends in one of rootSuffixes. The
// result is memoized per suffix set.
func (g *CallGraph) Reachable(rootSuffixes []string) map[string]bool {
	key := strings.Join(rootSuffixes, "\x00")
	if r, ok := g.reach[key]; ok {
		return r
	}
	seen := make(map[string]bool)
	var queue []string
	for from := range g.edges {
		for _, suf := range rootSuffixes {
			if strings.HasSuffix(from, suf) {
				seen[from] = true
				queue = append(queue, from)
				break
			}
		}
	}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, next := range g.edges[cur] {
			if !seen[next] {
				seen[next] = true
				queue = append(queue, next)
			}
		}
	}
	g.reach[key] = seen
	return seen
}
