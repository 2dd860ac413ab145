package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"
	"time"
)

// Analyzer is one named invariant check. Run inspects a single package
// and reports diagnostics through the Pass.
type Analyzer struct {
	// Name is the identifier used in reports and //lint:allow comments.
	Name string
	// Doc is a one-paragraph description of what the analyzer enforces.
	Doc string
	// Section names the DESIGN.md section the analyzer is the teeth for;
	// it is echoed in every diagnostic so a failing gate points straight
	// at the contract being broken.
	Section string
	// Run performs the analysis on one package.
	Run func(*Pass)
}

// Pass carries one (analyzer, package) unit of work.
type Pass struct {
	Analyzer *Analyzer
	Pkg      *Package
	diags    *[]Diagnostic
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Section:  p.Analyzer.Section,
		Pos:      p.Pkg.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// TypeOf is shorthand for the type-checker's expression type map.
func (p *Pass) TypeOf(e ast.Expr) types.Type {
	return p.Pkg.Info.TypeOf(e)
}

// Diagnostic is one raw analyzer finding, before suppression.
type Diagnostic struct {
	Analyzer string
	Section  string
	Pos      token.Position
	Message  string
}

// Finding is a diagnostic after suppression processing.
type Finding struct {
	Diagnostic
	// Suppressed marks findings silenced by a //lint:allow directive.
	Suppressed bool
	// Reason is the justification text of the matching directive.
	Reason string
}

// Directive is one parsed //lint:allow comment.
type Directive struct {
	Pos      token.Position
	Analyzer string
	Reason   string
	used     bool
}

// Result is the outcome of running analyzers over a set of packages.
type Result struct {
	// Findings holds every diagnostic, suppressed or not, sorted by
	// position. Stale //lint:allow directives appear here too, as
	// unsuppressed findings of the pseudo-analyzer "lintdirective": a
	// suppression that matches nothing either marks dead cleanup or a
	// directive that silently stopped guarding what it was written for,
	// and both should fail the gate, not scroll past as a warning.
	Findings []Finding
	// Unused lists the same stale directives structurally, for report
	// writers that want the parsed form rather than the finding text.
	Unused []Directive
	// Timings records each analyzer's cumulative wall time across every
	// package, in analyzer order — the data behind the lint-runtime
	// budget check.
	Timings []AnalyzerTiming
}

// AnalyzerTiming is one analyzer's total wall time over a Run.
type AnalyzerTiming struct {
	Analyzer string
	Elapsed  time.Duration
}

// Unsuppressed returns the findings not silenced by a directive.
func (r *Result) Unsuppressed() []Finding {
	var out []Finding
	for _, f := range r.Findings {
		if !f.Suppressed {
			out = append(out, f)
		}
	}
	return out
}

// Suppressed returns the findings silenced by a directive.
func (r *Result) Suppressed() []Finding {
	var out []Finding
	for _, f := range r.Findings {
		if f.Suppressed {
			out = append(out, f)
		}
	}
	return out
}

var allowRE = regexp.MustCompile(`^//\s*lint:allow\s+(\S+)(?:\s+(.*))?$`)

// directiveSection is the DESIGN.md contract behind the "lintdirective"
// pseudo-analyzer (malformed and stale //lint:allow comments).
const directiveSection = "DESIGN.md §12 (static analysis & enforced invariants)"

// parseDirectives extracts //lint:allow directives from a package's
// comments. Malformed directives (missing reason, unknown analyzer) are
// returned as diagnostics of the pseudo-analyzer "lintdirective" so they
// fail the gate instead of silently suppressing nothing.
func parseDirectives(pkg *Package, known map[string]bool) ([]*Directive, []Diagnostic) {
	var dirs []*Directive
	var bad []Diagnostic
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := allowRE.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				name, reason := m[1], strings.TrimSpace(m[2])
				switch {
				case !known[name]:
					bad = append(bad, Diagnostic{
						Analyzer: "lintdirective",
						Section:  directiveSection,
						Pos:      pos,
						Message:  fmt.Sprintf("//lint:allow names unknown analyzer %q", name),
					})
				case reason == "":
					bad = append(bad, Diagnostic{
						Analyzer: "lintdirective",
						Section:  directiveSection,
						Pos:      pos,
						Message:  fmt.Sprintf("//lint:allow %s has no reason; suppressions must be justified", name),
					})
				default:
					dirs = append(dirs, &Directive{Pos: pos, Analyzer: name, Reason: reason})
				}
			}
		}
	}
	return dirs, bad
}

// Run executes every analyzer over every package and resolves
// suppressions. Diagnostics match a directive with the same analyzer
// name in the same file on the same line or the line directly above.
func Run(pkgs []*Package, analyzers []*Analyzer) *Result {
	known := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		known[a.Name] = true
	}

	elapsed := make([]time.Duration, len(analyzers))
	var diags []Diagnostic
	var dirs []*Directive
	for _, pkg := range pkgs {
		d, bad := parseDirectives(pkg, known)
		dirs = append(dirs, d...)
		diags = append(diags, bad...)
		for i, a := range analyzers {
			start := time.Now()
			a.Run(&Pass{Analyzer: a, Pkg: pkg, diags: &diags})
			elapsed[i] += time.Since(start)
		}
	}

	// Index directives by (file, analyzer, line) for O(1) lookup.
	type key struct {
		file     string
		analyzer string
		line     int
	}
	idx := make(map[key]*Directive, len(dirs))
	for _, d := range dirs {
		idx[key{d.Pos.Filename, d.Analyzer, d.Pos.Line}] = d
	}

	res := &Result{}
	for _, dg := range diags {
		f := Finding{Diagnostic: dg}
		if dg.Analyzer != "lintdirective" {
			for _, line := range []int{dg.Pos.Line, dg.Pos.Line - 1} {
				if d, ok := idx[key{dg.Pos.Filename, dg.Analyzer, line}]; ok {
					f.Suppressed = true
					f.Reason = d.Reason
					d.used = true
					break
				}
			}
		}
		res.Findings = append(res.Findings, f)
	}
	for _, d := range dirs {
		if !d.used {
			res.Unused = append(res.Unused, *d)
			res.Findings = append(res.Findings, Finding{Diagnostic: Diagnostic{
				Analyzer: "lintdirective",
				Section:  directiveSection,
				Pos:      d.Pos,
				Message: fmt.Sprintf("stale //lint:allow %s suppresses nothing; delete it, or it will silently excuse the next real %s violation here",
					d.Analyzer, d.Analyzer),
			}})
		}
	}
	sort.Slice(res.Findings, func(i, j int) bool { return lessPos(res.Findings[i].Pos, res.Findings[j].Pos) })
	sort.Slice(res.Unused, func(i, j int) bool { return lessPos(res.Unused[i].Pos, res.Unused[j].Pos) })
	for i, a := range analyzers {
		res.Timings = append(res.Timings, AnalyzerTiming{Analyzer: a.Name, Elapsed: elapsed[i]})
	}
	return res
}

func lessPos(a, b token.Position) bool {
	if a.Filename != b.Filename {
		return a.Filename < b.Filename
	}
	if a.Line != b.Line {
		return a.Line < b.Line
	}
	return a.Column < b.Column
}
