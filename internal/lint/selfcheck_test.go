package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// TestAnalyzerSections pins every analyzer's Section to a heading that
// actually exists in DESIGN.md: diagnostics cite the contract they
// enforce, and a renumbered or deleted section must fail here rather
// than leave the gate pointing at prose that no longer exists.
func TestAnalyzerSections(t *testing.T) {
	data, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatalf("reading DESIGN.md: %v", err)
	}
	headings := make(map[string]bool)
	for _, m := range regexp.MustCompile(`(?m)^## (\d+)\.`).FindAllStringSubmatch(string(data), -1) {
		headings[m[1]] = true
	}
	if len(headings) == 0 {
		t.Fatal("no '## N.' headings found in DESIGN.md")
	}
	secRE := regexp.MustCompile(`§(\d+)`)
	sections := make(map[string]string, len(All())+1)
	for _, a := range All() {
		sections[a.Name] = a.Section
	}
	sections["lintdirective"] = directiveSection
	for name, section := range sections {
		if !strings.HasPrefix(section, "DESIGN.md §") {
			t.Errorf("%s: Section %q does not cite DESIGN.md", name, section)
			continue
		}
		refs := secRE.FindAllStringSubmatch(section, -1)
		if len(refs) == 0 {
			t.Errorf("%s: Section %q names no §N", name, section)
		}
		for _, m := range refs {
			if !headings[m[1]] {
				t.Errorf("%s: Section cites §%s but DESIGN.md has no '## %s.' heading", name, m[1], m[1])
			}
		}
	}
}

// historyRE matches the doc-comment marker of a history case: a copy of
// a real pre-fix shape, named by the commit before the fix and the
// flagged line there.
var historyRE = regexp.MustCompile(`^//\s*history:\s+[0-9a-f]{7,40}\s+\S+:\d+$`)

// historyMarked reports whether pos lies in a function whose doc
// comment carries a history marker.
func historyMarked(pkg *Package, pos token.Position) bool {
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Doc == nil {
				continue
			}
			from, to := pkg.Fset.Position(fd.Pos()), pkg.Fset.Position(fd.End())
			if from.Filename != pos.Filename || pos.Line < from.Line || pos.Line > to.Line {
				continue
			}
			for _, c := range fd.Doc.List {
				if historyRE.MatchString(c.Text) {
					return true
				}
			}
		}
	}
	return false
}

// runOwnFixture runs a over its fixture, testdata/<name>, through the
// full pipeline (suppressions resolved).
func runOwnFixture(t *testing.T, a *Analyzer) (*Package, *Result) {
	t.Helper()
	dir := "testdata/" + a.Name
	pkg, err := NewLoader().LoadDir(dir, "fixture/"+a.Name, true)
	if err != nil {
		t.Fatalf("loading %s: %v", dir, err)
	}
	return pkg, Run([]*Package{pkg}, []*Analyzer{a})
}

// TestAnalyzerFixtureCoverage requires every analyzer's fixture to
// exercise both sides of the suppression machinery: at least one
// unsuppressed positive (the analyzer still catches its seeded
// violations) and at least one //lint:allow-suppressed case (the
// audited escape hatch keeps working for that analyzer's diagnostics).
func TestAnalyzerFixtureCoverage(t *testing.T) {
	for _, a := range All() {
		a := a
		t.Run(a.Name, func(t *testing.T) {
			_, res := runOwnFixture(t, a)
			var pos, sup int
			for _, f := range res.Findings {
				switch {
				case f.Analyzer != a.Name:
				case f.Suppressed:
					sup++
				default:
					pos++
				}
			}
			if pos == 0 {
				t.Errorf("%s: no unsuppressed positive case in testdata/%s", a.Name, a.Name)
			}
			if sup == 0 {
				t.Errorf("%s: no //lint:allow-suppressed case in testdata/%s", a.Name, a.Name)
			}
		})
	}
}

// reportFormats returns the format string of every Reportf call in an
// analyzer's source file.
func reportFormats(t *testing.T, file string) []string {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), file, nil, 0)
	if err != nil {
		t.Fatalf("parsing %s: %v", file, err)
	}
	var formats []string
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if sel, ok := call.Fun.(*ast.SelectorExpr); !ok || sel.Sel.Name != "Reportf" {
			return true
		}
		lit, ok := call.Args[1].(*ast.BasicLit)
		if !ok {
			t.Fatalf("%s: a Reportf format is not a string literal", file)
		}
		format, err := strconv.Unquote(lit.Value)
		if err != nil {
			t.Fatalf("%s: %v", file, err)
		}
		formats = append(formats, format)
		return true
	})
	return formats
}

// TestEveryDiagnosticHasHistory keeps a diagnostic only through a catch:
// every Reportf format string of an analyzer must print at least one
// unsuppressed finding inside a // history: case of its fixture — a
// copy of a shape this repo shipped and a later commit fixed or
// audited. A diagnostic with no such case has never caught anything.
func TestEveryDiagnosticHasHistory(t *testing.T) {
	verb := regexp.MustCompile(`%[a-z]`)
	for _, a := range All() {
		formats := reportFormats(t, a.Name+".go")
		if len(formats) == 0 {
			t.Errorf("%s: no Reportf calls found in %s.go", a.Name, a.Name)
		}
		pkg, res := runOwnFixture(t, a)
		for _, format := range formats {
			parts := verb.Split(format, -1)
			for i := range parts {
				parts[i] = regexp.QuoteMeta(parts[i])
			}
			re := regexp.MustCompile("^" + strings.Join(parts, ".*") + "$")
			caught := false
			for _, f := range res.Findings {
				if f.Analyzer == a.Name && !f.Suppressed && re.MatchString(f.Message) && historyMarked(pkg, f.Pos) {
					caught = true
					break
				}
			}
			if !caught {
				t.Errorf("%s: no // history: case in testdata/%s prints %q", a.Name, a.Name, format)
			}
		}
	}
}

// TestRepoSelfCheck runs every analyzer over the whole module — the
// same sweep as `go run ./cmd/pds-lint ./...` — and fails on any
// unsuppressed finding or stale suppression. This makes plain
// `go test ./...` enforce the DESIGN.md §11 invariants even when the
// Makefile/CI lint step is bypassed.
func TestRepoSelfCheck(t *testing.T) {
	if testing.Short() {
		t.Skip("repo-wide type-check is slow; run without -short")
	}
	root := mustAbs(t, "../..")
	modPath, err := ModulePath(root)
	if err != nil {
		t.Fatalf("ModulePath: %v", err)
	}
	targets, err := Expand(root, modPath, []string{"./..."})
	if err != nil {
		t.Fatalf("Expand: %v", err)
	}
	loader := NewLoader()
	var pkgs []*Package
	for _, tg := range targets {
		pkg, err := loader.LoadDir(tg.Dir, tg.Path, false)
		if err != nil {
			t.Fatalf("loading %s: %v", tg.Path, err)
		}
		pkgs = append(pkgs, pkg)
	}
	res := Run(pkgs, All())
	for _, f := range res.Unsuppressed() {
		t.Errorf("%s:%d: [%s] %s", f.Pos.Filename, f.Pos.Line, f.Analyzer, f.Message)
	}
	for _, d := range res.Unused {
		t.Errorf("%s:%d: unused //lint:allow %s (%s)", d.Pos.Filename, d.Pos.Line, d.Analyzer, d.Reason)
	}
	// The audited-suppression path must stay exercised: the repo carries
	// a handful of justified //lint:allow sites (clock bridge, commutative
	// Bloom adds, per-entry teardown); if this count drops to zero the
	// suppression machinery itself has likely regressed.
	if len(res.Suppressed()) == 0 {
		t.Error("no suppressed findings counted; expected the repo's audited //lint:allow sites")
	}
}
