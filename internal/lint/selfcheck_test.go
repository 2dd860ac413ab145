package lint

import (
	"go/ast"
	"go/token"
	"os"
	"regexp"
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

// TestAnalyzerFixtureCoverage requires every analyzer's fixture to
// exercise both sides of the suppression machinery: at least one
// unsuppressed positive (the analyzer still catches its seeded
// violations) and at least one //lint:allow-suppressed case (the
// audited escape hatch keeps working for that analyzer's diagnostics).
// It also requires a catch: at least one unsuppressed finding inside a
// history case, so an analyzer keeps its place only while it still
// flags a shape this repo actually shipped.
func TestAnalyzerFixtureCoverage(t *testing.T) {
	for _, a := range All() {
		a := a
		t.Run(a.Name, func(t *testing.T) {
			dir := "testdata/" + a.Name
			l := NewLoader()
			pkg, err := l.LoadDir(dir, "fixture/"+a.Name, true)
			if err != nil {
				t.Fatalf("loading %s: %v", dir, err)
			}
			res := Run([]*Package{pkg}, []*Analyzer{a})
			var pos, sup, hist int
			for _, f := range res.Findings {
				if f.Analyzer != a.Name {
					continue
				}
				switch {
				case f.Suppressed:
					sup++
				case historyMarked(pkg, f.Pos):
					hist++
					pos++
				default:
					pos++
				}
			}
			if pos == 0 {
				t.Errorf("%s: no unsuppressed positive case in %s", a.Name, dir)
			}
			if sup == 0 {
				t.Errorf("%s: no //lint:allow-suppressed case in %s", a.Name, dir)
			}
			if hist == 0 {
				t.Errorf("%s: no unsuppressed finding in a // history: case in %s", a.Name, dir)
			}
		})
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
