// Package lint is the repo's static-analysis layer: a small go/analysis
// style framework built on the standard library's go/ast, go/types and
// go/importer, plus the four project analyzers that machine-check the
// invariants DESIGN.md only documents — the frozen-message lifecycle
// (§8), seed-determinism (§2, §9), hot-path allocations (§17) and
// goroutine supervision in the deployment plane (§13). Each diagnostic
// keeps its place through a catch: its analyzer's fixture holds a copy
// of a real pre-fix shape from this repo's history (a "// history:"
// case) that it still prints. The framework deliberately mirrors golang.org/x/tools'
// go/analysis shape (Analyzer, Pass, Reportf, testdata fixtures with
// "want" comments) so analyzers can migrate to the upstream framework
// wholesale if the dependency ever becomes available; it exists because
// this module vendors nothing and builds offline with the toolchain
// alone.
//
// Suppressions: a finding is silenced by a comment on the same line or
// the line directly above it, of the form
//
//	//lint:allow <analyzer> <reason>
//
// The reason is mandatory; cmd/pds-lint counts and prints every
// suppression so the zero-findings state is auditable, not assumed.
package lint

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one loaded, type-checked package as the analyzers see it.
type Package struct {
	// Path is the import path ("pds/internal/core", or a synthetic
	// "fixture/..." path for test fixtures).
	Path string
	// Dir is the directory the files were read from.
	Dir string
	// Fset maps token positions for Files and everything imported.
	Fset *token.FileSet
	// Files are the parsed source files, sorted by file name.
	Files []*ast.File
	// Types is the type-checked package.
	Types *types.Package
	// Info carries the type-checker's expression and object maps.
	Info *types.Info
}

// Loader parses and type-checks packages from source. One Loader shares
// a FileSet and a source importer across loads, so dependencies are
// type-checked once per process.
type Loader struct {
	fset *token.FileSet
	imp  types.Importer
}

// NewLoader returns a Loader with a fresh FileSet and source importer.
func NewLoader() *Loader {
	fset := token.NewFileSet()
	return &Loader{fset: fset, imp: importer.ForCompiler(fset, "source", nil)}
}

// Fset returns the loader's shared FileSet.
func (l *Loader) Fset() *token.FileSet { return l.fset }

// LoadDir parses and type-checks the non-test Go files of one directory
// as the package with the given import path. includeTests adds _test.go
// files of the same package (external _test packages are never loaded).
func (l *Loader) LoadDir(dir, path string, includeTests bool) (*Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") {
			continue
		}
		if strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
			continue
		}
		if !includeTests && strings.HasSuffix(name, "_test.go") {
			continue
		}
		// Honor build constraints (file suffixes and //go:build lines)
		// for the host platform, like the go tool would.
		if ok, err := build.Default.MatchFile(dir, name); err != nil || !ok {
			continue
		}
		names = append(names, name)
	}
	sort.Strings(names)
	if len(names) == 0 {
		return nil, fmt.Errorf("lint: no Go files in %s", dir)
	}

	var files []*ast.File
	pkgName := ""
	for _, name := range names {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		switch {
		case pkgName == "":
			pkgName = f.Name.Name
		case f.Name.Name != pkgName:
			// External test package or build-tag split; keep the
			// majority package (the first seen, which non-test loading
			// makes unambiguous) and skip the stray file.
			if strings.HasSuffix(f.Name.Name, "_test") {
				continue
			}
		}
		files = append(files, f)
	}

	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
	}
	conf := types.Config{Importer: l.imp}
	tpkg, err := conf.Check(path, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("lint: type-checking %s: %w", path, err)
	}
	return &Package{Path: path, Dir: dir, Fset: l.fset, Files: files, Types: tpkg, Info: info}, nil
}

// Expand resolves package patterns against a module root. Supported
// forms: "./..." (every package under root), "./dir/..." and plain
// "./dir". modPath is the module path from go.mod; the returned Target
// import paths are modPath-relative. testdata, vendor and hidden
// directories are skipped.
func Expand(root, modPath string, patterns []string) ([]Target, error) {
	seen := make(map[string]bool)
	var out []Target
	add := func(dir string) error {
		abs, err := filepath.Abs(dir)
		if err != nil {
			return err
		}
		if seen[abs] {
			return nil
		}
		seen[abs] = true
		rel, err := filepath.Rel(root, abs)
		if err != nil {
			return err
		}
		path := modPath
		if rel != "." {
			path = modPath + "/" + filepath.ToSlash(rel)
		}
		out = append(out, Target{Dir: abs, Path: path})
		return nil
	}
	for _, pat := range patterns {
		recursive := false
		if strings.HasSuffix(pat, "/...") {
			recursive = true
			pat = strings.TrimSuffix(pat, "/...")
			if pat == "." || pat == "" {
				pat = root
			}
		}
		if !filepath.IsAbs(pat) {
			pat = filepath.Join(root, pat)
		}
		if !recursive {
			if hasGoFiles(pat) {
				if err := add(pat); err != nil {
					return nil, err
				}
			}
			continue
		}
		err := filepath.WalkDir(pat, func(p string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			name := d.Name()
			if p != pat && (name == "testdata" || name == "vendor" ||
				strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			if hasGoFiles(p) {
				return add(p)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out, nil
}

// Target is one directory/import-path pair produced by Expand.
type Target struct {
	Dir  string
	Path string
}

func hasGoFiles(dir string) bool {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range entries {
		name := e.Name()
		if !e.IsDir() && strings.HasSuffix(name, ".go") &&
			!strings.HasSuffix(name, "_test.go") &&
			!strings.HasPrefix(name, ".") && !strings.HasPrefix(name, "_") {
			return true
		}
	}
	return false
}

// ModulePath reads the module path from root/go.mod.
func ModulePath(root string) (string, error) {
	data, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("lint: no module line in %s/go.mod", root)
}
