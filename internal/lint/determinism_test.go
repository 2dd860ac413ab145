package lint

import (
	"go/build"
	"strings"
	"testing"
)

func TestDeterminismFixture(t *testing.T) {
	RunFixture(t, Determinism, "testdata/determinism")
}

func TestDeterminismStrictFixture(t *testing.T) {
	RunFixture(t, Determinism, "testdata/spatial")
}

func TestDeterminismStrictScope(t *testing.T) {
	cases := []struct {
		path string
		want bool
	}{
		{"pds/internal/spatial", true},
		{"fixture/spatial", true},
		{"pds/internal/strategy", true},
		{"fixture/strategy", true},
		{"pds/internal/core", false},
		{"pds/internal/scenario", false},
		{"pds/internal/radio", false},
	}
	for _, c := range cases {
		if got := determinismStrict(c.path); got != c.want {
			t.Errorf("determinismStrict(%q) = %v, want %v", c.path, got, c.want)
		}
	}
}

func TestDeterminismScope(t *testing.T) {
	cases := []struct {
		path, name string
		want       bool
	}{
		{"pds/internal/core", "core", true},
		{"pds/internal/scenario", "scenario", true},
		{"pds/internal/spatial", "spatial", true},
		{"pds/internal/wire", "wire", true},
		{"fixture/determinism", "fixture", true},
		{"pds", "pds", false},
		{"pds/cmd/pds-sim", "main", false},
		{"pds/examples/quickstart", "main", false},
		{"pds/internal/udptransport", "udptransport", false},
		{"pds/internal/fault", "fault", false},
		{"pds/internal/diskstore", "diskstore", false},
		{"pds/internal/lint", "lint", false},
	}
	for _, c := range cases {
		if got := determinismScoped(c.path, c.name); got != c.want {
			t.Errorf("determinismScoped(%q, %q) = %v, want %v", c.path, c.name, got, c.want)
		}
	}
}

// TestDeterminismGraphScope checks the path rule over the whole module:
// the simulation's packages are in scope, and the real-I/O edges, the
// commands, the examples and this package are out.
func TestDeterminismGraphScope(t *testing.T) {
	targets, err := Expand(mustAbs(t, "../.."), "pds", []string{"./..."})
	if err != nil {
		t.Fatalf("Expand: %v", err)
	}
	scoped := make(map[string]bool, len(targets))
	for _, tg := range targets {
		bp, err := build.ImportDir(tg.Dir, 0)
		if err != nil {
			t.Fatalf("%s: %v", tg.Path, err)
		}
		scoped[tg.Path] = determinismScoped(tg.Path, bp.Name)
		cmdOrExample := strings.HasPrefix(tg.Path, "pds/cmd/") || strings.HasPrefix(tg.Path, "pds/examples/")
		if scoped[tg.Path] && (cmdOrExample || bp.Name == "main") {
			t.Errorf("%s is in the deterministic core; commands and examples wire real clocks", tg.Path)
		}
	}
	for _, name := range []string{"scenario", "sim", "core", "wire", "clock", "radio", "link", "store"} {
		if path := "pds/internal/" + name; !scoped[path] {
			t.Errorf("%s is out of scope or missing from Expand, want in scope", path)
		}
	}
	out := []string{"pds"}
	for _, name := range []string{"face", "udptransport", "tracker", "origin", "fault", "diskstore", "lint"} {
		out = append(out, "pds/internal/"+name)
	}
	for _, path := range out {
		if in, loaded := scoped[path]; !loaded {
			t.Errorf("Expand missed %s", path)
		} else if in {
			t.Errorf("%s is in the deterministic core, want out", path)
		}
	}
}
