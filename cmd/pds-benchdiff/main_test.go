package main

import (
	"encoding/json"
	"os/exec"
	"strings"
	"testing"
)

// fig builds a figure whose allocation axis is above the noise floor.
func fig(name string, wall float64, allocs uint64) figure {
	return figure{Name: name, WallSeconds: wall, Allocs: allocs, AllocBytes: allocs * 64}
}

func TestDiffNoRegression(t *testing.T) {
	base := &report{Figures: []figure{fig("pdd", 10, 2_000_000), fig("pdr", 10, 2_000_000)}}
	cur := &report{Figures: []figure{fig("pdd", 10.5, 2_050_000), fig("pdr", 9.5, 1_900_000)}}
	var out strings.Builder
	if failed := diff(&out, base, cur, 0.10); failed != 0 {
		t.Fatalf("failed = %d, want 0\n%s", failed, out.String())
	}
	if strings.Contains(out.String(), "REGRESSION") {
		t.Fatalf("unexpected regression mark:\n%s", out.String())
	}
}

func TestDiffDetectsRegression(t *testing.T) {
	base := &report{Figures: []figure{fig("pdd", 10, 2_000_000)}}
	cur := &report{Figures: []figure{fig("pdd", 10, 3_000_000)}} // +50% allocs
	var out strings.Builder
	failed := diff(&out, base, cur, 0.10)
	// Both allocation axes (count and bytes) regressed by 50%.
	if failed != 2 {
		t.Fatalf("failed = %d, want 2\n%s", failed, out.String())
	}
	if !strings.Contains(out.String(), "REGRESSION") {
		t.Fatalf("missing regression mark:\n%s", out.String())
	}
}

// TestDiffSkipsNewFigure: a figure present in the current report but
// absent from the baseline has nothing to regress against — it must be
// skipped with a notice, not failed, so a PR can land a new figure and
// its baseline update in one change.
func TestDiffSkipsNewFigure(t *testing.T) {
	base := &report{Figures: []figure{fig("pdd", 10, 2_000_000)}}
	cur := &report{Figures: []figure{fig("pdd", 10, 2_000_000), fig("stream", 5, 9_000_000)}}
	var out strings.Builder
	if failed := diff(&out, base, cur, 0.10); failed != 0 {
		t.Fatalf("failed = %d, want 0\n%s", failed, out.String())
	}
	if !strings.Contains(out.String(), "stream") ||
		!strings.Contains(out.String(), "new figure, no baseline — skipped") {
		t.Fatalf("missing skip notice for new figure:\n%s", out.String())
	}
}

func TestDiffNoticesDroppedFigure(t *testing.T) {
	base := &report{Figures: []figure{fig("pdd", 10, 2_000_000), fig("crowd", 5, 2_000_000)}}
	cur := &report{Figures: []figure{fig("pdd", 10, 2_000_000)}}
	var out strings.Builder
	if failed := diff(&out, base, cur, 0.10); failed != 0 {
		t.Fatalf("failed = %d, want 0\n%s", failed, out.String())
	}
	if !strings.Contains(out.String(), "crowd") ||
		!strings.Contains(out.String(), "dropped from current report") {
		t.Fatalf("missing dropped notice:\n%s", out.String())
	}
}

// TestDiffWallIsReportedNotGated: a figure ten times slower with the
// same allocations is no regression; both wall times are printed.
func TestDiffWallIsReportedNotGated(t *testing.T) {
	base := &report{Figures: []figure{fig("pdd", 10, 2_000_000), fig("pdr", 10, 2_000_000)}}
	cur := &report{Figures: []figure{fig("pdd", 100, 2_000_000), fig("pdr", 10, 2_000_000)}}
	var out strings.Builder
	if failed := diff(&out, base, cur, 0.10); failed != 0 {
		t.Fatalf("failed = %d, want 0\n%s", failed, out.String())
	}
	if !strings.Contains(out.String(), "wall 10s -> 100s") {
		t.Fatalf("wall times not printed:\n%s", out.String())
	}
}

// TestDiffSkipsAbsentCompareFigures: compare/<scenario> figures are the
// optional strategy-matrix rows — which cells a run selects is a
// harness choice, not a regression. A baseline regenerated with the
// matrix must not notice their absence.
func TestDiffSkipsAbsentCompareFigures(t *testing.T) {
	base := &report{Figures: []figure{
		fig("pdd", 10, 2_000_000),
		fig("pdr", 10, 2_000_000),
		fig("compare/fig8", 20, 2_000_000),
	}}
	cur := &report{Figures: []figure{
		fig("pdd", 10, 2_000_000),
		fig("pdr", 10, 2_000_000),
	}}
	var out strings.Builder
	if failed := diff(&out, base, cur, 0.10); failed != 0 {
		t.Fatalf("compare-less run flagged: failed = %d, want 0\n%s", failed, out.String())
	}
	if strings.Contains(out.String(), "dropped") {
		t.Fatalf("absent compare figure reported as dropped:\n%s", out.String())
	}
}

// TestDiffGatesCompareFigurePresentInBoth: when both reports carry a
// compare cell it is gated like any other figure.
func TestDiffGatesCompareFigurePresentInBoth(t *testing.T) {
	base := &report{Figures: []figure{fig("pdd", 10, 2_000_000), fig("compare/fig8", 10, 2_000_000)}}
	cur := &report{Figures: []figure{fig("pdd", 10, 2_000_000), fig("compare/fig8", 10, 3_000_000)}}
	var out strings.Builder
	if failed := diff(&out, base, cur, 0.10); failed != 2 {
		t.Fatalf("compare cell regression: failed = %d, want 2\n%s", failed, out.String())
	}
}

// TestDiffBelowNoiseFloor: tiny allocation counts are not compared at
// all.
func TestDiffBelowNoiseFloor(t *testing.T) {
	base := &report{Figures: []figure{fig("pdd", 100, 0), {Name: "tiny", WallSeconds: 0.01, Allocs: 10}}}
	cur := &report{Figures: []figure{fig("pdd", 100, 0), {Name: "tiny", WallSeconds: 1, Allocs: 90}}}
	var out strings.Builder
	if failed := diff(&out, base, cur, 0.10); failed != 0 {
		t.Fatalf("failed = %d, want 0\n%s", failed, out.String())
	}
	if strings.Contains(out.String(), "tiny") {
		t.Fatalf("below-floor figure was compared:\n%s", out.String())
	}
}

// TestDiffWallOnlyOnOneHost: wall time is printed only when both reports
// name the same host; reports from two hosts still gate on allocations.
func TestDiffWallOnlyOnOneHost(t *testing.T) {
	base := &report{Host: host{CPU: "cpu A", NProc: 2}, Figures: []figure{fig("pdd", 10, 2_000_000)}}
	cur := &report{Host: host{CPU: "cpu B", NProc: 2}, Figures: []figure{fig("pdd", 20, 3_000_000)}}
	var out strings.Builder
	if failed := diff(&out, base, cur, 0.10); failed != 2 {
		t.Fatalf("failed = %d, want 2\n%s", failed, out.String())
	}
	if strings.Contains(out.String(), "wall") {
		t.Fatalf("wall column across two hosts:\n%s", out.String())
	}
	cur.Host = base.Host
	out.Reset()
	diff(&out, base, cur, 0.10)
	if !strings.Contains(out.String(), "wall 10s -> 20s") {
		t.Fatalf("no wall column on one host:\n%s", out.String())
	}
}

// abReport is one pds-bench run of figure pdd: wall seconds, mallocs and
// one series of the given rows.
func abReport(wall float64, allocs uint64, rows ...string) *report {
	f := fig("pdd", wall, allocs)
	f.Series = []series{{Name: "s"}}
	for _, r := range rows {
		f.Series[0].Points = append(f.Series[0].Points, json.RawMessage(r))
	}
	return &report{Figures: []figure{f}}
}

// TestABPairs: -ab prints each pair, the medians and the pairs the change
// won, and says whether every row is identical — naming the ones that
// are not.
func TestABPairs(t *testing.T) {
	same := []*report{
		abReport(2, 100, `{"x": 1}`), abReport(1, 90, `{"x":1}`),
		abReport(3, 100, `{"x": 1}`), abReport(4, 90, `{"x": 1}`),
		abReport(5, 100, `{"x": 1}`), abReport(2, 90, `{"x": 1}`),
	}
	var out strings.Builder
	if differ := ab(&out, same); differ != 0 {
		t.Fatalf("identical rows reported as %d differences:\n%s", differ, out.String())
	}
	for _, want := range []string{"median     3.000s     2.000s", "change won 2 of 3 pairs", "every series row identical"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("missing %q:\n%s", want, out.String())
		}
	}
	moved := []*report{abReport(1, 100, `{"x":1}`, `{"x":2}`), abReport(1, 100, `{"x":1}`, `{"x":3}`)}
	out.Reset()
	if differ := ab(&out, moved); differ != 1 || !strings.Contains(out.String(), `pair 1 row 1 differs:
  - pdd/s {"x":2}
  + pdd/s {"x":3}`) {
		t.Fatalf("moved row: %d differences:\n%s", differ, out.String())
	}
}

// TestMakeABAtHEAD runs `make ab` against the checkout's own HEAD: on a
// tree that matches its commit, every series row must be identical. It
// needs git, make and a git checkout, and skips without them or under
// -short.
func TestMakeABAtHEAD(t *testing.T) {
	if testing.Short() {
		t.Skip("builds pds-bench twice")
	}
	for _, tool := range []string{"git", "make"} {
		if _, err := exec.LookPath(tool); err != nil {
			t.Skipf("no %s", tool)
		}
	}
	if err := exec.Command("git", "-C", "../..", "rev-parse", "--verify", "HEAD").Run(); err != nil {
		t.Skip("not a git checkout")
	}
	if out, _ := exec.Command("git", "-C", "../..", "status", "--porcelain").Output(); len(out) > 0 {
		t.Skip("the working tree differs from HEAD")
	}
	out, err := exec.Command("make", "-s", "-C", "../..", "ab", "REV=HEAD", "FIG=leaky", "PAIRS=1").CombinedOutput()
	if err != nil || !strings.Contains(string(out), "every series row identical") {
		t.Fatalf("make ab REV=HEAD: %v\n%s", err, out)
	}
}
