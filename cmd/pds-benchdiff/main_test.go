package main

import (
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
