package scenario

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"pds/internal/metrics"
)

// figureRows runs the named figure of Figures at p and renders its
// series.
func figureRows(t *testing.T, name string, p Params) string {
	t.Helper()
	i := slices.IndexFunc(Figures, func(f Figure) bool { return f.Name == name })
	if i < 0 {
		t.Fatalf("no figure %s", name)
	}
	series, err := Figures[i].Run(p)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, s := range series {
		b.WriteString(s.String())
	}
	return b.String()
}

// TestFigureRunAverages drives Figure.Run with a synthetic figure whose
// run r reads recall r: three runs average to recall 1, the series
// name, labels and X are run 0's, the mean leaves every run's sample as
// it was, and fewer than one run is an error.
func TestFigureRunAverages(t *testing.T) {
	f := Figure{Name: "synthetic", run: func(p Params, r int) []*metrics.Series {
		s := &metrics.Series{Name: fmt.Sprintf("run %d", r)}
		s.Add(float64(r), fmt.Sprintf("point of run %d", r), metrics.Sample{Recall: float64(r)})
		return []*metrics.Series{s}
	}}
	series, err := f.Run(Params{Seed: 1, Runs: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 1 || len(series[0].Points) != 1 {
		t.Fatalf("got %d series, want 1 with 1 point", len(series))
	}
	s, pt := series[0], series[0].Points[0]
	if pt.Sample.Recall != 1 {
		t.Errorf("recall %v over runs 0, 1, 2, want their mean 1", pt.Sample.Recall)
	}
	if s.Name != "run 0" || pt.Label != "point of run 0" || pt.X != 0 {
		t.Errorf("series %q, point %q at x=%v: want run 0's", s.Name, pt.Label, pt.X)
	}
	runs, err := f.runSet(Params{Seed: 1, Runs: 3})
	if err != nil {
		t.Fatal(err)
	}
	meanOf(runs)
	for r, series := range runs {
		if got := series[0].Points[0].Sample.Recall; got != float64(r) {
			t.Errorf("run %d reads recall %v after the mean, want %d", r, got, r)
		}
	}
	for _, runs := range []int{0, -1} {
		if _, err := f.Run(Params{Runs: runs}); err == nil {
			t.Errorf("Runs %d: no error", runs)
		}
	}
}
