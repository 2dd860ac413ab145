package main

import (
	"os"
	"strings"
	"testing"

	"pds/internal/scenario"
)

// TestRunRejectsFewerThanOneRun: a point averaged over no runs measured
// nothing, so -runs below 1 is an error before any figure runs.
func TestRunRejectsFewerThanOneRun(t *testing.T) {
	for _, runs := range []string{"0", "-1"} {
		if err := run([]string{"-runs", runs, "fig4"}); err == nil {
			t.Errorf("-runs %s fig4: no error", runs)
		}
	}
}

// TestDocListsEveryFigure: the package comment names the figures of
// scenario.Figures in table order.
func TestDocListsEveryFigure(t *testing.T) {
	src, err := os.ReadFile("main.go")
	if err != nil {
		t.Fatal(err)
	}
	text := strings.ReplaceAll(string(src), "\n// ", " ")
	_, doc, _ := strings.Cut(text, "where <figure> is one of: ")
	doc, _, ok := strings.Cut(doc, " (the scenario.Figures table")
	if !ok {
		t.Fatal("main.go's package comment lost its figure list")
	}
	listed := strings.Split(doc, ", ")
	var want []string
	for _, f := range scenario.Figures {
		want = append(want, f.Name)
	}
	if strings.Join(listed, " ") != strings.Join(want, " ") {
		t.Errorf("package comment lists %v, scenario.Figures holds %v", listed, want)
	}
}

// TestRunRejectsUnknownFigure: a name that selects no figure, itself or
// under it, is an error before anything runs.
func TestRunRejectsUnknownFigure(t *testing.T) {
	err := run([]string{"-runs", "1", "compare/bogus"})
	if err == nil || !strings.Contains(err.Error(), `unknown figure "compare/bogus"`) {
		t.Fatalf("compare/bogus: err = %v, want the unknown figure error", err)
	}
}
