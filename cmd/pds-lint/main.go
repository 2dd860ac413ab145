// Command pds-lint runs the repo's four invariant analyzers
// (internal/lint) over package patterns and reports findings with the
// DESIGN.md section each one enforces: the frozen-message lifecycle,
// seed-determinism, hot-path allocations and goroutine supervision.
// `make verify` and CI run it before the test suite.
//
// Usage:
//
//	pds-lint [-tests] [-sarif report.sarif] [-budget 60s] [-q] [patterns ...]
//
// Patterns default to ./... resolved against the module root. Exit
// status is 1 when any unsuppressed finding remains (stale //lint:allow
// directives count) or the -budget wall-time gate is blown, 2 on usage
// or load errors. Suppressions (//lint:allow <analyzer> <reason>) are
// counted and printed so the zero-findings state is auditable, not
// assumed, and per-analyzer wall times are always reported so a slow
// analyzer is caught by inspection before it trips the budget.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"pds/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr *os.File) int {
	fs := flag.NewFlagSet("pds-lint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	includeTests := fs.Bool("tests", false, "also analyze _test.go files of each package")
	sarifOut := fs.String("sarif", "", "write a SARIF 2.1.0 report to this file (\"-\" for stdout)")
	budget := fs.Duration("budget", 0, "fail if the whole run (load + analyze) exceeds this wall time; 0 disables")
	quiet := fs.Bool("q", false, "suppress the per-suppression detail lines")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	start := time.Now()
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	root, err := moduleRoot()
	if err != nil {
		fmt.Fprintf(stderr, "pds-lint: %v\n", err)
		return 2
	}
	modPath, err := lint.ModulePath(root)
	if err != nil {
		fmt.Fprintf(stderr, "pds-lint: %v\n", err)
		return 2
	}
	targets, err := lint.Expand(root, modPath, patterns)
	if err != nil {
		fmt.Fprintf(stderr, "pds-lint: %v\n", err)
		return 2
	}

	loader := lint.NewLoader()
	var pkgs []*lint.Package
	for _, tg := range targets {
		pkg, err := loader.LoadDir(tg.Dir, tg.Path, *includeTests)
		if err != nil {
			fmt.Fprintf(stderr, "pds-lint: %v\n", err)
			return 2
		}
		pkgs = append(pkgs, pkg)
	}

	res := lint.Run(pkgs, lint.All())

	rel := func(p string) string {
		if r, err := filepath.Rel(root, p); err == nil && !strings.HasPrefix(r, "..") {
			return r
		}
		return p
	}

	// When the SARIF document goes to stdout it owns it; the human
	// lines move to stderr so the output stays machine-parseable.
	text := io.Writer(stdout)
	if *sarifOut == "-" {
		text = stderr
	}

	unsup := res.Unsuppressed()
	for _, f := range unsup {
		section := ""
		if f.Section != "" {
			section = fmt.Sprintf(" (enforces %s)", f.Section)
		}
		fmt.Fprintf(text, "%s:%d:%d: [%s] %s%s\n",
			rel(f.Pos.Filename), f.Pos.Line, f.Pos.Column, f.Analyzer, f.Message, section)
	}

	sup := res.Suppressed()
	if !*quiet {
		for _, f := range sup {
			fmt.Fprintf(text, "%s:%d: [%s] suppressed: %s — allowed: %s\n",
				rel(f.Pos.Filename), f.Pos.Line, f.Analyzer, f.Message, f.Reason)
		}
	}

	supByAnalyzer := make(map[string]int)
	for _, f := range sup {
		supByAnalyzer[f.Analyzer]++
	}
	elapsed := time.Since(start)
	fmt.Fprintf(text, "pds-lint: timings: %s; total %v (load + analyze)\n",
		timingSummary(res.Timings), elapsed.Round(time.Millisecond))
	fmt.Fprintf(text, "pds-lint: %d packages, %d findings, %d suppressed (%s)\n",
		len(pkgs), len(unsup), len(sup), suppressionSummary(supByAnalyzer))

	if *sarifOut != "" {
		if err := writeSARIF(buildSARIF(res, lint.All(), rel), *sarifOut, stdout); err != nil {
			fmt.Fprintf(stderr, "pds-lint: %v\n", err)
			return 2
		}
	}

	code := 0
	if len(unsup) > 0 {
		code = 1
	}
	if *budget > 0 && elapsed > *budget {
		fmt.Fprintf(stderr, "pds-lint: run took %v, over the %v budget — profile the analyzers (timings above) before raising it\n",
			elapsed.Round(time.Millisecond), *budget)
		code = 1
	}
	return code
}

// writeSARIF marshals the log as indented JSON to dest ("-" for stdout).
func writeSARIF(doc *sarifLog, dest string, stdout io.Writer) error {
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return fmt.Errorf("encoding report: %w", err)
	}
	data = append(data, '\n')
	if dest == "-" {
		_, err = stdout.Write(data)
		return err
	}
	if err := os.WriteFile(dest, data, 0o644); err != nil {
		return fmt.Errorf("writing report: %w", err)
	}
	return nil
}

// timingSummary renders per-analyzer wall times in run order.
func timingSummary(ts []lint.AnalyzerTiming) string {
	parts := make([]string, 0, len(ts))
	for _, t := range ts {
		parts = append(parts, fmt.Sprintf("%s %v", t.Analyzer, t.Elapsed.Round(time.Millisecond)))
	}
	if len(parts) == 0 {
		return "none"
	}
	return strings.Join(parts, ", ")
}

func suppressionSummary(m map[string]int) string {
	if len(m) == 0 {
		return "none"
	}
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	parts := make([]string, 0, len(names))
	for _, n := range names {
		parts = append(parts, fmt.Sprintf("%s: %d", n, m[n]))
	}
	return strings.Join(parts, ", ")
}

// moduleRoot walks up from the working directory to the nearest go.mod.
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod above %s", dir)
		}
		dir = parent
	}
}
