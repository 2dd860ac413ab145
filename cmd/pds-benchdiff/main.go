// Command pds-benchdiff is the benchmark-regression gate: it compares
// a fresh BENCH_PDS.json against the committed baseline and fails
// (exit 1) when any figure's cost regresses beyond the threshold.
//
// Usage:
//
//	pds-benchdiff [-threshold 0.10] BENCH_BASELINE.json BENCH_PDS.json
//
// The gate is alloc/op: each figure's allocation count and allocated
// bytes. Figure sweeps are seeded and deterministic, so these repeat
// per seed on any machine and are compared directly. Wall time is
// printed beside them and never decides anything: it does not transfer
// between hosts, spreads by a fifth on one host, and as a share of the
// suite it moves whenever some other figure gets faster.
//
// Figures with too few allocations to compare are skipped, as are
// figures present in only one report — a new figure has no baseline to
// regress against and is reported as such.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
)

// report mirrors the BENCH_PDS.json fields the gate needs.
type report struct {
	Figures []figure `json:"figures"`
}

type figure struct {
	Name        string  `json:"name"`
	WallSeconds float64 `json:"wall_seconds"`
	AllocBytes  uint64  `json:"alloc_bytes"`
	Allocs      uint64  `json:"allocs"`
}

// minAllocs is the noise floor: a figure whose baseline allocates less
// is too small to compare meaningfully.
const minAllocs = 100_000

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "pds-benchdiff:", err)
		os.Exit(1)
	}
}

func load(path string) (*report, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(blob, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(r.Figures) == 0 {
		return nil, fmt.Errorf("%s: no figures", path)
	}
	return &r, nil
}

func run(args []string) error {
	fs := flag.NewFlagSet("pds-benchdiff", flag.ContinueOnError)
	threshold := fs.Float64("threshold", 0.10, "fail on regressions beyond this fraction")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 2 {
		fs.Usage()
		return fmt.Errorf("expected <baseline.json> <current.json>, got %d args", fs.NArg())
	}
	base, err := load(fs.Arg(0))
	if err != nil {
		return err
	}
	cur, err := load(fs.Arg(1))
	if err != nil {
		return err
	}

	if failed := diff(os.Stdout, base, cur, *threshold); failed > 0 {
		return fmt.Errorf("%d cost regression(s) beyond %.0f%%", failed, *threshold*100)
	}
	fmt.Printf("no regressions beyond %.0f%%\n", *threshold*100)
	return nil
}

// diff compares the current report against the baseline figure by
// figure, writes one line per compared axis — the figure's wall time,
// which is no verdict, printed on the first — and one notice per figure
// present in only one report to w, and returns the number of axes that
// regressed beyond threshold.
func diff(w io.Writer, base, cur *report, threshold float64) int {
	baseByName := make(map[string]figure, len(base.Figures))
	for _, f := range base.Figures {
		baseByName[f.Name] = f
	}

	failed := 0
	check := func(name, axis string, baseVal, curVal float64, wall string) {
		if baseVal <= 0 {
			return
		}
		delta := (curVal - baseVal) / baseVal
		mark := "ok"
		if delta > threshold {
			mark = "REGRESSION"
			failed++
		}
		fmt.Fprintf(w, "%-12s %-11s %12.4g -> %-12.4g %+6.1f%%  %s\n",
			name, axis, baseVal, curVal, delta*100, strings.TrimRight(fmt.Sprintf("%-10s%s", mark, wall), " "))
	}

	seen := make(map[string]bool, len(cur.Figures))
	for _, f := range cur.Figures {
		seen[f.Name] = true
		b, ok := baseByName[f.Name]
		if !ok {
			fmt.Fprintf(w, "%-12s new figure, no baseline — skipped\n", f.Name)
			continue
		}
		if b.Allocs >= minAllocs {
			wall := fmt.Sprintf("  wall %.3gs -> %.3gs", b.WallSeconds, f.WallSeconds)
			check(f.Name, "allocs", float64(b.Allocs), float64(f.Allocs), wall)
			check(f.Name, "alloc-bytes", float64(b.AllocBytes), float64(f.AllocBytes), "")
		}
	}
	for _, f := range base.Figures {
		if seen[f.Name] {
			continue
		}
		// compare/<scenario> figures are the strategy matrix's rows:
		// which cells a run selects is a harness choice (-compare-
		// scenarios), not a regression, so their absence is no notice.
		if strings.HasPrefix(f.Name, "compare/") {
			continue
		}
		fmt.Fprintf(w, "%-12s dropped from current report\n", f.Name)
	}
	return failed
}
