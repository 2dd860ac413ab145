// Command pds-benchdiff is the benchmark-regression gate: it compares
// a fresh BENCH_PDS.json against the committed baseline and fails
// (exit 1) when any figure's cost regresses beyond the threshold.
//
// Usage:
//
//	pds-benchdiff [-threshold 0.10] BENCH_BASELINE.json BENCH_PDS.json
//	pds-benchdiff -ab base-1.json change-1.json [base-2.json change-2.json ...]
//
// The gate is alloc/op: each figure's allocation count and allocated
// bytes. Figure sweeps are seeded and deterministic, so these repeat
// per seed on any machine and are compared directly. Wall time is
// printed beside them, only when both reports name the same host, and
// never decides anything: it does not transfer between hosts, spreads
// by a fifth on one host, and as a share of the suite it moves whenever
// some other figure gets faster.
//
// -ab reads alternating parent/change runs of the same figures on one
// host (`make ab`) and prints each pair's wall time and mallocs, their
// medians, how many pairs the change won on wall time, and whether every
// series row is byte-identical between the sides (the rows that differ
// if not). It gates nothing either.
//
// Figures with too few allocations to compare are skipped, as are
// figures present in only one report — a new figure has no baseline to
// regress against and is reported as such.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"
)

// report mirrors the BENCH_PDS.json fields the gate and -ab need.
type report struct {
	Host    host     `json:"host"`
	Figures []figure `json:"figures"`
}

// host is the machine a report was measured on; reports predating the
// field read the zero host.
type host struct {
	CPU   string `json:"cpu"`
	NProc int    `json:"nproc"`
}

type figure struct {
	Name        string   `json:"name"`
	WallSeconds float64  `json:"wall_seconds"`
	AllocBytes  uint64   `json:"alloc_bytes"`
	Allocs      uint64   `json:"allocs"`
	Series      []series `json:"series"`
}

// series keeps each metric row as the bytes it was written as.
type series struct {
	Name   string            `json:"name"`
	Points []json.RawMessage `json:"points"`
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
	abMode := fs.Bool("ab", false, "summarize alternating base/change report pairs")
	if err := fs.Parse(args); err != nil {
		return err
	}
	reports := make([]*report, fs.NArg())
	for i := range reports {
		var err error
		if reports[i], err = load(fs.Arg(i)); err != nil {
			return err
		}
	}
	if *abMode {
		if len(reports) == 0 || len(reports)%2 != 0 {
			return fmt.Errorf("-ab expects base/change report pairs, got %d files", len(reports))
		}
		ab(os.Stdout, reports)
		return nil
	}
	if len(reports) != 2 {
		fs.Usage()
		return fmt.Errorf("expected <baseline.json> <current.json>, got %d args", len(reports))
	}
	if failed := diff(os.Stdout, reports[0], reports[1], *threshold); failed > 0 {
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
			wall := ""
			if base.Host == cur.Host {
				wall = fmt.Sprintf("  wall %.3gs -> %.3gs", b.WallSeconds, f.WallSeconds)
			}
			check(f.Name, "allocs", float64(b.Allocs), float64(f.Allocs), wall)
			check(f.Name, "alloc-bytes", float64(b.AllocBytes), float64(f.AllocBytes), "")
		}
	}
	for _, f := range base.Figures {
		if seen[f.Name] {
			continue
		}
		fmt.Fprintf(w, "%-12s dropped from current report\n", f.Name)
	}
	return failed
}

// ab prints the -ab summary of reports, base and change runs of the
// same figures alternating, and returns the number of rows that differ.
func ab(w io.Writer, reports []*report) int {
	var walls, mallocs [2][]float64
	won, differ := 0, 0
	fmt.Fprintf(w, "%-6s %10s %10s %14s %14s\n", "pair", "base wall", "wall", "base mallocs", "mallocs")
	for i, r := range reports {
		var wall, allocs float64
		for _, f := range r.Figures {
			wall += f.WallSeconds
			allocs += float64(f.Allocs)
		}
		walls[i%2], mallocs[i%2] = append(walls[i%2], wall), append(mallocs[i%2], allocs)
		if i%2 == 0 {
			continue
		}
		p := i / 2
		if walls[1][p] < walls[0][p] {
			won++
		}
		fmt.Fprintf(w, "%-6d %9.3fs %9.3fs %14.0f %14.0f\n", p+1, walls[0][p], walls[1][p], mallocs[0][p], mallocs[1][p])
		base, cur := rows(reports[i-1]), rows(r)
		for j := range max(len(base), len(cur)) {
			if b, c := at(base, j), at(cur, j); b != c {
				differ++
				fmt.Fprintf(w, "pair %d row %d differs:\n  - %s\n  + %s\n", p+1, j, b, c)
			}
		}
	}
	fmt.Fprintf(w, "%-6s %9.3fs %9.3fs %14.0f %14.0f\n", "median",
		median(walls[0]), median(walls[1]), median(mallocs[0]), median(mallocs[1]))
	fmt.Fprintf(w, "change won %d of %d pairs on wall time\n", won, len(walls[1]))
	if differ == 0 {
		fmt.Fprintln(w, "every series row identical")
	} else {
		fmt.Fprintf(w, "%d series rows differ\n", differ)
	}
	return differ
}

// rows lists a report's metric rows, each as figure/series and its
// compacted JSON.
func rows(r *report) []string {
	var out []string
	for _, f := range r.Figures {
		for _, s := range f.Series {
			for _, p := range s.Points {
				var b bytes.Buffer
				_ = json.Compact(&b, p) // p decoded, so it is valid JSON
				out = append(out, f.Name+"/"+s.Name+" "+b.String())
			}
		}
	}
	return out
}

// at is rows[i], or "(none)" past the end.
func at(rows []string, i int) string {
	if i < len(rows) {
		return rows[i]
	}
	return "(none)"
}

func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	return (s[(len(s)-1)/2] + s[len(s)/2]) / 2
}
