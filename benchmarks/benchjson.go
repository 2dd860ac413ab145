package main

import (
	"encoding/json"
	"fmt"
	"os"
	"regexp"
)

// benchmarkJSON is the repo-root BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []declaredMetric `json:"end_to_end"`
	PerLayer []declaredMetric `json:"per_layer"`
}

type declaredMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

// loadBenchmarkJSON finds the declaration from either working
// directory the runner is started in: benchmarks/ (go run -C) or the
// repo root.
func loadBenchmarkJSON() (*benchmarkJSON, error) {
	var firstErr error
	for _, path := range []string{"../BENCHMARK.json", "BENCHMARK.json"} {
		b, err := os.ReadFile(path)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		var bj benchmarkJSON
		if err := json.Unmarshal(b, &bj); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		return &bj, nil
	}
	return nil, fmt.Errorf("BENCHMARK.json: %w", firstErr)
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// check validates the declaration against the contract's limits and
// against what this runner prints: the same workloads, the same metric
// names with the same units and directions.
func (bj *benchmarkJSON) check() error {
	if n := len(bj.Workloads); n < 2 || n > 8 {
		return fmt.Errorf("%d workloads, want 2–8", n)
	}
	if n := len(bj.EndToEnd); n < 1 || n > 16 {
		return fmt.Errorf("%d end-to-end metrics, want 1–16", n)
	}
	if n := len(bj.PerLayer); n < 1 || n > 128 {
		return fmt.Errorf("%d per-layer metrics, want 1–128", n)
	}
	if bj.RunSeconds < 1 || bj.RunSeconds > 60 {
		return fmt.Errorf("run_seconds %d, want 1–60", bj.RunSeconds)
	}
	used := map[string]bool{}
	name := func(n string) error {
		if !nameRE.MatchString(n) {
			return fmt.Errorf("name %q does not match %s", n, nameRE)
		}
		if used[n] {
			return fmt.Errorf("name %q used twice", n)
		}
		used[n] = true
		return nil
	}
	ws := workloads()
	if len(bj.Workloads) != len(ws) {
		return fmt.Errorf("%d workloads declared, runner has %d", len(bj.Workloads), len(ws))
	}
	for i, w := range bj.Workloads {
		if err := name(w.Name); err != nil {
			return err
		}
		if w.Name != ws[i].name() {
			return fmt.Errorf("workload %d is %q, runner has %q", i, w.Name, ws[i].name())
		}
		if w.Why == "" || len(w.Why) > 200 {
			return fmt.Errorf("workload %q: why must be 1–200 characters", w.Name)
		}
	}
	same := func(kind string, declared []declaredMetric, printed []metricDecl, bounded bool) error {
		if len(declared) != len(printed) {
			return fmt.Errorf("%s: %d declared, runner prints %d", kind, len(declared), len(printed))
		}
		for i, d := range declared {
			if err := name(d.Name); err != nil {
				return err
			}
			p := printed[i]
			if d.Name != p.Name || d.Unit != p.Unit || d.Better != p.Better {
				return fmt.Errorf("%s[%d]: declared %s/%s/%s, runner prints %s/%s/%s", kind, i, d.Name, d.Unit, d.Better, p.Name, p.Unit, p.Better)
			}
			switch {
			case bounded && (d.Bound == nil || *d.Bound <= 0 || *d.Bound > 0.25):
				return fmt.Errorf("%s %q: bound must be in (0, 0.25]", kind, d.Name)
			case !bounded && d.Bound != nil:
				return fmt.Errorf("%s %q: per-layer metrics carry no bound", kind, d.Name)
			}
		}
		return nil
	}
	if err := same("end_to_end", bj.EndToEnd, endToEnd, true); err != nil {
		return err
	}
	return same("per_layer", bj.PerLayer, perLayer, false)
}

// bounds returns each end-to-end metric's regression bound.
func (bj *benchmarkJSON) bounds() map[string]float64 {
	out := make(map[string]float64, len(bj.EndToEnd))
	for _, m := range bj.EndToEnd {
		if m.Bound != nil {
			out[m.Name] = *m.Bound
		}
	}
	return out
}
