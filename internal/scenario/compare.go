package scenario

import (
	"fmt"
	"slices"
	"sort"
	"time"

	"pds/internal/core"
	"pds/internal/metrics"
	"pds/internal/strategy"
	"pds/internal/workload"
)

// This file is the A/B evaluation harness behind `pds-bench compare`:
// every cell of a routing × caching strategy matrix runs the same
// scenario with the same seeds, is reduced to one metric row (strategy
// counters attached), and the rows of each scenario are ranked best
// first. Cells are averaged over runs like every other figure, so
// same-seed matrices reproduce byte-identically.

// CompareScenarios lists the scenario cells the harness can run.
var CompareScenarios = []string{"fig8", "fig11", "chaos", "stream", "crowd"}

// defaultCompareScenarios is the subset a plain `pds-bench compare` (or
// `all`) runs: the discovery, retrieval and chaos shapes. The workload
// cells (stream, crowd) are opt-in via -compare-scenarios.
var defaultCompareScenarios = []string{"fig8", "fig11", "chaos"}

// defaultCompareCachings pairs the FIFO default against the
// opportunistic placement strategy; lru/lfu stay selectable by flag.
var defaultCompareCachings = []string{"fifo", "opportunistic"}

// CompareConfig configures one strategy-matrix evaluation.
type CompareConfig struct {
	// Routings / Cachings are registered strategy names; the matrix is
	// their cross product. Empty slices select every registered routing
	// strategy and the fifo/opportunistic caching pair.
	Routings []string
	Cachings []string
	// Scenarios is the subset of CompareScenarios to run; empty selects
	// fig8, fig11 and chaos.
	Scenarios []string
	// SizeMB is the item size of the fig11 retrieval cell (<= 0: 1 MB).
	SizeMB int
	// Seed and Runs follow pds-bench semantics.
	Seed int64
	Runs int
	// Quick shrinks every cell's workload for CI smoke runs.
	Quick bool
}

// WithDefaults fills the zero fields with the harness defaults.
func (c CompareConfig) WithDefaults() CompareConfig {
	if len(c.Routings) == 0 {
		c.Routings = strategy.RoutingNames()
	}
	if len(c.Cachings) == 0 {
		c.Cachings = append([]string(nil), defaultCompareCachings...)
	}
	if len(c.Scenarios) == 0 {
		c.Scenarios = append([]string(nil), defaultCompareScenarios...)
	}
	if c.SizeMB <= 0 {
		c.SizeMB = 1
	}
	if c.Runs <= 0 {
		c.Runs = 1
	}
	return c
}

// Validate rejects unknown strategy or scenario names, listing the
// registered alternatives.
func (c CompareConfig) Validate() error {
	for _, r := range c.Routings {
		if err := strategy.Check(r, ""); err != nil {
			return err
		}
	}
	for _, ca := range c.Cachings {
		if err := strategy.Check("", ca); err != nil {
			return err
		}
	}
	for _, s := range c.Scenarios {
		if !slices.Contains(CompareScenarios, s) {
			return fmt.Errorf("unknown compare scenario %q (have %v)", s, CompareScenarios)
		}
	}
	return nil
}

// matrixCell runs one scenario under one routing × caching pair.
type matrixCell func(seed int64, routing, caching string) metrics.Sample

// gridCell lifts a figure cell — a function of a prepared 10×10 grid —
// into a matrix cell: the paper defaults with the strategy pair selected
// explicitly, so every row carries self-describing strategy counters. A
// new compare cell is options + seeding + one call.
func gridCell(cell func(d *Deployment) metrics.Sample) matrixCell {
	return func(seed int64, routing, caching string) metrics.Sample {
		c := core.DefaultConfig()
		c.Routing = routing
		c.Caching = caching
		d := Grid(10, 10, GridSpacing, Options{Seed: seed, Core: c})
		s := cell(d)
		s.Strategy = d.StrategyCounters()
		return s
	}
}

// compareCell resolves a scenario name to its cell runner.
func compareCell(scen string, cfg CompareConfig) (matrixCell, error) {
	switch scen {
	case "fig8":
		entries := 5000
		if cfg.Quick {
			entries = 1200
		}
		// The Figure 8 shape at its middle point: three simultaneous
		// consumers in the grid core.
		return gridCell(func(d *Deployment) metrics.Sample { return fig8Cell(d, d.seed, 3, entries) }), nil
	case "fig11":
		sizeMB := cfg.SizeMB
		if cfg.Quick {
			sizeMB = 1
		}
		// The Figure 11 pull seeded at redundancy 2, so routing
		// strategies have real route choices.
		return gridCell(func(d *Deployment) metrics.Sample { return fig11Cell(d, sizeMB, 2, false) }), nil
	case "chaos":
		itemBytes := 2 << 20
		if cfg.Quick {
			itemBytes = 1 << 20
		}
		return func(seed int64, routing, caching string) metrics.Sample {
			return crashTheHub(seed, itemBytes, routing, caching).Sample
		}, nil
	case "stream":
		var spec workload.StreamSpec
		if cfg.Quick {
			spec.Segments = 4
		}
		return func(seed int64, routing, caching string) metrics.Sample {
			return StreamingRun(GridTopology(seed, routing, caching), spec).Sample
		}, nil
	case "crowd":
		var spec workload.CrowdSpec
		if cfg.Quick {
			spec.Clients = 6
			spec.Arrival = workload.ArrivalSpec{Kind: workload.Step, At: 5 * time.Second, Count: 6}
		}
		return func(seed int64, routing, caching string) metrics.Sample {
			return FlashCrowdRun(GridTopology(seed, routing, caching), spec).Sample
		}, nil
	default:
		return nil, fmt.Errorf("unknown compare scenario %q (have %v)", scen, CompareScenarios)
	}
}

// betterSample ranks two cell rows: recall first (delivery is the
// paper's headline metric), then latency, then overhead.
func betterSample(a, b metrics.Sample) (better, worse bool) {
	switch {
	case a.Recall != b.Recall:
		return a.Recall > b.Recall, a.Recall < b.Recall
	case a.Latency != b.Latency:
		return a.Latency < b.Latency, a.Latency > b.Latency
	case a.OverheadBytes != b.OverheadBytes:
		return a.OverheadBytes < b.OverheadBytes, a.OverheadBytes > b.OverheadBytes
	}
	return false, false
}

// CompareOne runs the strategy matrix over one scenario and returns the
// ranked series `compare/<scenario>`: one point per routing×caching
// pair, best first, X carrying the 1-based rank.
func CompareOne(scen string, cfg CompareConfig) (*metrics.Series, error) {
	cfg = cfg.WithDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cell, err := compareCell(scen, cfg)
	if err != nil {
		return nil, err
	}
	type row struct {
		label  string
		sample metrics.Sample
	}
	rows := make([]row, 0, len(cfg.Routings)*len(cfg.Cachings))
	for _, rt := range cfg.Routings {
		for _, ca := range cfg.Cachings {
			samples := parMap(cfg.Runs, func(r int) metrics.Sample {
				return cell(cfg.Seed+int64(r)*101, rt, ca)
			})
			rows = append(rows, row{label: rt + "+" + ca, sample: metrics.Mean(samples)})
		}
	}
	sort.SliceStable(rows, func(i, j int) bool {
		better, worse := betterSample(rows[i].sample, rows[j].sample)
		if better || worse {
			return better
		}
		return rows[i].label < rows[j].label
	})
	s := &metrics.Series{Name: "compare/" + scen}
	for i, r := range rows {
		s.Add(float64(i+1), r.label, r.sample)
	}
	return s, nil
}
