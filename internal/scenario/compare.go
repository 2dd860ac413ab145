package scenario

import (
	"fmt"
	"slices"
	"sort"
	"time"

	"pds/internal/attr"
	"pds/internal/core"
	"pds/internal/metrics"
	"pds/internal/strategy"
	"pds/internal/wire"
	"pds/internal/workload"
)

// This file is the A/B evaluation harness behind `pds-bench compare`:
// every cell of a routing × caching strategy matrix runs the same
// scenario with the same seeds, is reduced to one metric row (strategy
// counters attached), and the rows of each scenario are ranked best
// first. Cells are averaged over runs like every other figure, so
// same-seed matrices reproduce byte-identically.

// CompareScenarios lists the scenario cells the harness runs, all of
// them by default: each is a cell some registered strategy's row
// separates on (TestEveryStrategySeparates).
var CompareScenarios = []string{"fig11", "sparse", "repeat", "pressure", "chaos", "stream", "crowd"}

// CompareConfig configures one strategy-matrix evaluation.
type CompareConfig struct {
	// Routings / Cachings are registered strategy names; the matrix is
	// their cross product. Empty slices select every registered one.
	Routings []string
	Cachings []string
	// Scenarios is the subset of CompareScenarios to run; empty selects
	// them all.
	Scenarios []string
	// SizeMB is the item size of the fig11, sparse and pressure cells
	// (<= 0: 1 MB).
	SizeMB int
	// Seed and Runs follow pds-bench semantics: Runs must be at least
	// 1, as for every figure.
	Seed int64
	Runs int
	// Quick shrinks every cell's workload for CI smoke runs.
	Quick bool
}

// WithDefaults fills the zero fields with the harness defaults. Runs
// has none: CompareOne refuses fewer than one run, as Figure.Run does.
func (c CompareConfig) WithDefaults() CompareConfig {
	if len(c.Routings) == 0 {
		c.Routings = strategy.RoutingNames()
	}
	if len(c.Cachings) == 0 {
		c.Cachings = strategy.CachingNames()
	}
	if len(c.Scenarios) == 0 {
		c.Scenarios = append([]string(nil), CompareScenarios...)
	}
	if c.SizeMB <= 0 {
		c.SizeMB = 1
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
// into a matrix cell: the paper defaults, every cache bounded at
// cacheCap bytes (0: unbounded), and the strategy pair selected
// explicitly, so every row carries self-describing strategy counters. A
// new compare cell is options + seeding + one call.
func gridCell(cacheCap int, cell func(d *Deployment) metrics.Sample) matrixCell {
	return func(seed int64, routing, caching string) metrics.Sample {
		c := core.DefaultConfig()
		c.CacheCap = cacheCap
		c.Routing = routing
		c.Caching = caching
		d := Grid(10, 10, GridSpacing, Options{Seed: seed, Core: c})
		s := cell(d)
		s.Strategy = d.StrategyCounters()
		return s
	}
}

// repeatCell has six consumers pull one hot 1 MB item, seeded at
// redundancy 3, one after another: within one 30 s window the item is
// asked for again and again, the demand a strategy that learns from
// past queries feeds on. The row covers all six pulls.
func repeatCell(d *Deployment) metrics.Sample {
	consumers := consumerIDs(d, 6, d.seed)
	item := d.seedClip(1, 3, consumers[0])
	mark := d.Medium.Stats().TxBytes
	var res []core.RetrievalResult
	for _, c := range consumers {
		r, _ := d.Retrieve([]wire.NodeID{c}, item, false, retrievalDeadline)
		res = append(res, r...)
	}
	return d.pdrSample(res, item, mark)
}

// pressureCell is cache pressure (§VII's "data chunk caching strategies
// based on their popularity"), run on caches bounded at half the item:
// two consumers pull popular item A, a third pulls one-off item B, then
// a fourth pulls A again. The row is that last pull, which is cheap
// only where A's chunks outlived B's in the relays' caches.
func pressureCell(d *Deployment, sizeMB int) metrics.Sample {
	consumers := consumerIDs(d, 4, d.seed)
	a := d.DistributeChunks(ItemDescriptor("popular", sizeMB<<20, DefaultChunkSize), DefaultChunkSize, 1, consumers[0])
	b := d.DistributeChunks(ItemDescriptor("oneoff", sizeMB<<20, DefaultChunkSize), DefaultChunkSize, 1, consumers[2])
	for i, item := range []attr.Descriptor{a, a, b} {
		d.Retrieve(consumers[i:i+1], item, false, retrievalDeadline)
	}
	return d.pdrTrial(a, false, consumers[3])
}

// compareCell resolves a scenario name to its cell runner.
func compareCell(scen string, cfg CompareConfig) (matrixCell, error) {
	sizeMB := cfg.SizeMB
	if cfg.Quick {
		sizeMB = 1
	}
	switch scen {
	case "fig11":
		// The Figure 11 pull seeded at redundancy 2, so routing
		// strategies have real route choices.
		return gridCell(0, func(d *Deployment) metrics.Sample { return fig11Cell(d, sizeMB, 2, false) }), nil
	case "sparse":
		// The Figure 11 pull at the figure's own redundancy 1: one copy
		// of each chunk, so every route is the only one.
		return gridCell(0, func(d *Deployment) metrics.Sample { return fig11Cell(d, sizeMB, 1, false) }), nil
	case "repeat":
		return gridCell(0, repeatCell), nil
	case "pressure":
		return gridCell(sizeMB<<19, func(d *Deployment) metrics.Sample { return pressureCell(d, sizeMB) }), nil
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
	if err := checkRuns("compare/"+scen, cfg.Runs); err != nil {
		return nil, err
	}
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
