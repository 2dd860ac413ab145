// Command pds-bench regenerates every table and figure of the paper's
// evaluation (§V-4, §VI-B) on the simulated medium and prints the
// series. Each figure is a sub-command; `all` runs the full set.
//
// Usage:
//
//	pds-bench [-seed N] [-runs N] [-size MB] [-json] <figure>
//
// where <figure> is one of: fig3, fig4, fig5, fig6, fig7, fig8, fig9,
// fig9class, fig11, fig12, fig12class, fig13, fig15, fig16, saturation,
// leaky, ack, ablation, balance, chaos, disk, scale, stream, crowd,
// compare, all.
//
// `compare` is the strategy A/B harness: it runs a routing × caching
// matrix (-routings, -cachings; default: every registered strategy)
// over the -compare-scenarios cells (default: all of them) and prints
// one ranked table per scenario, best strategy pair first. -quick shrinks
// the cells to CI-smoke size. Each scenario lands in the JSON report as
// its own `compare/<scenario>` figure.
//
// With -json, machine-readable results — every metric row plus wall
// time and allocation counters per figure — are also written to
// BENCH_PDS.json, so runs can be diffed and tracked by tooling.
//
// Absolute numbers come from this repository's radio model, not the
// authors' testbed; EXPERIMENTS.md records how the shapes compare.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"pds/internal/metrics"
	"pds/internal/mobility"
	"pds/internal/scenario"
	"pds/internal/trace"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "pds-bench:", err)
		os.Exit(1)
	}
}

// splitList parses a comma-separated flag value, dropping empties.
func splitList(s string) []string {
	if s == "" {
		return nil
	}
	out := make([]string, 0, 4)
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

// jsonFile is where -json results land.
const jsonFile = "BENCH_PDS.json"

// figure is one regenerable figure or table: run produces the series.
type figure struct {
	name string
	desc string
	run  func() []*metrics.Series
}

// jsonPoint is one metric row of a series in machine-readable form.
type jsonPoint struct {
	X             float64                   `json:"x"`
	Label         string                    `json:"label"`
	Recall        float64                   `json:"recall"`
	LatencySec    float64                   `json:"latency_s"`
	OverheadBytes uint64                    `json:"overhead_bytes"`
	Rounds        float64                   `json:"rounds,omitempty"`
	Faults        *metrics.FaultCounters    `json:"faults,omitempty"`
	Disk          *metrics.DiskCounters     `json:"disk,omitempty"`
	QoE           *metrics.QoECounters      `json:"qoe,omitempty"`
	Strategy      *metrics.StrategyCounters `json:"strategy,omitempty"`
}

// jsonSeries is one figure line.
type jsonSeries struct {
	Name   string      `json:"name"`
	Points []jsonPoint `json:"points"`
}

// jsonFigure is one figure run: its metric rows plus cost counters.
type jsonFigure struct {
	Name        string       `json:"name"`
	Desc        string       `json:"desc"`
	WallSeconds float64      `json:"wall_seconds"`
	AllocBytes  uint64       `json:"alloc_bytes"`
	Allocs      uint64       `json:"allocs"`
	Series      []jsonSeries `json:"series"`
	// Scale carries the city-scale throughput numbers; only the
	// "scale" figure sets it.
	Scale *jsonScale `json:"scale,omitempty"`
}

// jsonScale records the city-scale run's simulator throughput.
type jsonScale struct {
	Nodes        int     `json:"nodes"`
	SimSeconds   float64 `json:"sim_seconds"`
	Events       uint64  `json:"events"`
	NodesPerSec  float64 `json:"nodes_per_sec"`
	EventsPerSec float64 `json:"events_per_sec"`
}

// jsonReport is the top-level BENCH_PDS.json document.
type jsonReport struct {
	Seed        int64        `json:"seed"`
	Runs        int          `json:"runs"`
	SizeMB      int          `json:"size_mb"`
	GoVersion   string       `json:"go_version"`
	GOMAXPROCS  int          `json:"gomaxprocs"`
	WallSeconds float64      `json:"wall_seconds"`
	Figures     []jsonFigure `json:"figures"`
}

func toJSONSeries(series []*metrics.Series) []jsonSeries {
	out := make([]jsonSeries, 0, len(series))
	for _, s := range series {
		js := jsonSeries{Name: s.Name}
		for _, p := range s.Points {
			jp := jsonPoint{
				X:             p.X,
				Label:         p.Label,
				Recall:        p.Sample.Recall,
				LatencySec:    p.Sample.Latency.Seconds(),
				OverheadBytes: p.Sample.OverheadBytes,
				Rounds:        p.Sample.Rounds,
			}
			if metrics.Any(p.Sample.Faults) {
				f := p.Sample.Faults
				jp.Faults = &f
			}
			jp.Disk = p.Sample.Disk
			jp.QoE = p.Sample.QoE
			jp.Strategy = p.Sample.Strategy
			js.Points = append(js.Points, jp)
		}
		out = append(out, js)
	}
	return out
}

// runFigure executes one figure, prints it, and returns its
// machine-readable record. Wall time and allocation counters come from
// runtime.MemStats deltas around the run (total allocated bytes and
// mallocs, not live heap), which is what the allocation-reduction work
// tracks.
func runFigure(f figure) jsonFigure {
	fmt.Printf("==== %s ====\n", f.desc)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	series := f.run()
	wall := time.Since(start)
	runtime.ReadMemStats(&after)
	for _, s := range series {
		fmt.Println(s)
	}
	return jsonFigure{
		Name:        f.name,
		Desc:        f.desc,
		WallSeconds: wall.Seconds(),
		AllocBytes:  after.TotalAlloc - before.TotalAlloc,
		Allocs:      after.Mallocs - before.Mallocs,
		Series:      toJSONSeries(series),
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("pds-bench", flag.ContinueOnError)
	seed := fs.Int64("seed", 1, "base random seed")
	runs := fs.Int("runs", 3, "runs to average per point (paper: 5)")
	sizeMB := fs.Int("size", 20, "item size in MB for retrieval figures")
	nodes := fs.Int("nodes", 10000, "population for the scale figure")
	simHour := fs.Duration("sim-time", time.Hour, "simulated duration for the scale figure")
	jsonOut := fs.Bool("json", false, "also write machine-readable results to "+jsonFile)
	traceOut := fs.String("trace-out", "",
		"additionally run one traced Figure-8 discovery (5 consumers, 5000 entries) and write its JSONL here")
	routings := fs.String("routings", "",
		"comma-separated routing strategies for the compare matrix (default: every registered one)")
	cachings := fs.String("cachings", "",
		"comma-separated caching strategies for the compare matrix (default: every registered one)")
	compareScens := fs.String("compare-scenarios", "",
		"comma-separated compare scenario cells: "+strings.Join(scenario.CompareScenarios, ",")+" (default: all)")
	quick := fs.Bool("quick", false, "shrink compare cells to CI-smoke size")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		fs.Usage()
		return fmt.Errorf("expected one figure name, got %d args", fs.NArg())
	}
	name := fs.Arg(0)

	// scaleResult is filled by the "scale" figure's run closure so its
	// throughput numbers land in the JSON report alongside the series.
	var scaleResult *scenario.CityResult

	figures := []figure{
		{name: "fig3", desc: "Figure 3: single-hop reception (raw / bucket / bucket+ack)", run: func() []*metrics.Series {
			return scenario.Fig03SingleHopReception(*seed, *runs)
		}},
		{name: "leaky", desc: "§V-2: leaky bucket LeakingRate sweep", run: func() []*metrics.Series {
			return []*metrics.Series{scenario.TabLeakyBucketSweep(*seed, *runs)}
		}},
		{name: "ack", desc: "§V-1: RetrTimeout / MaxRetrTime sweeps", run: func() []*metrics.Series {
			return scenario.TabAckSweep(*seed, *runs)
		}},
		{name: "saturation", desc: "§VI-B: single-round no-ack recall vs metadata amount", run: func() []*metrics.Series {
			return scenario.SaturationSweep(*seed, *runs)
		}},
		{name: "fig4", desc: "Figure 4: single-round PDD vs max hop count", run: func() []*metrics.Series {
			return []*metrics.Series{scenario.Fig04HopCount(*seed, *runs)}
		}},
		{name: "fig5", desc: "Figure 5: multi-round recall vs T and T_d", run: func() []*metrics.Series {
			return scenario.Fig05MultiRound(*seed, *runs)
		}},
		{name: "fig6", desc: "Figure 6: multi-round PDD vs metadata amount", run: func() []*metrics.Series {
			return []*metrics.Series{scenario.Fig06MetadataAmount(*seed, *runs)}
		}},
		{name: "fig7", desc: "Figure 7: sequential consumers", run: func() []*metrics.Series {
			return []*metrics.Series{scenario.Fig07SequentialConsumers(*seed, *runs)}
		}},
		{name: "fig8", desc: "Figure 8: simultaneous consumers", run: func() []*metrics.Series {
			return []*metrics.Series{scenario.Fig08SimultaneousConsumers(*seed, *runs)}
		}},
		{name: "fig9", desc: "Figures 9/10: PDD under Student Center mobility", run: func() []*metrics.Series {
			return []*metrics.Series{scenario.Fig0910MobilityPDD(mobility.StudentCenter(), *seed, *runs)}
		}},
		{name: "fig9class", desc: "Figures 9/10 (classroom variant, §VI-B.2 'similar results')", run: func() []*metrics.Series {
			return []*metrics.Series{scenario.Fig0910MobilityPDD(mobility.Classroom(), *seed, *runs)}
		}},
		{name: "fig11", desc: "Figure 11: PDR vs item size", run: func() []*metrics.Series {
			return []*metrics.Series{scenario.Fig11DataItemSize(*seed, *runs)}
		}},
		{name: "fig12", desc: "Figure 12: PDR under Student Center mobility", run: func() []*metrics.Series {
			return []*metrics.Series{scenario.Fig12MobilityPDR(mobility.StudentCenter(), *sizeMB, *seed, *runs)}
		}},
		{name: "fig12class", desc: "Figure 12 (classroom variant)", run: func() []*metrics.Series {
			return []*metrics.Series{scenario.Fig12MobilityPDR(mobility.Classroom(), *sizeMB, *seed, *runs)}
		}},
		{name: "fig13", desc: "Figures 13/14: PDR vs MDR across chunk redundancy", run: func() []*metrics.Series {
			return scenario.Fig1314Redundancy(*sizeMB, *seed, *runs)
		}},
		{name: "fig15", desc: "Figure 15: PDR sequential consumers", run: func() []*metrics.Series {
			return []*metrics.Series{scenario.Fig15PDRSequential(*sizeMB, *seed, *runs)}
		}},
		{name: "fig16", desc: "Figure 16: PDR simultaneous consumers", run: func() []*metrics.Series {
			return []*metrics.Series{scenario.Fig16PDRSimultaneous(*sizeMB, *seed, *runs)}
		}},
		{name: "ablation", desc: "Ablations: one-shot interests / no mixedcast / no bloom", run: func() []*metrics.Series {
			return scenario.Ablation(*seed, *runs)
		}},
		{name: "balance", desc: "Ablation: min-max balancing vs nearest-only", run: func() []*metrics.Series {
			return scenario.AblationNearestOnly(*sizeMB, *seed, *runs)
		}},
		{name: "chaos", desc: "Chaos scenarios: crash-the-hub / flash-crowd-churn / corrupt-10pct", run: func() []*metrics.Series {
			return []*metrics.Series{scenario.ChaosSeries(*seed, *runs)}
		}},
		{name: "disk", desc: "Disk-backed crash recovery (persistent chunk store)", run: func() []*metrics.Series {
			root, err := os.MkdirTemp("", "pds-disk-bench-")
			if err != nil {
				panic(err)
			}
			defer os.RemoveAll(root)
			return []*metrics.Series{scenario.DiskSeries(*seed, *runs, root)}
		}},
		{name: "stream", desc: "Workload: streaming QoE vs prefetch depth (clean / lossy)", run: func() []*metrics.Series {
			return []*metrics.Series{scenario.StreamSeries(*seed, *runs)}
		}},
		{name: "crowd", desc: "Workload: flash-crowd artifact distribution QoE (poisson / step)", run: func() []*metrics.Series {
			return []*metrics.Series{scenario.CrowdSeries(*seed, *runs)}
		}},
		{name: "scale", desc: "City scale: waypoint population, sim-hour throughput", run: func() []*metrics.Series {
			res := scenario.CityRun(scenario.CityConfig{Nodes: *nodes}, *simHour, *seed)
			scaleResult = &res
			fmt.Printf("%d nodes, %v simulated in %v wall: %.0f node-s/s, %.0f events/s (%d events, %d/%d discoveries answered)\n",
				res.Nodes, res.SimTime, res.Wall.Round(time.Millisecond),
				res.NodeSecondsPerSec, res.EventsPerSec, res.Events, res.Answered, res.Queries)
			s := &metrics.Series{Name: "city-scale"}
			s.Add(float64(res.Nodes), fmt.Sprintf("%d nodes", res.Nodes), res.Sample)
			return []*metrics.Series{s}
		}},
	}

	// The compare matrix lands as one figure per scenario cell
	// (`compare/<scenario>`), so pds-benchdiff tracks each cell's cost
	// independently of which scenarios a given run selected.
	cmpCfg := scenario.CompareConfig{
		Routings:  splitList(*routings),
		Cachings:  splitList(*cachings),
		Scenarios: splitList(*compareScens),
		SizeMB:    *sizeMB,
		Seed:      *seed,
		Runs:      *runs,
		Quick:     *quick,
	}.WithDefaults()
	if name == "all" || name == "compare" || strings.HasPrefix(name, "compare/") {
		if err := cmpCfg.Validate(); err != nil {
			return err
		}
	}
	for _, scen := range cmpCfg.Scenarios {
		scen := scen
		figures = append(figures, figure{
			name: "compare/" + scen,
			desc: fmt.Sprintf("Compare: routing×caching strategy matrix, ranked, on %s", scen),
			run: func() []*metrics.Series {
				s, err := scenario.CompareOne(scen, cmpCfg)
				if err != nil {
					panic(err)
				}
				return []*metrics.Series{s}
			},
		})
	}

	report := jsonReport{
		Seed:       *seed,
		Runs:       *runs,
		SizeMB:     *sizeMB,
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
	start := time.Now()
	ran := false
	for _, f := range figures {
		// `compare` selects every compare/<scenario> cell figure.
		if name == "all" || f.name == name ||
			(name == "compare" && strings.HasPrefix(f.name, "compare/")) {
			jf := runFigure(f)
			if f.name == "scale" && scaleResult != nil {
				jf.Scale = &jsonScale{
					Nodes:        scaleResult.Nodes,
					SimSeconds:   scaleResult.SimTime.Seconds(),
					Events:       scaleResult.Events,
					NodesPerSec:  scaleResult.NodeSecondsPerSec,
					EventsPerSec: scaleResult.EventsPerSec,
				}
			}
			report.Figures = append(report.Figures, jf)
			ran = true
			if f.name == name {
				break
			}
			fmt.Println()
		}
	}
	if !ran {
		known := make([]string, 0, len(figures))
		for _, f := range figures {
			known = append(known, f.name)
		}
		return fmt.Errorf("unknown figure %q (try: all, compare, %s)", name, strings.Join(known, ", "))
	}
	report.WallSeconds = time.Since(start).Seconds()
	if name == "all" {
		fmt.Printf("total wall time: %v\n", time.Since(start).Round(time.Second))
	}
	if *jsonOut {
		blob, err := json.MarshalIndent(&report, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(jsonFile, append(blob, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", jsonFile)
	}
	if *traceOut != "" {
		// Traced runs get a dedicated deployment — the figure sweeps
		// above run concurrently, which would interleave event order.
		sample, tracer := scenario.TracedFig08(*seed, 5, 5000, true, 0)
		f, err := os.Create(*traceOut)
		if err != nil {
			return err
		}
		events := tracer.Events()
		if err := trace.WriteJSONL(f, events); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("trace: fig8 recall=%.3f, %d events -> %s (dropped %d)\n",
			sample.Recall, len(events), *traceOut, tracer.Dropped())
	}
	return nil
}
