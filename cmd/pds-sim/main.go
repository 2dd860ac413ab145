// Command pds-sim runs one configurable PDS simulation and prints the
// §VI-A metrics: recall, latency, message overhead and rounds.
//
// Examples:
//
//	pds-sim -mode pdd -rows 10 -cols 10 -entries 5000
//	pds-sim -mode pdr -size 20 -redundancy 3
//	pds-sim -mode mdr -size 5
//	pds-sim -mode pdd -mobility student -scale 1.5
//	pds-sim -nodes 10000 -deadline 1h
//	pds-sim -workload stream:segs=16,segdur=4s,prefetch=3
//	pds-sim -workload crowd:clients=24,arrival=step:10s/16 -burst-loss 0.3
//	pds-sim -workload stream: -nodes 2000
//	pds-sim -mode pdr -size 5 -routing bfr -caching opportunistic
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"pds/internal/core"
	"pds/internal/fault"
	"pds/internal/link"
	"pds/internal/mobility"
	"pds/internal/scenario"
	"pds/internal/strategy"
	"pds/internal/trace"
	"pds/internal/wire"
	"pds/internal/workload"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "pds-sim:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("pds-sim", flag.ContinueOnError)
	mode := fs.String("mode", "pdd", "experiment: pdd | pdr | mdr")
	rows := fs.Int("rows", 10, "grid rows")
	cols := fs.Int("cols", 10, "grid cols")
	entries := fs.Int("entries", 5000, "distinct metadata entries (pdd)")
	redundancy := fs.Int("redundancy", 1, "copies of each entry/chunk")
	sizeMB := fs.Int("size", 20, "item size in MB (pdr/mdr)")
	nodes := fs.Int("nodes", 0,
		"city-scale population: run the waypoint city scenario with this many nodes for -deadline of simulated time (overrides -mode)")
	seed := fs.Int64("seed", 1, "random seed")
	mob := fs.String("mobility", "", "mobility profile: student | classroom (empty = static grid)")
	scale := fs.Float64("scale", 1.0, "mobility rate scale")
	deadline := fs.Duration("deadline", 15*time.Minute, "virtual-time budget")
	singleRound := fs.Bool("single-round", false, "limit PDD to one round")
	noAck := fs.Bool("no-ack", false, "disable per-hop ack/retransmission")
	txTrace := fs.Bool("trace", false, "print every transmission (virtual time, sender, type, size)")
	traceOut := fs.String("trace-out", "",
		"write hop-level trace events as JSONL to this file (analyze with pds-trace)")
	traceCap := fs.Int("trace-cap", 0, "per-node trace ring capacity (0 = default)")
	faultPlan := fs.String("fault-plan", "",
		"fault plan, e.g. 'crash:45@30s+20s;burst@10s+60s:0.4' (see internal/fault.ParsePlan)")
	crash := fs.String("crash", "", "crash one node: <node>@<at>[+<downtime>] (shorthand for -fault-plan crash:...)")
	burstLoss := fs.Float64("burst-loss", 0,
		"Gilbert–Elliott burst channel from t=0 with this bad-state loss probability")
	workloadSpec := fs.String("workload", "",
		"workload spec, e.g. 'stream:segs=16,segdur=4s' or 'crowd:clients=24,arrival=step:10s/16' (see internal/workload.ParseSpec; overrides -mode)")
	routing := fs.String("routing", "",
		"routing strategy for every peer: "+strings.Join(strategy.RoutingNames(), " | ")+" (empty = "+strategy.DefaultRouting+" default)")
	caching := fs.String("caching", "",
		"cache admission strategy for every peer (the cache evicts oldest first): "+strings.Join(strategy.CachingNames(), " | ")+" (empty = "+strategy.DefaultCaching+" default)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := strategy.Check(*routing, *caching); err != nil {
		return err
	}
	strategySelected := *routing != "" || *caching != ""
	if strategySelected && *nodes > 0 {
		return fmt.Errorf("-routing/-caching are not supported for the city-scale scenario")
	}

	if *workloadSpec != "" {
		wspec, err := workload.ParseSpec(*workloadSpec)
		if err != nil {
			return err
		}
		plan, err := assemblePlan(*faultPlan, *crash, *burstLoss, *seed)
		if err != nil {
			return err
		}
		var t scenario.Topology
		if *nodes > 0 {
			t = scenario.CityTopology(scenario.CityConfig{Nodes: *nodes}, *seed)
		} else {
			t = scenario.GridTopology(*seed, *routing, *caching)
		}
		if len(plan.Events) > 0 {
			t.D.InstallFaults(plan)
		}
		var tracer *trace.Tracer
		if *traceOut != "" {
			tracer = t.D.EnableTracing(*traceCap)
		}
		if wspec.Kind == workload.Stream {
			fmt.Println(scenario.StreamingRun(t, wspec.Stream).Row)
		} else {
			fmt.Println(scenario.FlashCrowdRun(t, wspec.Crowd).Row)
		}
		return writeTrace(tracer, *traceOut)
	}

	if *nodes > 0 {
		res := scenario.CityRun(scenario.CityConfig{Nodes: *nodes}, *deadline, *seed)
		fmt.Printf("mode=city nodes=%d sim=%v wall=%v events=%d answered=%d/%d recall=%.3f latency=%.1fs overhead=%.2fMB throughput=%.0f node-s/s %.0f events/s\n",
			res.Nodes, res.SimTime, res.Wall.Round(time.Millisecond), res.Events,
			res.Answered, res.Queries, res.Sample.Recall, res.Sample.Latency.Seconds(),
			float64(res.Sample.OverheadBytes)/1e6, res.NodeSecondsPerSec, res.EventsPerSec)
		return nil
	}

	faultsRequested := *faultPlan != "" || *crash != "" || *burstLoss > 0
	opts := scenario.Options{Seed: *seed}
	if *singleRound || *noAck || faultsRequested || strategySelected {
		c := core.DefaultConfig()
		if *singleRound {
			c.MaxRounds = 1
		}
		if faultsRequested {
			// Under injected faults, run with the recovery features on:
			// retrievals degrade gracefully at the time budget instead of
			// hanging, and dark rounds extend the discovery.
			c.RetrievalDeadline = *deadline
			c.ExtendRoundsOnLoss = true
		}
		c.Routing = *routing
		c.Caching = *caching
		opts.Core = c
		if *noAck {
			l := link.DefaultConfig(nil)
			l.AckEnabled = false
			opts.Link = l
		}
	}

	var (
		d        *scenario.Deployment
		consumer = scenario.CenterID(*rows, *cols)
		initial  []wire.NodeID // a mobile area's initial population
	)
	if *mob != "" {
		var p mobility.Profile
		switch *mob {
		case "student":
			p = mobility.StudentCenter()
		case "classroom":
			p = mobility.Classroom()
		default:
			return fmt.Errorf("unknown mobility profile %q", *mob)
		}
		d, initial = scenario.MobileArea(p.Scale(*scale), 30*time.Minute, opts)
		consumer = initial[len(initial)/2]
	} else {
		d = scenario.Grid(*rows, *cols, scenario.GridSpacing, opts)
	}

	var tracer *trace.Tracer
	if *traceOut != "" {
		tracer = d.EnableTracing(*traceCap)
	}

	// Assemble and install the fault plan. The consumer is pinned first
	// so a plan cannot crash the measurement node out of the experiment.
	plan, err := assemblePlan(*faultPlan, *crash, *burstLoss, *seed)
	if err != nil {
		return err
	}
	var inj *fault.Injector
	if len(plan.Events) > 0 {
		d.Pin(consumer)
		inj = d.InstallFaults(plan)
	}

	if *txTrace {
		d.Medium.OnTransmit = func(from wire.NodeID, msg *wire.Message, size int) {
			kind := ""
			switch {
			case msg.Query != nil:
				kind = "/" + msg.Query.Kind.String()
			case msg.Response != nil:
				kind = "/" + msg.Response.Kind.String()
			case msg.Fragment != nil:
				kind = fmt.Sprintf("/frag %d/%d", msg.Fragment.Index+1, msg.Fragment.Count)
			}
			fmt.Printf("%12s node %3d tx %s%s %dB -> %v\n",
				d.Eng.Now().Round(time.Microsecond), from, msg.Type, kind, size, msg.Receivers())
		}
	}

	start := time.Now()
	consumers := []wire.NodeID{consumer}
	switch *mode {
	case "pdd":
		if *mob != "" {
			// Spread entries over the initially present nodes.
			for i := 0; i < *entries; i++ {
				id := initial[i%len(initial)]
				d.Peers[id].Node.PublishEntry(scenario.EntryDescriptor(i))
			}
		} else {
			d.DistributeEntries(*entries, *redundancy)
		}
		results, done := d.Discover(consumers, scenario.EntrySelector(), core.DiscoverOptions{}, *deadline)
		res := results[0]
		fmt.Printf("mode=pdd done=%v recall=%.3f latency=%.1fs rounds=%d overhead=%.2fMB wall=%v\n",
			done, float64(len(res.Entries))/float64(*entries), res.Latency.Seconds(), res.Rounds,
			float64(d.Medium.Stats().TxBytes)/1e6, time.Since(start).Round(time.Millisecond))
	case "pdr", "mdr":
		item := scenario.ItemDescriptor("clip", *sizeMB<<20, scenario.DefaultChunkSize)
		item = d.DistributeChunks(item, scenario.DefaultChunkSize, *redundancy, consumer)
		results, done := d.Retrieve(consumers, item, *mode == "mdr", *deadline)
		res := results[0]
		fmt.Printf("mode=%s done=%v complete=%v chunks=%d/%d latency=%.1fs cdi=%.1fs rounds=%d overhead=%.2fMB wall=%v\n",
			*mode, done, res.Complete, len(res.Chunks), item.TotalChunks(),
			res.Latency.Seconds(), res.CDILatency.Seconds(), res.Rounds,
			float64(d.Medium.Stats().TxBytes)/1e6, time.Since(start).Round(time.Millisecond))
	default:
		return fmt.Errorf("unknown mode %q", *mode)
	}
	if sc := d.StrategyCounters(); sc != nil {
		fmt.Printf("strategy: %s\n", sc)
	}
	if inj != nil {
		fsStats := inj.Stats()
		fmt.Printf("faults: %s restarts=%d departures=%d burst-losses=%d dup-frames=%d\n",
			d.FaultCounters(inj, consumer), fsStats.Restarts, fsStats.Departures, fsStats.BurstLosses,
			d.Medium.Stats().DupFrames)
	}
	return writeTrace(tracer, *traceOut)
}

// assemblePlan combines the -fault-plan spec, the -crash shorthand and
// the -burst-loss channel into one fault plan.
func assemblePlan(faultPlan, crash string, burstLoss float64, seed int64) (fault.Plan, error) {
	spec := faultPlan
	if crash != "" {
		if spec != "" {
			spec += ";"
		}
		spec += "crash:" + crash
	}
	plan := fault.Plan{Seed: seed}
	if spec != "" {
		parsed, err := fault.ParsePlan(spec)
		if err != nil {
			return plan, err
		}
		plan.Events = parsed.Events
	}
	if burstLoss > 0 {
		plan.Events = append(plan.Events, fault.Event{Kind: fault.Burst, GE: fault.DefaultGE(burstLoss)})
	}
	return plan, nil
}

// writeTrace dumps a tracer's events as JSONL to path. A nil tracer or
// empty path is a no-op.
func writeTrace(tracer *trace.Tracer, path string) error {
	if tracer == nil || path == "" {
		return nil
	}
	f, err := os.Create(path)
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
	fmt.Printf("trace: %d events -> %s (dropped %d)\n",
		len(events), path, tracer.Dropped())
	return nil
}
