package scenario

import (
	"fmt"
	"os"
	"time"

	"pds/internal/attr"
	"pds/internal/core"
	"pds/internal/fault"
	"pds/internal/metrics"
	"pds/internal/wire"
)

// ChaosReport is the outcome of one chaos scenario: the protocol-level
// result plus every counter a soak test asserts on, and a deterministic
// metric row — two runs with the same seed must produce byte-identical
// rows.
type ChaosReport struct {
	// Retrieval is set by PDR scenarios, Discovery by PDD scenarios.
	Retrieval core.RetrievalResult
	Discovery core.DiscoveryResult
	// Done reports that the consumer callback fired before the run
	// deadline (the no-hang invariant).
	Done bool
	// Recall is delivered fraction: chunks for PDR, entries for PDD.
	Recall float64
	// Faults snapshots the injector counters.
	Faults fault.Stats
	// Consumer snapshots the consumer node's protocol counters.
	Consumer core.Stats
	// Sample is the run reduced to the standard metrics row.
	Sample metrics.Sample
	// Row is the deterministic one-line summary.
	Row string
}

// chaosConfig returns the core config chaos scenarios run under:
// recovery features on (retrieval deadline, loss-aware round
// extension), everything else at the paper defaults.
func chaosConfig(retrievalDeadline time.Duration) core.Config {
	cfg := core.DefaultConfig()
	cfg.RetrievalDeadline = retrievalDeadline
	cfg.ExtendRoundsOnLoss = true
	return cfg
}

// FaultCounters reads the fault row of a run under injector in: what
// the plan injected and how the medium and the consumer's routing
// reacted.
func (d *Deployment) FaultCounters(in *fault.Injector, consumer wire.NodeID) metrics.FaultCounters {
	fs := in.Stats()
	return metrics.FaultCounters{
		BurstsEntered: fs.BurstsEntered,
		Crashes:       fs.Crashes,
		CorruptFrames: d.Medium.Stats().CorruptFrames,
		BlacklistHits: d.Peers[consumer].Node.Stats().BlacklistSkips,
	}
}

// report attaches the fault, disk and strategy counters to a finished
// chaos run's sample (reduced from the run's start, mark 0) and renders
// its deterministic row.
func (d *Deployment) report(in *fault.Injector, consumer wire.NodeID, kind string, sample metrics.Sample, done bool, detail string) ChaosReport {
	sample.Faults = d.FaultCounters(in, consumer)
	row := fmt.Sprintf("%s seed=%d recall=%.4f latency=%s overhead=%s rounds=%.0f done=%v %s %s",
		kind, d.seed, sample.Recall, metrics.Seconds(sample.Latency), metrics.MB(sample.OverheadBytes),
		sample.Rounds, done, sample.Faults.String(), detail)
	if dc := d.DiskCounters(); dc != nil {
		sample.Disk = dc
		row += " " + dc.String()
	}
	if sc := d.StrategyCounters(); sc != nil {
		sample.Strategy = sc
		row += " " + sc.String()
	}
	return ChaosReport{
		Done:     done,
		Recall:   sample.Recall,
		Faults:   in.Stats(),
		Consumer: d.Peers[consumer].Node.Stats(),
		Sample:   sample,
		Row:      row,
	}
}

// retrievalReport is report for a one-consumer PDR scenario.
func (d *Deployment) retrievalReport(in *fault.Injector, consumer wire.NodeID, kind string, item attr.Descriptor, results []core.RetrievalResult, done bool) ChaosReport {
	res := results[0]
	rep := d.report(in, consumer, kind, d.pdrSample(results, item, 0), done,
		fmt.Sprintf("chunks=%d/%d missing=%v deadline=%v", len(res.Chunks), item.TotalChunks(), res.Missing, res.Deadline))
	rep.Retrieval = res
	return rep
}

// CrashTheHub is the headline chaos scenario: a PDR retrieval of
// itemBytes on the paper's grid while (a) a Gilbert–Elliott burst
// channel with p_bad = 0.35 replaces the smooth base loss and (b) the
// consumer's east neighbor — a first-hop relay almost every chunk
// stream crosses — crashes mid-retrieval, losing all volatile state,
// and restarts 30 virtual seconds later. Chunks are placed with
// redundancy 2 so the data survives the crash; the recovery question is
// whether routing does. The retrieval must either complete or return an
// enumerated partial result by its deadline — never hang.
func CrashTheHub(seed int64, itemBytes int) ChaosReport {
	return crashTheHub(seed, itemBytes, "", "")
}

// crashTheHub is CrashTheHub parameterized over the routing/caching
// strategy pair; empty names keep the node defaults (and a nil
// Sample.Strategy, so default rows stay byte-identical).
func crashTheHub(seed int64, itemBytes int, routing, caching string) ChaosReport {
	const deadline = 8 * time.Minute
	cfg := chaosConfig(deadline)
	cfg.Routing = routing
	cfg.Caching = caching
	d := Grid(10, 10, GridSpacing, Options{Seed: seed, Core: cfg})
	consumer := CenterID(10, 10)
	d.Pin(consumer)
	hub := consumer + 1 // east neighbor: on the shortest path of ~half the grid

	in := d.InstallFaults(fault.Plan{Seed: seed, Events: []fault.Event{
		{At: 2 * time.Second, Kind: fault.Burst, GE: fault.DefaultGE(0.35)},
		{At: 20 * time.Second, Kind: fault.Crash, Node: hub, Downtime: 30 * time.Second},
	}})

	item := ItemDescriptor("video", itemBytes, DefaultChunkSize)
	item = d.DistributeChunks(item, DefaultChunkSize, 2, consumer)
	res, done := d.Retrieve([]wire.NodeID{consumer}, item, false, deadline+time.Minute)
	return d.retrievalReport(in, consumer, "crash-the-hub", item, res, done)
}

// DiskCrashRecovery is CrashTheHub on a disk-backed deployment: every
// peer keeps its owned chunks in a persistent store under dataDir, so
// the crashed hub's data comes back through the diskstore recovery
// scan — the real crash model, instead of owned-data-survives-in-RAM.
// The report's Sample.Disk carries the deployment-wide store counters,
// including the recovery stats of the restarted node.
func DiskCrashRecovery(seed int64, itemBytes int, dataDir string) ChaosReport {
	const deadline = 8 * time.Minute
	d := Grid(10, 10, GridSpacing, Options{Seed: seed, Core: chaosConfig(deadline), DataDir: dataDir})
	defer d.Close()
	consumer := CenterID(10, 10)
	d.Pin(consumer)
	hub := consumer + 1

	in := d.InstallFaults(fault.Plan{Seed: seed, Events: []fault.Event{
		{At: 2 * time.Second, Kind: fault.Crash, Node: hub, Downtime: 10 * time.Second},
	}})

	item := ItemDescriptor("video", itemBytes, DefaultChunkSize)
	item = d.DistributeChunks(item, DefaultChunkSize, 2, consumer)
	// The hub owns data of its own, so its restart demonstrably replays
	// a non-empty log (chunk placement is random and may skip the hub).
	hubItem := ItemDescriptor("hub-notes", DefaultChunkSize, DefaultChunkSize)
	d.Peers[hub].Node.PublishItem(hubItem, make([]byte, DefaultChunkSize), DefaultChunkSize)
	res, done := d.Retrieve([]wire.NodeID{consumer}, item, false, deadline+time.Minute)
	// Let the scheduled restart fire before snapshotting the disk
	// counters — short retrievals can finish while the hub is down.
	d.Eng.Run(d.Eng.Now() + 15*time.Second)
	return d.retrievalReport(in, consumer, "disk-crash-recovery", item, res, done)
}

// FlashCrowdChurn models a flash crowd hitting a suddenly unstable
// network: entries are gossiped, then four consumers in the grid core
// discover simultaneously while three relay nodes crash at staggered
// times (two restart, one stays down). The report carries the mean
// recall over the crowd; the last consumer's discovery result is
// returned as Discovery.
func FlashCrowdChurn(seed int64, entries int) ChaosReport {
	const deadline = 4 * time.Minute
	d := Grid(8, 8, GridSpacing, Options{Seed: seed, Core: chaosConfig(0)})
	d.DistributeEntries(entries, 2)

	center := CenterID(8, 8)
	consumers := []wire.NodeID{center, center + 1, center - 8, center + 9}
	for _, c := range consumers {
		d.Pin(c)
	}
	in := d.InstallFaults(fault.Plan{Seed: seed, Events: []fault.Event{
		{At: 1 * time.Second, Kind: fault.Crash, Node: center - 1, Downtime: 20 * time.Second},
		{At: 2 * time.Second, Kind: fault.Crash, Node: center + 8, Downtime: 15 * time.Second},
		{At: 3 * time.Second, Kind: fault.Crash, Node: center - 9}, // never returns
	}})

	results, done := d.Discover(consumers, EntrySelector(), core.DiscoverOptions{}, deadline)
	// Let the scheduled restarts fire before snapshotting fault stats —
	// the crowd often finishes before the churned nodes come back.
	d.Eng.Run(d.Eng.Now() + 30*time.Second)

	// This scenario's rounds cell is the crowd's total, not its mean.
	sample := d.pddSample(results, entries, 0)
	sample.Rounds = 0
	for _, r := range results {
		sample.Rounds += float64(r.Rounds)
	}
	rep := d.report(in, center, "flash-crowd-churn", sample, done,
		fmt.Sprintf("consumers=%d entries=%d", len(consumers), entries))
	rep.Discovery = results[len(results)-1]
	return rep
}

// chaosSeries is the `pds-bench chaos` figure: the three chaos
// scenarios, one metric row each with its fault counters, so pds-bench
// -json rows record how much damage each run absorbed alongside what it
// still delivered.
func chaosSeries(p Params, r int) []*metrics.Series {
	s := &metrics.Series{Name: "chaos scenarios"}
	seed := p.seed(r)
	s.Add(1, "crash-the-hub", CrashTheHub(seed, 2<<20).Sample)
	s.Add(2, "flash-crowd-churn", FlashCrowdChurn(seed, 2000).Sample)
	s.Add(3, "corrupt-10pct", CorruptTenPercent(seed, 2000).Sample)
	return []*metrics.Series{s}
}

// diskSeries is the `pds-bench disk` figure: the disk-backed
// crash/recovery scenario as one metric row. Each run keeps its logs in
// a data directory of its own, removed when the run ends.
func diskSeries(p Params, r int) []*metrics.Series {
	dir, err := os.MkdirTemp("", "pds-disk-")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(dir)
	s := &metrics.Series{Name: "disk crash recovery"}
	s.Add(1, "disk-crash-recovery", DiskCrashRecovery(p.seed(r), 2<<20, dir).Sample)
	return []*metrics.Series{s}
}

// CorruptTenPercent runs a PDD discovery while 10% of all delivered
// frames arrive damaged (and are discarded by the MAC CRC) and another
// 2% arrive twice, exercising loss recovery and every dedup layer at
// once.
func CorruptTenPercent(seed int64, entries int) ChaosReport {
	const deadline = 4 * time.Minute
	d := Grid(8, 8, GridSpacing, Options{Seed: seed, Core: chaosConfig(0)})
	d.DistributeEntries(entries, 1)
	consumer := CenterID(8, 8)
	in := d.InstallFaults(fault.Plan{Seed: seed, Events: []fault.Event{
		{At: 0, Kind: fault.Corrupt, Rate: 0.10},
		{At: 0, Kind: fault.Duplicate, Rate: 0.02},
	}})

	res, done := d.Discover([]wire.NodeID{consumer}, EntrySelector(), core.DiscoverOptions{}, deadline)
	rep := d.report(in, consumer, "corrupt-10pct", d.pddSample(res, entries, 0), done,
		fmt.Sprintf("entries=%d/%d", len(res[0].Entries), entries))
	rep.Discovery = res[0]
	return rep
}
