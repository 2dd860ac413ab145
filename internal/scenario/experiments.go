package scenario

import (
	"fmt"
	"slices"
	"time"

	"pds/internal/attr"
	"pds/internal/core"
	"pds/internal/link"
	"pds/internal/metrics"
	"pds/internal/mobility"
	"pds/internal/wire"
)

// This file declares every figure `pds-bench` regenerates once, in
// Figures: the paper's evaluation (§V-4, §VI-B) and this repository's
// ablations, chaos, disk and workload scenarios. A figure's run is one
// seeded run of its whole sweep, returning its series; Figure.Run owns
// runs, seeds, concurrency and the mean (DESIGN.md §4). It runs
// Params.Runs runs on parMap (see parallel.go), one fresh set of
// deployments each, and returns new series shaped like run 0's with
// every point's sample metrics.Mean over the runs, as the paper averages
// over 5 runs. Runs share no state, so every row is the one a
// sequential sweep gives for the same base seed.

// Params are what a figure runs at.
type Params struct {
	// Seed is the base seed each run derives its seeds from.
	Seed int64
	// Runs is how many runs every point averages (the paper: 5).
	Runs int
	// SizeMB is the item size of the retrieval figures (the paper: 20).
	SizeMB int
}

// seed is run r's deployment seed.
func (p Params) seed(r int) int64 { return p.Seed + int64(r)*101 }

// pick is run r's seed for drawing consumers from the center subgrid.
func (p Params) pick(r int) int64 { return p.Seed + int64(r) }

// grid is run r's 10×10 grid under the default configuration.
func (p Params) grid(r int) *Deployment {
	return Grid(10, 10, GridSpacing, Options{Seed: p.seed(r)})
}

// Figure is one regenerable figure or table.
type Figure struct {
	// Name is the figure's `pds-bench` sub-command.
	Name string
	// Desc titles its printout.
	Desc string
	// run is run r of the whole sweep. Every run returns the same
	// series, points, labels and X; only the samples differ.
	run func(p Params, r int) []*metrics.Series
}

// Run runs the figure p.Runs times, concurrently, and returns the mean
// of the runs (meanOf).
func (f Figure) Run(p Params) ([]*metrics.Series, error) {
	runs, err := f.runSet(p)
	if err != nil {
		return nil, err
	}
	return meanOf(runs), nil
}

// runSet runs the figure p.Runs times, concurrently, and returns every
// run's series, run r at index r.
func (f Figure) runSet(p Params) ([][]*metrics.Series, error) {
	if err := checkRuns(f.Name, p.Runs); err != nil {
		return nil, err
	}
	return parMap(p.Runs, func(r int) []*metrics.Series { return f.run(p, r) }), nil
}

// meanOf returns new series with run 0's names, labels and X, each
// point's sample the mean over the runs. The runs keep their samples.
func meanOf(runs [][]*metrics.Series) []*metrics.Series {
	samples := make([]metrics.Sample, len(runs))
	out := make([]*metrics.Series, len(runs[0]))
	for i, s := range runs[0] {
		m := &metrics.Series{Name: s.Name, Points: slices.Clone(s.Points)}
		for j := range m.Points {
			for r, series := range runs {
				samples[r] = series[i].Points[j].Sample
			}
			m.Points[j].Sample = metrics.Mean(samples)
		}
		out[i] = m
	}
	return out
}

// checkRuns refuses a figure fewer than one run: there is nothing to
// average.
func checkRuns(figure string, runs int) error {
	if runs < 1 {
		return fmt.Errorf("figure %s: %d runs, want at least 1", figure, runs)
	}
	return nil
}

// Figures is every figure `pds-bench` regenerates, in its `all` order.
var Figures = []Figure{
	{"fig3", "Figure 3: single-hop reception (raw / bucket / bucket+ack)", fig03SingleHopReception},
	{"leaky", "§V-2: leaky bucket LeakingRate sweep", tabLeakyBucketSweep},
	{"ack", "§V-1: RetrTimeout / MaxRetrTime sweeps", tabAckSweep},
	{"saturation", "§VI-B: single-round no-ack recall vs metadata amount", saturationSweep},
	{"fig4", "Figure 4: single-round PDD vs max hop count", fig04HopCount},
	{"fig5", "Figure 5: multi-round recall vs T and T_d", fig05MultiRound},
	{"fig6", "Figure 6: multi-round PDD vs metadata amount", fig06MetadataAmount},
	{"fig7", "Figure 7: sequential consumers", fig07SequentialConsumers},
	{"fig8", "Figure 8: simultaneous consumers", fig08SimultaneousConsumers},
	{"fig9", "Figures 9/10: PDD under Student Center mobility", fig0910MobilityPDD(mobility.StudentCenter())},
	{"fig9class", "Figures 9/10 (classroom variant, §VI-B.2 'similar results')", fig0910MobilityPDD(mobility.Classroom())},
	{"fig11", "Figure 11: PDR vs item size", fig11DataItemSize},
	{"fig12", "Figure 12: PDR under Student Center mobility", fig12MobilityPDR(mobility.StudentCenter())},
	{"fig12class", "Figure 12 (classroom variant)", fig12MobilityPDR(mobility.Classroom())},
	{"fig13", "Figures 13/14: PDR vs MDR across chunk redundancy", fig1314Redundancy},
	{"fig15", "Figure 15: PDR sequential consumers", fig15PDRSequential},
	{"fig16", "Figure 16: PDR simultaneous consumers", fig16PDRSimultaneous},
	{"ablation", "Ablations: one-shot interests / no mixedcast / no bloom", ablation},
	{"balance", "Ablation: min-max balancing vs nearest-only", ablationNearestOnly},
	{"chaos", "Chaos scenarios: crash-the-hub / flash-crowd-churn / corrupt-10pct", chaosSeries},
	{"disk", "Disk-backed crash recovery (persistent chunk store)", diskSeries},
	{"stream", "Workload: streaming QoE vs prefetch depth (clean / lossy)", streamSeries},
	{"crowd", "Workload: flash-crowd artifact distribution QoE (poisson / step)", crowdSeries},
}

// runPDD runs one PDD experiment on a fresh grid and returns the sample.
func runPDD(rows, cols, entries, redundancy int, opts Options) metrics.Sample {
	d := Grid(rows, cols, GridSpacing, opts)
	d.DistributeEntries(entries, redundancy)
	return d.pddTrial(entries, CenterID(rows, cols))
}

// singleRoundOptions returns the configuration for single-round PDD
// with or without ack/retransmission (§VI-B.1).
func singleRoundOptions(seed int64, ack bool) Options {
	c := core.DefaultConfig()
	c.MaxRounds = 1
	l := link.DefaultConfig(nil)
	l.AckEnabled = ack
	return Options{Seed: seed, Core: c, Link: l}
}

// receptionSample is run r of one single-hop configuration: its
// reception rate as the row's recall.
func receptionSample(cfg ReceptionConfig, p Params, r int) metrics.Sample {
	return metrics.Sample{Recall: SingleHopReception(cfg, p.Seed+int64(r)*31).ReceptionRate}
}

// fig03SingleHopReception regenerates Figure 3: reception rate of raw
// UDP, leaky bucket only, and leaky bucket + ack, versus the number of
// concurrent senders.
func fig03SingleHopReception(p Params, r int) []*metrics.Series {
	raw := &metrics.Series{Name: "raw-udp"}
	bucket := &metrics.Series{Name: "leaky-bucket"}
	both := &metrics.Series{Name: "bucket+ack"}
	for senders := 1; senders <= 4; senders++ {
		label := fmt.Sprintf("%d senders", senders)
		cfg := DefaultReception(senders)
		raw.Add(float64(senders), label, receptionSample(cfg, p, r))
		cfg.Link.PaceEnabled = true
		bucket.Add(float64(senders), label, receptionSample(cfg, p, r))
		cfg.Link.AckEnabled = true
		both.Add(float64(senders), label, receptionSample(cfg, p, r))
	}
	return []*metrics.Series{raw, bucket, both}
}

// tabLeakyBucketSweep regenerates the §V-2 leaky bucket parameter
// exploration: reception versus LeakingRate for two concurrent senders.
func tabLeakyBucketSweep(p Params, r int) []*metrics.Series {
	s := &metrics.Series{Name: "reception vs LeakingRate (2 senders)"}
	for _, mbps := range []float64{1, 2, 3, 4, 4.5, 5, 6, 7} {
		cfg := DefaultReception(2)
		cfg.Link.PaceEnabled = true
		cfg.Link.LeakRate = mbps * 1e6 / 8
		s.Add(mbps, fmt.Sprintf("%gMbps", mbps), receptionSample(cfg, p, r))
	}
	return []*metrics.Series{s}
}

// tabAckSweep regenerates the §V-1 ack parameter exploration: reception
// versus RetrTimeout and versus MaxRetrTime for two concurrent senders.
func tabAckSweep(p Params, r int) []*metrics.Series {
	acked := DefaultReception(2)
	acked.Link.PaceEnabled, acked.Link.AckEnabled = true, true
	byTimeout := &metrics.Series{Name: "reception vs RetrTimeout (2 senders)"}
	for _, ms := range []int{25, 50, 100, 200, 400} {
		cfg := acked
		cfg.Link.RetrTimeout = time.Duration(ms) * time.Millisecond
		byTimeout.Add(float64(ms), fmt.Sprintf("%dms", ms), receptionSample(cfg, p, r))
	}
	byRetries := &metrics.Series{Name: "reception vs MaxRetrTime (2 senders)"}
	for _, mr := range []int{0, 1, 2, 4, 6} {
		cfg := acked
		cfg.Link.MaxRetr = mr
		byRetries.Add(float64(mr), fmt.Sprintf("%d retries", mr), receptionSample(cfg, p, r))
	}
	return []*metrics.Series{byTimeout, byRetries}
}

// saturationSweep regenerates the §VI-B saturation observation:
// single-round, no-ack recall versus metadata amount at redundancy 1
// and 2 on the 10×10 grid.
func saturationSweep(p Params, r int) []*metrics.Series {
	out := make([]*metrics.Series, 0, 2)
	for _, redundancy := range []int{1, 2} {
		s := &metrics.Series{Name: fmt.Sprintf("recall @ redundancy %d", redundancy)}
		for _, amount := range []int{1000, 2500, 5000, 10000, 20000} {
			sample := runPDD(10, 10, amount, redundancy, singleRoundOptions(p.seed(r), false))
			s.Add(float64(amount), fmt.Sprintf("%d entries", amount), sample)
		}
		out = append(out, s)
	}
	return out
}

// fig04HopCount regenerates Figure 4: single-round (ack on) recall,
// latency and overhead as the grid grows 3×3 → 11×11 (max hop count
// 1 → 5), keeping 50 entries per node.
func fig04HopCount(p Params, r int) []*metrics.Series {
	s := &metrics.Series{Name: "single-round PDD vs max hop count"}
	for _, rows := range []int{3, 5, 7, 9, 11} {
		sample := runPDD(rows, rows, 50*rows*rows, 1, singleRoundOptions(p.seed(r), true))
		s.Add(float64(rows/2), fmt.Sprintf("%d hops (%dx%d)", rows/2, rows, rows), sample)
	}
	return []*metrics.Series{s}
}

// fig05MultiRound regenerates Figure 5: multi-round recall versus the
// window T and the new-round threshold T_d, with T_r = 0, 5000 entries.
func fig05MultiRound(p Params, r int) []*metrics.Series {
	out := make([]*metrics.Series, 0, 3)
	for _, td := range []float64{0, 0.1, 0.3} {
		s := &metrics.Series{Name: fmt.Sprintf("recall, T_d=%.1f", td)}
		for _, tSec := range []float64{0.2, 0.4, 0.6, 0.8, 1.0, 1.2} {
			c := core.DefaultConfig()
			c.Window = time.Duration(tSec * float64(time.Second))
			c.NewRoundRatio = td
			c.StopRatio = 0
			sample := runPDD(10, 10, 5000, 1, Options{Seed: p.seed(r), Core: c})
			s.Add(tSec, fmt.Sprintf("T=%.1fs", tSec), sample)
		}
		out = append(out, s)
	}
	return out
}

// fig06MetadataAmount regenerates Figure 6: multi-round PDD recall and
// latency (and overhead) versus metadata amount 5k → 20k.
func fig06MetadataAmount(p Params, r int) []*metrics.Series {
	s := &metrics.Series{Name: "multi-round PDD vs metadata amount"}
	for _, amount := range []int{5000, 10000, 15000, 20000} {
		s.Add(float64(amount), fmt.Sprintf("%d entries", amount), runPDD(10, 10, amount, 1, Options{Seed: p.seed(r)}))
	}
	return []*metrics.Series{s}
}

// fig07SequentialConsumers regenerates Figure 7: five consumers in the
// center 5×5 subgrid discover one after another; caching makes later
// consumers faster.
func fig07SequentialConsumers(p Params, r int) []*metrics.Series {
	const entries = 5000
	s := &metrics.Series{Name: "sequential consumers"}
	d := p.grid(r)
	d.DistributeEntries(entries, 1)
	for i, c := range consumerIDs(d, 5, p.pick(r)) {
		s.Add(float64(i+1), fmt.Sprintf("consumer %d", i+1), d.pddTrial(entries, c))
	}
	return []*metrics.Series{s}
}

// fig8Cell is one point of Figure 8 on a prepared 10×10 grid: `entries`
// entries at redundancy 1, and n consumers drawn from the center
// subgrid by pick all discovering at once.
func fig8Cell(d *Deployment, pick int64, n, entries int) metrics.Sample {
	d.DistributeEntries(entries, 1)
	return d.pddTrial(entries, consumerIDs(d, n, pick)...)
}

// fig08SimultaneousConsumers regenerates Figure 8: 1–5 consumers in the
// center subgrid all discover at once; mixedcast serves them jointly.
func fig08SimultaneousConsumers(p Params, r int) []*metrics.Series {
	s := &metrics.Series{Name: "simultaneous consumers"}
	for _, n := range []int{1, 2, 3, 4, 5} {
		s.Add(float64(n), fmt.Sprintf("%d consumers", n), fig8Cell(p.grid(r), p.pick(r), n, 5000))
	}
	return []*metrics.Series{s}
}

// consumerIDs picks n consumer ids from the center 5×5 subgrid (§VI-A),
// deterministically from the seed.
func consumerIDs(d *Deployment, n int, seed int64) []wire.NodeID {
	idx := mobility.CenterSubgridIndices(10, 10, 5)
	// Deterministic shuffle.
	rng := newRand(seed)
	rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
	out := make([]wire.NodeID, 0, n)
	for _, i := range idx {
		id := wire.NodeID(i + 1)
		if _, ok := d.Peers[id]; ok {
			out = append(out, id)
			if len(out) == n {
				break
			}
		}
	}
	return out
}

// fig0910MobilityPDD regenerates Figures 9/10: PDD recall and latency
// under the given mobility profile scaled ×0.5–×2.
func fig0910MobilityPDD(prof mobility.Profile) func(Params, int) []*metrics.Series {
	return func(p Params, r int) []*metrics.Series {
		s := &metrics.Series{Name: "PDD under mobility"}
		for _, scale := range []float64{0.5, 1.0, 1.5, 2.0} {
			s.Add(scale, fmt.Sprintf("x%.1f rates", scale), fig0910Cell(prof.Scale(scale), p.seed(r)))
		}
		return []*metrics.Series{s}
	}
}

// fig0910Cell is one run of Figures 9/10: 5000 entries on the initial
// population of the profile's area, and the middle node discovering
// after 30 s of churn.
func fig0910Cell(p mobility.Profile, seed int64) metrics.Sample {
	const entries = 5000
	d, ids := MobileArea(p, 10*time.Minute, Options{Seed: seed})
	distributeOn(d, ids, entries)
	consumer := ids[len(ids)/2]
	d.Pin(consumer)
	// Let some churn happen before the consumer asks.
	d.Eng.Run(30 * time.Second)
	return d.pddTrial(entries, consumer)
}

// distributeOn seeds entries uniformly on the given (initial) nodes.
func distributeOn(d *Deployment, ids []wire.NodeID, entries int) {
	rng := newRand(d.seed + 7)
	for i := 0; i < entries; i++ {
		id := ids[rng.Intn(len(ids))]
		if p, ok := d.Peers[id]; ok {
			p.Node.PublishEntry(EntryDescriptor(i))
		}
	}
}

// seedClip places a sizeMB item in 256 KB chunks on `redundancy` random
// nodes per chunk, never on exclude, and returns its descriptor.
func (d *Deployment) seedClip(sizeMB, redundancy int, exclude wire.NodeID) attr.Descriptor {
	item := ItemDescriptor("clip", sizeMB<<20, DefaultChunkSize)
	return d.DistributeChunks(item, DefaultChunkSize, redundancy, exclude)
}

// fig11Cell is one point of Figure 11 on a prepared 10×10 grid: the
// center consumer retrieves a sizeMB item seeded at the given
// redundancy, by PDR or by the MDR baseline.
func fig11Cell(d *Deployment, sizeMB, redundancy int, mdr bool) metrics.Sample {
	consumer := CenterID(10, 10)
	return d.pdrTrial(d.seedClip(sizeMB, redundancy, consumer), mdr, consumer)
}

// fig11DataItemSize regenerates Figure 11: PDR latency and overhead
// versus data item size 1–20 MB, redundancy 1.
func fig11DataItemSize(p Params, r int) []*metrics.Series {
	s := &metrics.Series{Name: "PDR vs item size"}
	for _, mb := range []int{1, 5, 10, 15, 20} {
		s.Add(float64(mb), fmt.Sprintf("%dMB", mb), fig11Cell(p.grid(r), mb, 1, false))
	}
	return []*metrics.Series{s}
}

// fig1314Redundancy regenerates Figures 13/14: PDR versus the MDR
// baseline as chunk redundancy grows 1–5 (20 MB item by default; use a
// smaller SizeMB to trade fidelity for bench time).
func fig1314Redundancy(p Params, r int) []*metrics.Series {
	pdr := &metrics.Series{Name: "PDR"}
	mdr := &metrics.Series{Name: "MDR"}
	for _, red := range []int{1, 2, 3, 4, 5} {
		label := fmt.Sprintf("%d copies", red)
		pdr.Add(float64(red), label, fig11Cell(p.grid(r), p.SizeMB, red, false))
		mdr.Add(float64(red), label, fig11Cell(p.grid(r), p.SizeMB, red, true))
	}
	return []*metrics.Series{pdr, mdr}
}

// fig12MobilityPDR regenerates Figure 12: PDR latency retrieving a
// SizeMB item under the mobility profile scaled ×0.5–×2. Chunks are
// seeded with three copies: the paper does not state the copy count
// for this figure, and with fewer copies a multi-minute transfer sees
// the only holders of some chunks walk away at the ×1.5–×2 rates —
// recall then measures data death, not protocol robustness.
func fig12MobilityPDR(prof mobility.Profile) func(Params, int) []*metrics.Series {
	return func(p Params, r int) []*metrics.Series {
		s := &metrics.Series{Name: "PDR under mobility"}
		for _, scale := range []float64{0.5, 1.0, 1.5, 2.0} {
			d, ids := MobileArea(prof.Scale(scale), 30*time.Minute, Options{Seed: p.seed(r)})
			consumer := ids[len(ids)/2]
			d.Pin(consumer)
			item := d.seedClip(p.SizeMB, 3, consumer)
			d.Eng.Run(10 * time.Second)
			s.Add(scale, fmt.Sprintf("x%.1f rates", scale), d.pdrTrial(item, false, consumer))
		}
		return []*metrics.Series{s}
	}
}

// fig15PDRSequential regenerates Figure 15: five consumers retrieve the
// same SizeMB item one after another; caching shortens later paths.
func fig15PDRSequential(p Params, r int) []*metrics.Series {
	s := &metrics.Series{Name: "PDR sequential consumers"}
	d := p.grid(r)
	consumers := consumerIDs(d, 5, p.pick(r))
	item := d.seedClip(p.SizeMB, 1, consumers[0])
	for i, c := range consumers {
		s.Add(float64(i+1), fmt.Sprintf("consumer %d", i+1), d.pdrTrial(item, false, c))
	}
	return []*metrics.Series{s}
}

// fig16PDRSimultaneous regenerates Figure 16: 1–5 consumers retrieve
// the same SizeMB item at the same time.
func fig16PDRSimultaneous(p Params, r int) []*metrics.Series {
	s := &metrics.Series{Name: "PDR simultaneous consumers"}
	for _, n := range []int{1, 2, 3, 4, 5} {
		d := p.grid(r)
		consumers := consumerIDs(d, n, p.pick(r))
		s.Add(float64(n), fmt.Sprintf("%d consumers", n), d.pdrTrial(d.seedClip(p.SizeMB, 1, consumers[0]), false, consumers...))
	}
	return []*metrics.Series{s}
}

// ablation runs every PDD ablation at 2 000 entries: baseline, one-shot
// interests (lingering off), no mixedcast, and no Bloom rewriting.
func ablation(p Params, r int) []*metrics.Series {
	const entries = 2000
	out := make([]*metrics.Series, 0, 4)
	for _, variant := range []string{"baseline", "one-shot interests", "no mixedcast", "no bloom rewrite"} {
		c := core.DefaultConfig()
		switch variant {
		case "one-shot interests":
			c.LingeringEnabled = false
		case "no mixedcast":
			c.MixedcastEnabled = false
		case "no bloom rewrite":
			c.BloomEnabled = false
		}
		s := &metrics.Series{Name: variant}
		s.Add(1, fmt.Sprintf("%d entries", entries), runPDD(10, 10, entries, 1, Options{Seed: p.seed(r), Core: c}))
		out = append(out, s)
	}
	return out
}

// ablationNearestOnly compares PDR with and without the min-max load
// balancing of §IV-B at redundancy 3, where balancing has routes to
// choose from.
func ablationNearestOnly(p Params, r int) []*metrics.Series {
	out := make([]*metrics.Series, 0, 2)
	for _, balanced := range []bool{true, false} {
		name := "balanced (min-max)"
		if !balanced {
			name = "nearest-only"
		}
		c := core.DefaultConfig()
		c.LoadBalanceEnabled = balanced
		d := Grid(10, 10, GridSpacing, Options{Seed: p.seed(r), Core: c})
		s := &metrics.Series{Name: name}
		s.Add(1, fmt.Sprintf("%dMB", p.SizeMB), fig11Cell(d, p.SizeMB, 3, false))
		out = append(out, s)
	}
	return out
}
