package scenario

import (
	"fmt"
	"time"

	"pds/internal/attr"
	"pds/internal/core"
	"pds/internal/link"
	"pds/internal/metrics"
	"pds/internal/mobility"
	"pds/internal/wire"
)

// This file holds one constructor per figure of the paper's evaluation
// (§V-4, §VI-B). Each returns metrics.Series ready for printing by
// cmd/pds-bench or asserting in tests. Runs are averaged over
// `runs` seeds, as the paper averages over 5 runs; independent runs
// execute concurrently via parMap (see parallel.go) with per-run seeds
// and output order unchanged, so every metric row is identical to the
// sequential sweep for the same base seed.

// runPDD runs one PDD experiment on a fresh grid and returns the sample.
func runPDD(rows, cols, entries, redundancy int, opts Options) metrics.Sample {
	d := Grid(rows, cols, GridSpacing, opts)
	d.DistributeEntries(entries, redundancy)
	return d.pddTrial(entries, CenterID(rows, cols))
}

// averagePDD repeats runPDD over seeds, one engine per run in parallel.
func averagePDD(rows, cols, entries, redundancy int, opts Options, runs int) metrics.Sample {
	samples := parMap(runs, func(r int) metrics.Sample {
		o := opts
		o.Seed = opts.Seed + int64(r)*101
		return runPDD(rows, cols, entries, redundancy, o)
	})
	return metrics.Mean(samples)
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

// Fig03SingleHopReception regenerates Figure 3: reception rate of raw
// UDP, leaky bucket only, and leaky bucket + ack, versus the number of
// concurrent senders.
func Fig03SingleHopReception(seed int64, runs int) []*metrics.Series {
	raw := &metrics.Series{Name: "raw-udp"}
	bucket := &metrics.Series{Name: "leaky-bucket"}
	both := &metrics.Series{Name: "bucket+ack"}
	for senders := 1; senders <= 4; senders++ {
		rates := parMap(runs, func(r int) [3]float64 {
			s := seed + int64(r)*31
			cr := DefaultReception(senders)
			cr.Link.PaceEnabled, cr.Link.AckEnabled = false, false
			cb := DefaultReception(senders)
			cb.Link.PaceEnabled = true
			ca := DefaultReception(senders)
			ca.Link.PaceEnabled, ca.Link.AckEnabled = true, true
			return [3]float64{
				SingleHopReception(cr, s).ReceptionRate,
				SingleHopReception(cb, s).ReceptionRate,
				SingleHopReception(ca, s).ReceptionRate,
			}
		})
		var rr, rb, ra float64
		for _, rt := range rates {
			rr += rt[0]
			rb += rt[1]
			ra += rt[2]
		}
		n := float64(runs)
		label := fmt.Sprintf("%d senders", senders)
		raw.Add(float64(senders), label, metrics.Sample{Recall: rr / n})
		bucket.Add(float64(senders), label, metrics.Sample{Recall: rb / n})
		both.Add(float64(senders), label, metrics.Sample{Recall: ra / n})
	}
	return []*metrics.Series{raw, bucket, both}
}

// TabLeakyBucketSweep regenerates the §V-2 leaky bucket parameter
// exploration: reception versus LeakingRate for two concurrent senders.
func TabLeakyBucketSweep(seed int64, runs int) *metrics.Series {
	s := &metrics.Series{Name: "reception vs LeakingRate (2 senders)"}
	for _, mbps := range []float64{1, 2, 3, 4, 4.5, 5, 6, 7} {
		sum := sumFloats(parMap(runs, func(r int) float64 {
			cfg := DefaultReception(2)
			cfg.Link.PaceEnabled = true
			cfg.Link.LeakRate = mbps * 1e6 / 8
			return SingleHopReception(cfg, seed+int64(r)*31).ReceptionRate
		}))
		s.Add(mbps, fmt.Sprintf("%gMbps", mbps), metrics.Sample{Recall: sum / float64(runs)})
	}
	return s
}

// TabAckSweep regenerates the §V-1 ack parameter exploration: reception
// versus RetrTimeout and versus MaxRetrTime for two concurrent senders.
func TabAckSweep(seed int64, runs int) []*metrics.Series {
	byTimeout := &metrics.Series{Name: "reception vs RetrTimeout (2 senders)"}
	for _, ms := range []int{25, 50, 100, 200, 400} {
		sum := sumFloats(parMap(runs, func(r int) float64 {
			cfg := DefaultReception(2)
			cfg.Link.PaceEnabled, cfg.Link.AckEnabled = true, true
			cfg.Link.RetrTimeout = time.Duration(ms) * time.Millisecond
			return SingleHopReception(cfg, seed+int64(r)*31).ReceptionRate
		}))
		byTimeout.Add(float64(ms), fmt.Sprintf("%dms", ms), metrics.Sample{Recall: sum / float64(runs)})
	}
	byRetries := &metrics.Series{Name: "reception vs MaxRetrTime (2 senders)"}
	for _, mr := range []int{0, 1, 2, 4, 6} {
		sum := sumFloats(parMap(runs, func(r int) float64 {
			cfg := DefaultReception(2)
			cfg.Link.PaceEnabled, cfg.Link.AckEnabled = true, true
			cfg.Link.MaxRetr = mr
			return SingleHopReception(cfg, seed+int64(r)*31).ReceptionRate
		}))
		byRetries.Add(float64(mr), fmt.Sprintf("%d retries", mr), metrics.Sample{Recall: sum / float64(runs)})
	}
	return []*metrics.Series{byTimeout, byRetries}
}

// SaturationSweep regenerates the §VI-B saturation observation:
// single-round, no-ack recall versus metadata amount at redundancy 1
// and 2 on the 10×10 grid.
func SaturationSweep(seed int64, runs int) []*metrics.Series {
	out := make([]*metrics.Series, 0, 2)
	for _, redundancy := range []int{1, 2} {
		s := &metrics.Series{Name: fmt.Sprintf("recall @ redundancy %d", redundancy)}
		for _, amount := range []int{1000, 2500, 5000, 10000, 20000} {
			sample := averagePDD(10, 10, amount, redundancy,
				singleRoundOptions(seed, false), runs)
			s.Add(float64(amount), fmt.Sprintf("%d entries", amount), sample)
		}
		out = append(out, s)
	}
	return out
}

// Fig04HopCount regenerates Figure 4: single-round (ack on) recall,
// latency and overhead as the grid grows 3×3 → 11×11 (max hop count
// 1 → 5), keeping 50 entries per node.
func Fig04HopCount(seed int64, runs int) *metrics.Series {
	s := &metrics.Series{Name: "single-round PDD vs max hop count"}
	for _, rows := range []int{3, 5, 7, 9, 11} {
		entries := 50 * rows * rows
		sample := averagePDD(rows, rows, entries, 1,
			singleRoundOptions(seed, true), runs)
		s.Add(float64(rows/2), fmt.Sprintf("%d hops (%dx%d)", rows/2, rows, rows), sample)
	}
	return s
}

// Fig05MultiRound regenerates Figure 5: multi-round recall versus the
// window T and the new-round threshold T_d, with T_r = 0, 5000 entries.
func Fig05MultiRound(seed int64, runs int) []*metrics.Series {
	out := make([]*metrics.Series, 0, 3)
	for _, td := range []float64{0, 0.1, 0.3} {
		s := &metrics.Series{Name: fmt.Sprintf("recall, T_d=%.1f", td)}
		for _, tSec := range []float64{0.2, 0.4, 0.6, 0.8, 1.0, 1.2} {
			c := core.DefaultConfig()
			c.Window = time.Duration(tSec * float64(time.Second))
			c.NewRoundRatio = td
			c.StopRatio = 0
			sample := averagePDD(10, 10, 5000, 1,
				Options{Seed: seed, Core: c}, runs)
			s.Add(tSec, fmt.Sprintf("T=%.1fs", tSec), sample)
		}
		out = append(out, s)
	}
	return out
}

// Fig06MetadataAmount regenerates Figure 6: multi-round PDD recall and
// latency (and overhead) versus metadata amount 5k → 20k.
func Fig06MetadataAmount(seed int64, runs int) *metrics.Series {
	s := &metrics.Series{Name: "multi-round PDD vs metadata amount"}
	for _, amount := range []int{5000, 10000, 15000, 20000} {
		sample := averagePDD(10, 10, amount, 1, Options{Seed: seed}, runs)
		s.Add(float64(amount), fmt.Sprintf("%d entries", amount), sample)
	}
	return s
}

// Fig07SequentialConsumers regenerates Figure 7: five consumers in the
// center 5×5 subgrid discover one after another; caching makes later
// consumers faster.
func Fig07SequentialConsumers(seed int64, runs int) *metrics.Series {
	const entries = 5000
	// Consumers within a run are sequential by design (caching builds
	// up); the runs themselves are independent and run in parallel.
	return sequentialSeries("sequential consumers", runs, func(r int) (out [5]metrics.Sample) {
		d := Grid(10, 10, GridSpacing, Options{Seed: seed + int64(r)*101})
		d.DistributeEntries(entries, 1)
		for i, c := range consumerIDs(d, 5, seed+int64(r)) {
			out[i] = d.pddTrial(entries, c)
		}
		return out
	})
}

// sequentialSeries runs `run` once per seed and adds one point per
// consumer position, averaged over the runs.
func sequentialSeries(name string, runs int, run func(r int) [5]metrics.Sample) *metrics.Series {
	s := &metrics.Series{Name: name}
	byRun := parMap(runs, run)
	for i := 0; i < 5; i++ {
		per := make([]metrics.Sample, 0, runs)
		for _, run := range byRun {
			per = append(per, run[i])
		}
		s.Add(float64(i+1), fmt.Sprintf("consumer %d", i+1), metrics.Mean(per))
	}
	return s
}

// fig8Cell is one point of Figure 8 on a prepared 10×10 grid: `entries`
// entries at redundancy 1, and n consumers drawn from the center
// subgrid by pick all discovering at once.
func fig8Cell(d *Deployment, pick int64, n, entries int) metrics.Sample {
	d.DistributeEntries(entries, 1)
	return d.pddTrial(entries, consumerIDs(d, n, pick)...)
}

// Fig08SimultaneousConsumers regenerates Figure 8: 1–5 consumers in the
// center subgrid all discover at once; mixedcast serves them jointly.
func Fig08SimultaneousConsumers(seed int64, runs int) *metrics.Series {
	s := &metrics.Series{Name: "simultaneous consumers"}
	for _, n := range []int{1, 2, 3, 4, 5} {
		samples := parMap(runs, func(r int) metrics.Sample {
			d := Grid(10, 10, GridSpacing, Options{Seed: seed + int64(r)*101})
			return fig8Cell(d, seed+int64(r), n, 5000)
		})
		s.Add(float64(n), fmt.Sprintf("%d consumers", n), metrics.Mean(samples))
	}
	return s
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

// Fig0910MobilityPDD regenerates Figures 9/10: PDD recall and latency
// under the given mobility profile scaled ×0.5–×2.
func Fig0910MobilityPDD(p mobility.Profile, seed int64, runs int) *metrics.Series {
	s := &metrics.Series{Name: "PDD under mobility"}
	for _, scale := range []float64{0.5, 1.0, 1.5, 2.0} {
		samples := parMap(runs, func(r int) metrics.Sample {
			return fig0910Cell(p.Scale(scale), seed+int64(r)*101)
		})
		s.Add(scale, fmt.Sprintf("x%.1f rates", scale), metrics.Mean(samples))
	}
	return s
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

// Fig11DataItemSize regenerates Figure 11: PDR latency and overhead
// versus data item size 1–20 MB, redundancy 1.
func Fig11DataItemSize(seed int64, runs int) *metrics.Series {
	s := &metrics.Series{Name: "PDR vs item size"}
	for _, mb := range []int{1, 5, 10, 15, 20} {
		samples := parMap(runs, func(r int) metrics.Sample {
			return fig11Cell(Grid(10, 10, GridSpacing, Options{Seed: seed + int64(r)*101}), mb, 1, false)
		})
		s.Add(float64(mb), fmt.Sprintf("%dMB", mb), metrics.Mean(samples))
	}
	return s
}

// Fig1314Redundancy regenerates Figures 13/14: PDR versus the MDR
// baseline as chunk redundancy grows 1–5 (20 MB item by default; use a
// smaller sizeMB to trade fidelity for bench time).
func Fig1314Redundancy(sizeMB int, seed int64, runs int) []*metrics.Series {
	pdr := &metrics.Series{Name: "PDR"}
	mdr := &metrics.Series{Name: "MDR"}
	for _, red := range []int{1, 2, 3, 4, 5} {
		pairs := parMap(runs, func(r int) (pair [2]metrics.Sample) {
			for mi, isMDR := range []bool{false, true} {
				d := Grid(10, 10, GridSpacing, Options{Seed: seed + int64(r)*101})
				pair[mi] = fig11Cell(d, sizeMB, red, isMDR)
			}
			return pair
		})
		var ps, ms []metrics.Sample
		for _, pair := range pairs {
			ps = append(ps, pair[0])
			ms = append(ms, pair[1])
		}
		label := fmt.Sprintf("%d copies", red)
		pdr.Add(float64(red), label, metrics.Mean(ps))
		mdr.Add(float64(red), label, metrics.Mean(ms))
	}
	return []*metrics.Series{pdr, mdr}
}

// Fig12MobilityPDR regenerates Figure 12: PDR latency retrieving a
// sizeMB item under the mobility profile scaled ×0.5–×2. Chunks are
// seeded with three copies: the paper does not state the copy count
// for this figure, and with fewer copies a multi-minute transfer sees
// the only holders of some chunks walk away at the ×1.5–×2 rates —
// recall then measures data death, not protocol robustness.
func Fig12MobilityPDR(p mobility.Profile, sizeMB int, seed int64, runs int) *metrics.Series {
	s := &metrics.Series{Name: "PDR under mobility"}
	for _, scale := range []float64{0.5, 1.0, 1.5, 2.0} {
		samples := parMap(runs, func(r int) metrics.Sample {
			d, ids := MobileArea(p.Scale(scale), 30*time.Minute, Options{Seed: seed + int64(r)*101})
			consumer := ids[len(ids)/2]
			d.Pin(consumer)
			item := d.seedClip(sizeMB, 3, consumer)
			d.Eng.Run(10 * time.Second)
			return d.pdrTrial(item, false, consumer)
		})
		s.Add(scale, fmt.Sprintf("x%.1f rates", scale), metrics.Mean(samples))
	}
	return s
}

// Fig15PDRSequential regenerates Figure 15: five consumers retrieve the
// same sizeMB item one after another; caching shortens later paths.
func Fig15PDRSequential(sizeMB int, seed int64, runs int) *metrics.Series {
	return sequentialSeries("PDR sequential consumers", runs, func(r int) (out [5]metrics.Sample) {
		d := Grid(10, 10, GridSpacing, Options{Seed: seed + int64(r)*101})
		consumers := consumerIDs(d, 5, seed+int64(r))
		item := d.seedClip(sizeMB, 1, consumers[0])
		for i, c := range consumers {
			out[i] = d.pdrTrial(item, false, c)
		}
		return out
	})
}

// Fig16PDRSimultaneous regenerates Figure 16: 1–5 consumers retrieve
// the same sizeMB item at the same time.
func Fig16PDRSimultaneous(sizeMB int, seed int64, runs int) *metrics.Series {
	s := &metrics.Series{Name: "PDR simultaneous consumers"}
	for _, n := range []int{1, 2, 3, 4, 5} {
		samples := parMap(runs, func(r int) metrics.Sample {
			d := Grid(10, 10, GridSpacing, Options{Seed: seed + int64(r)*101})
			consumers := consumerIDs(d, n, seed+int64(r))
			return d.pdrTrial(d.seedClip(sizeMB, 1, consumers[0]), false, consumers...)
		})
		s.Add(float64(n), fmt.Sprintf("%d consumers", n), metrics.Mean(samples))
	}
	return s
}

// AblationVariants names the PDD ablations.
var AblationVariants = []string{"baseline", "one-shot interests", "no mixedcast", "no bloom rewrite"}

// AblationOne runs a single named PDD ablation variant at the given
// metadata load.
func AblationOne(variant string, entries int, seed int64, runs int) *metrics.Series {
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
	sample := averagePDD(10, 10, entries, 1, Options{Seed: seed, Core: c}, runs)
	s.Add(1, fmt.Sprintf("%d entries", entries), sample)
	return s
}

// Ablation runs every PDD ablation: baseline, one-shot interests
// (lingering off), no mixedcast, and no Bloom rewriting.
func Ablation(seed int64, runs int) []*metrics.Series {
	out := make([]*metrics.Series, 0, len(AblationVariants))
	for _, v := range AblationVariants {
		out = append(out, AblationOne(v, 2000, seed, runs))
	}
	return out
}

// AblationNearestOnly compares PDR with and without the min-max load
// balancing of §IV-B at redundancy 3, where balancing has routes to
// choose from.
func AblationNearestOnly(sizeMB int, seed int64, runs int) []*metrics.Series {
	out := make([]*metrics.Series, 0, 2)
	for _, balanced := range []bool{true, false} {
		name := "balanced (min-max)"
		if !balanced {
			name = "nearest-only"
		}
		s := &metrics.Series{Name: name}
		samples := parMap(runs, func(r int) metrics.Sample {
			c := core.DefaultConfig()
			c.LoadBalanceEnabled = balanced
			return fig11Cell(Grid(10, 10, GridSpacing, Options{Seed: seed + int64(r)*101, Core: c}), sizeMB, 3, false)
		})
		s.Add(1, fmt.Sprintf("%dMB", sizeMB), metrics.Mean(samples))
		out = append(out, s)
	}
	return out
}
