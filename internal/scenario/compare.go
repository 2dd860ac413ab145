package scenario

import (
	"pds/internal/attr"
	"pds/internal/core"
	"pds/internal/metrics"
	"pds/internal/strategy"
	"pds/internal/wire"
	"pds/internal/workload"
)

// This file holds the strategy matrix behind `pds-bench compare`: each
// compare figure runs one scenario under every routing × caching
// strategy pair with the same seeds, one row per pair, strategy
// counters attached. The figures are ordinary entries of Figures, so
// Figure.Run averages their runs like every other figure's.

// matrixCell runs one scenario under one routing × caching pair.
type matrixCell func(seed int64, routing, caching string) metrics.Sample

// compareFigure is the figure `compare/<scen>`: run r is one series with
// one point per pair of strategy.RoutingNames × strategy.CachingNames,
// in that order, labelled `routing+caching`, X its 1-based index, the
// sample cell(p.SizeMB) at run r's seed.
func compareFigure(scen string, cell func(sizeMB int) matrixCell) Figure {
	name := "compare/" + scen
	return Figure{name, "Compare: routing×caching strategy matrix on " + scen, func(p Params, r int) []*metrics.Series {
		c := cell(p.SizeMB)
		s := &metrics.Series{Name: name}
		for _, rt := range strategy.RoutingNames() {
			for _, ca := range strategy.CachingNames() {
				s.Add(float64(len(s.Points)+1), rt+"+"+ca, c(p.seed(r), rt, ca))
			}
		}
		return []*metrics.Series{s}
	}}
}

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

// fig11Matrix is the Figure 11 pull seeded at redundancy: at 2 routing
// strategies have real route choices ("fig11"), at the figure's own 1
// every route is the only one ("sparse").
func fig11Matrix(redundancy int) func(sizeMB int) matrixCell {
	return func(sizeMB int) matrixCell {
		return gridCell(0, func(d *Deployment) metrics.Sample { return fig11Cell(d, sizeMB, redundancy, false) })
	}
}

// repeatMatrix has six consumers pull one hot 1 MB item, seeded at
// redundancy 3, one after another: within one 30 s window the item is
// asked for again and again, the demand a strategy that learns from
// past queries feeds on. The row covers all six pulls.
func repeatMatrix(int) matrixCell {
	return gridCell(0, func(d *Deployment) metrics.Sample {
		consumers := consumerIDs(d, 6, d.seed)
		item := d.seedClip(1, 3, consumers[0])
		mark := d.Medium.Stats().TxBytes
		var res []core.RetrievalResult
		for _, c := range consumers {
			r, _ := d.Retrieve([]wire.NodeID{c}, item, false, retrievalDeadline)
			res = append(res, r...)
		}
		return d.pdrSample(res, item, mark)
	})
}

// pressureMatrix is cache pressure (§VII's "data chunk caching
// strategies based on their popularity"), run on caches bounded at half
// the item: two consumers pull popular item A, a third pulls one-off
// item B, then a fourth pulls A again. The row is that last pull, which
// is cheap only where A's chunks outlived B's in the relays' caches.
func pressureMatrix(sizeMB int) matrixCell {
	return gridCell(sizeMB<<19, func(d *Deployment) metrics.Sample {
		consumers := consumerIDs(d, 4, d.seed)
		a := d.DistributeChunks(ItemDescriptor("popular", sizeMB<<20, DefaultChunkSize), DefaultChunkSize, 1, consumers[0])
		b := d.DistributeChunks(ItemDescriptor("oneoff", sizeMB<<20, DefaultChunkSize), DefaultChunkSize, 1, consumers[2])
		for i, item := range []attr.Descriptor{a, a, b} {
			d.Retrieve(consumers[i:i+1], item, false, retrievalDeadline)
		}
		return d.pdrTrial(a, false, consumers[3])
	})
}

// chaosMatrix is crash-the-hub on a 2 MB item, whatever the figure's
// item size.
func chaosMatrix(int) matrixCell {
	return func(seed int64, routing, caching string) metrics.Sample {
		return crashTheHub(seed, 2<<20, routing, caching).Sample
	}
}

// streamMatrix runs the streaming workload at its default spec on the
// grid.
func streamMatrix(int) matrixCell {
	return func(seed int64, routing, caching string) metrics.Sample {
		return StreamingRun(GridTopology(seed, routing, caching), workload.StreamSpec{}).Sample
	}
}

// crowdMatrix runs the flash-crowd workload at its default spec on the
// grid.
func crowdMatrix(int) matrixCell {
	return func(seed int64, routing, caching string) metrics.Sample {
		return FlashCrowdRun(GridTopology(seed, routing, caching), workload.CrowdSpec{}).Sample
	}
}
