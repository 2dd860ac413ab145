package scenario

import (
	"time"

	"pds/internal/attr"
	"pds/internal/core"
	"pds/internal/metrics"
	"pds/internal/wire"
)

// This file is the one trial every experiment runs (§VI-A): data is
// already placed, 1..n consumers ask at the same instant, and the run is
// reduced to recall / latency / rounds / message overhead. Figures,
// chaos scenarios, compare cells and pds-sim only state what differs —
// topology, seeding, consumers, options — and call Discover or Retrieve
// and the matching reducer.

// discoveryDeadline bounds any one simulated discovery.
const discoveryDeadline = 180 * time.Second

// retrievalDeadline bounds any one simulated retrieval.
const retrievalDeadline = 900 * time.Second

// trial starts n sessions at the current instant and runs the engine
// until every callback fired or the clock passes deadline. Results come
// back in start order; a session the deadline cut short leaves its zero
// value and makes done false.
func trial[R any](d *Deployment, n int, deadline time.Duration, start func(i int, cb func(R))) (results []R, done bool) {
	results = make([]R, n)
	fired := 0
	for i := range results {
		start(i, func(r R) {
			results[i] = r
			fired++
		})
	}
	d.Eng.RunUntil(deadline, func() bool { return fired == n })
	return results, fired == n
}

// Discover issues one discovery per consumer at the current instant and
// runs them to completion (or the absolute virtual-time deadline). It
// returns the results in consumer order and whether all completed.
func (d *Deployment) Discover(consumers []wire.NodeID, sel attr.Query, opts core.DiscoverOptions, deadline time.Duration) ([]core.DiscoveryResult, bool) {
	return trial(d, len(consumers), deadline, func(i int, cb func(core.DiscoveryResult)) {
		d.Peers[consumers[i]].Node.Discover(sel, opts, cb)
	})
}

// Retrieve issues one retrieval of item per consumer at the current
// instant — PDR, or the MDR baseline when mdr is set — and runs them to
// completion (or the absolute virtual-time deadline). It returns the
// results in consumer order and whether all completed.
func (d *Deployment) Retrieve(consumers []wire.NodeID, item attr.Descriptor, mdr bool, deadline time.Duration) ([]core.RetrievalResult, bool) {
	return trial(d, len(consumers), deadline, func(i int, cb func(core.RetrievalResult)) {
		n := d.Peers[consumers[i]].Node
		if mdr {
			n.RetrieveMDR(item, cb)
		} else {
			n.Retrieve(item, cb)
		}
	})
}

// reduce is the §VI-A row of one trial: the consumers' mean delivered
// fraction of want, the slowest consumer's latency, their mean rounds,
// and the bytes the medium carried since the mark.
func reduce[R any](d *Deployment, results []R, want int, mark uint64, get func(R) (got int, latency time.Duration, rounds int)) metrics.Sample {
	var s metrics.Sample
	for _, r := range results {
		got, latency, rounds := get(r)
		s.Recall += float64(got) / float64(want)
		s.Latency = max(s.Latency, latency)
		s.Rounds += float64(rounds)
	}
	s.Recall /= float64(len(results))
	s.Rounds /= float64(len(results))
	s.OverheadBytes = d.Medium.Stats().TxBytes - mark
	return s
}

// pddSample reduces a Discover trial over `entries` distinct entries;
// mark is the medium's TxBytes reading taken before the trial (0 counts
// the whole run).
func (d *Deployment) pddSample(results []core.DiscoveryResult, entries int, mark uint64) metrics.Sample {
	return reduce(d, results, entries, mark, func(r core.DiscoveryResult) (int, time.Duration, int) {
		return len(r.Entries), r.Latency, r.Rounds
	})
}

// pdrSample reduces a Retrieve trial of item; mark as for pddSample.
func (d *Deployment) pdrSample(results []core.RetrievalResult, item attr.Descriptor, mark uint64) metrics.Sample {
	return reduce(d, results, item.TotalChunks(), mark, func(r core.RetrievalResult) (int, time.Duration, int) {
		return len(r.Chunks), r.Latency, r.Rounds
	})
}

// pddTrial is the whole PDD measurement: mark, every consumer discovers
// the synthetic entries at once, reduce.
func (d *Deployment) pddTrial(entries int, consumers ...wire.NodeID) metrics.Sample {
	mark := d.Medium.Stats().TxBytes
	res, _ := d.Discover(consumers, EntrySelector(), core.DiscoverOptions{}, discoveryDeadline)
	return d.pddSample(res, entries, mark)
}

// pdrTrial is the whole PDR (or MDR) measurement: mark, every consumer
// retrieves item at once, reduce.
func (d *Deployment) pdrTrial(item attr.Descriptor, mdr bool, consumers ...wire.NodeID) metrics.Sample {
	mark := d.Medium.Stats().TxBytes
	res, _ := d.Retrieve(consumers, item, mdr, retrievalDeadline)
	return d.pdrSample(res, item, mark)
}
