// Package metrics defines the evaluation measures of §VI-A — recall,
// latency and message overhead — and small helpers for aggregating
// repeated runs and printing result tables.
package metrics

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// Sample is one experiment run's outcome.
type Sample struct {
	// Recall is the fraction of distinct metadata entries or chunks
	// received by the consumer (§VI-A).
	Recall float64
	// Latency is the time from the consumer sending the query to the
	// arrival of the last returned entry or chunk (§VI-A).
	Latency time.Duration
	// OverheadBytes is the total bytes of all transmitted messages
	// (§VI-A uses message overhead as the energy/cost proxy).
	OverheadBytes uint64
	// Rounds is the number of discovery/retrieval rounds used.
	Rounds float64
	// Faults counts the fault events injected into the run (zero for
	// fault-free experiments).
	Faults FaultCounters
	// Disk summarizes persistent-store activity; nil for in-memory
	// runs, whose rows then carry no disk counters.
	Disk *DiskCounters
	// QoE carries the streaming/bulk workload quality measures; nil for
	// one-shot discovery/retrieval runs, whose rows then carry no QoE
	// suffix.
	QoE *QoECounters
	// Strategy carries the routing/caching strategy-plane counters; nil
	// unless the run names a strategy (compare figures name even cdi
	// and fifo), so a row carries a strategy suffix only when it did.
	Strategy *StrategyCounters
}

// StrategyCounters is the routing/caching strategy plane's bookkeeping
// at every level: what the bfr advert table or the opportunistic gate
// counts (each fills its own fields), a node's row (both folded) and a
// run's row (every node folded). Rows are tagged with the strategy
// names so A/B rows are self-describing.
type StrategyCounters struct {
	// Routing / Caching name the strategies in effect (the defaults
	// included: cdi, fifo).
	Routing string `json:"routing"`
	Caching string `json:"caching"`
	// AdvertFloods counts content-advertisement floods originated.
	AdvertFloods uint64 `json:"advert_floods"`
	// AdvertsHeld is the size of the advert route table at sample time.
	AdvertsHeld uint64 `json:"adverts_held"`
	// FallbackRoutes counts routes offered to sent chunk queries from
	// the strategy's own state when the CDI had no entry.
	FallbackRoutes uint64 `json:"fallback_routes"`
	// CacheAdmitSkips counts cached payloads the admission gate rejected.
	CacheAdmitSkips uint64 `json:"cache_admit_skips"`
}

// String renders the counters as a compact row suffix.
func (s StrategyCounters) String() string {
	return fmt.Sprintf("routing=%s caching=%s floods=%d adverts=%d fallbacks=%d admitskips=%d",
		s.Routing, s.Caching, s.AdvertFloods, s.AdvertsHeld, s.FallbackRoutes, s.CacheAdmitSkips)
}

// QoECounters are the quality-of-experience measures of one workload
// run: a streaming session's playback health (startup, stalls,
// rebuffering), the pooled tail of its per-segment fetch latencies, and
// the byte attribution across serving tiers. Bulk-artifact runs reuse
// the same shape with stalls pinned at zero and layers standing in for
// segments.
type QoECounters struct {
	// StartupDelay is the time from session start to first playback.
	StartupDelay time.Duration `json:"startup_delay_ns"`
	// Stalls counts rebuffer events; StallTime is their total length.
	Stalls    uint64        `json:"stalls"`
	StallTime time.Duration `json:"stall_time_ns"`
	// RebufferRatio is StallTime / (StallTime + played time).
	RebufferRatio float64 `json:"rebuffer_ratio"`
	// P50/P95/P99 are percentiles of the pooled per-segment (or
	// per-layer) fetch latencies.
	P50, P95, P99 time.Duration `json:"-"`
	// P50Sec..P99Sec are the JSON forms, kept in seconds like the
	// report's latency_s fields.
	P50Sec float64 `json:"p50_s"`
	P95Sec float64 `json:"p95_s"`
	P99Sec float64 `json:"p99_s"`
	// DeadlineMisses counts segments that stalled playback or never
	// arrived (layers that never completed, for bulk runs).
	DeadlineMisses uint64 `json:"deadline_misses"`
	// LocalBytes..OriginBytes attribute delivered payload bytes to the
	// serving tier. Pure-P2P radio runs split local (already cached)
	// from p2p; the deployment plane adds edge and origin.
	LocalBytes  uint64 `json:"local_bytes"`
	P2PBytes    uint64 `json:"p2p_bytes"`
	EdgeBytes   uint64 `json:"edge_bytes"`
	OriginBytes uint64 `json:"origin_bytes"`
}

// SyncSeconds refreshes the JSON second-valued percentile mirrors from
// the duration fields.
func (q *QoECounters) SyncSeconds() {
	q.P50Sec = q.P50.Seconds()
	q.P95Sec = q.P95.Seconds()
	q.P99Sec = q.P99.Seconds()
}

// String renders the counters as a compact row suffix.
func (q QoECounters) String() string {
	return fmt.Sprintf("startup=%s stalls=%d stall=%s rebuf=%.4f p50=%s p95=%s p99=%s misses=%d local=%s p2p=%s edge=%s origin=%s",
		Seconds(q.StartupDelay), q.Stalls, Seconds(q.StallTime), q.RebufferRatio,
		Seconds(q.P50), Seconds(q.P95), Seconds(q.P99), q.DeadlineMisses,
		MB(q.LocalBytes), MB(q.P2PBytes), MB(q.EdgeBytes), MB(q.OriginBytes))
}

// TierCounters attributes one run's retrieved chunks to the tiered
// retrieval path's serving tiers: local → P2P → origin.
type TierCounters struct {
	// LocalChunks were already held when the retrieval started.
	LocalChunks uint64 `json:"local_chunks"`
	// P2PChunks arrived over the lingering-query P2P plane.
	P2PChunks uint64 `json:"p2p_chunks"`
	// EdgeChunks is always 0: no tier serves it. It stays while the
	// live-swarm benchmark still reads it by name.
	EdgeChunks uint64 `json:"edge_chunks"`
	// OriginChunks were fetched from the origin backend.
	OriginChunks uint64 `json:"origin_chunks"`
	// MissingChunks were not served by any tier before the deadline.
	MissingChunks uint64 `json:"missing_chunks"`
}

// String renders the counters as a compact row suffix.
func (t TierCounters) String() string {
	return fmt.Sprintf("local=%d p2p=%d origin=%d missing=%d",
		t.LocalChunks, t.P2PChunks, t.OriginChunks, t.MissingChunks)
}

// DiskCounters summarizes one run's persistent chunk-store activity
// (per-node counters summed over the deployment).
type DiskCounters struct {
	// Segments is the total number of live segment files.
	Segments uint64 `json:"segments"`
	// LiveBytes / DeadBytes partition the on-disk log.
	LiveBytes uint64 `json:"live_bytes"`
	DeadBytes uint64 `json:"dead_bytes"`
	// BytesWritten is the total bytes appended to the logs.
	BytesWritten uint64 `json:"bytes_written"`
	// Compactions counts copy-forward compaction passes.
	Compactions uint64 `json:"compactions"`
	// SpillWrites / SpillLoads count payload records written to and
	// read back from disk.
	SpillWrites uint64 `json:"spill_writes"`
	SpillLoads  uint64 `json:"spill_loads"`
	// RecoveredRecords / SkippedRecords aggregate the recovery scans:
	// records replayed and corrupt records stepped over.
	RecoveredRecords uint64 `json:"recovered_records"`
	SkippedRecords   uint64 `json:"skipped_records"`
}

// String renders the counters as a compact row suffix.
func (d DiskCounters) String() string {
	return fmt.Sprintf("segs=%d live=%s written=%s compactions=%d spills=%d loads=%d recovered=%d skipped=%d",
		d.Segments, MB(d.LiveBytes), MB(d.BytesWritten), d.Compactions,
		d.SpillWrites, d.SpillLoads, d.RecoveredRecords, d.SkippedRecords)
}

// FaultCounters summarizes injected faults and the recovery machinery's
// reaction, appended to result rows of fault-plan runs.
type FaultCounters struct {
	// BurstsEntered counts Gilbert–Elliott transitions into the bad
	// (bursty-loss) channel state.
	BurstsEntered uint64 `json:"bursts_entered"`
	// Crashes counts node crash events.
	Crashes uint64 `json:"crashes"`
	// CorruptFrames counts frames delivered damaged and discarded.
	CorruptFrames uint64 `json:"corrupt_frames"`
	// BlacklistHits counts routing decisions that skipped a blacklisted
	// neighbor.
	BlacklistHits uint64 `json:"blacklist_hits"`
}

// String renders the counters as a compact row suffix.
func (f FaultCounters) String() string {
	return fmt.Sprintf("bursts=%d crashes=%d corrupt=%d blacklisted=%d",
		f.BurstsEntered, f.Crashes, f.CorruptFrames, f.BlacklistHits)
}

// MB renders bytes as megabytes with two decimals, the unit the paper
// reports overhead in.
func MB(b uint64) string { return fmt.Sprintf("%.2fMB", float64(b)/1e6) }

// Seconds renders a duration in seconds with one decimal.
func Seconds(d time.Duration) string { return fmt.Sprintf("%.1fs", d.Seconds()) }

// Point is one x position of a result series.
type Point struct {
	X      float64
	Label  string
	Sample Sample
}

// Series is a labeled sweep result (one figure line).
type Series struct {
	Name   string
	Points []Point
}

// Add appends a point.
func (s *Series) Add(x float64, label string, sample Sample) {
	s.Points = append(s.Points, Point{X: x, Label: label, Sample: sample})
}

// String renders the series as an aligned table with the paper's units.
func (s *Series) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", s.Name)
	fmt.Fprintf(&b, "  %-14s %8s %10s %12s %7s\n", "x", "recall", "latency", "overhead", "rounds")
	for _, p := range s.Points {
		label := p.Label
		if label == "" {
			label = fmt.Sprintf("%g", p.X)
		}
		fmt.Fprintf(&b, "  %-14s %8.3f %10s %12s %7.1f",
			label, p.Sample.Recall, Seconds(p.Sample.Latency), MB(p.Sample.OverheadBytes), p.Sample.Rounds)
		if p.Sample.QoE != nil {
			// QoE rows carry their workload suffix; a row with a nil
			// QoE has none.
			fmt.Fprintf(&b, "  %s", p.Sample.QoE)
		}
		if p.Sample.Strategy != nil {
			// Strategy rows likewise carry the A/B suffix only when the
			// run names a strategy.
			fmt.Fprintf(&b, "  %s", p.Sample.Strategy)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Pool accumulates individual samples (segment latencies, layer fetch
// times) for percentile extraction — the aggregation QoE rows need
// where Mean-of-runs is not enough.
type Pool struct {
	vals []float64
}

// Add appends one sample.
//
//pds:hotpath
func (p *Pool) Add(v float64) { p.vals = append(p.vals, v) }

// AddDuration appends a duration sample in seconds.
//
//pds:hotpath
func (p *Pool) AddDuration(d time.Duration) { p.Add(d.Seconds()) }

// Len returns the number of pooled samples.
func (p *Pool) Len() int { return len(p.vals) }

// Mean returns the arithmetic mean (0 for an empty pool).
func (p *Pool) Mean() float64 {
	if len(p.vals) == 0 {
		return 0
	}
	var sum float64
	for _, v := range p.vals {
		sum += v
	}
	return sum / float64(len(p.vals))
}

// Percentile returns the q-quantile (0..1) over the pooled samples.
func (p *Pool) Percentile(q float64) float64 { return Quantile(p.vals, q) }

// PercentileDuration is Percentile for second-valued pools, returned as
// a duration.
func (p *Pool) PercentileDuration(q float64) time.Duration {
	return time.Duration(p.Percentile(q) * float64(time.Second))
}

// Quantile returns the q-quantile (0..1) of the values, interpolating
// linearly; it is used by prototype-style latency summaries.
func Quantile(values []float64, q float64) float64 {
	if len(values) == 0 {
		return 0
	}
	sorted := append([]float64(nil), values...)
	sort.Float64s(sorted)
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[len(sorted)-1]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	frac := pos - float64(lo)
	if lo+1 >= len(sorted) {
		return sorted[lo]
	}
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}
