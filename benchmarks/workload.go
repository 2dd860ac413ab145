package main

import (
	"fmt"
	"math"

	"pds/internal/attr"
)

// metricDecl declares one reported metric. The runner prints exactly
// these names; BENCHMARK.json must declare the same sets (checked by
// TestBenchmarkJSONMatchesRunner).
type metricDecl struct {
	Name   string
	Unit   string
	Better string // "lower" | "higher"
}

// endToEnd are the eight metrics a user of the system sees and this
// host can measure to within their bounds. Every workload reports all
// of them from the untraced passes. A pass's host time is not among
// them (README "Why wall and CPU time are not gated"): it is reported as
// pass.wall_s / pass.cpu_s in the per-layer list.
var endToEnd = []metricDecl{
	{"setup_s", "s", "lower"},
	{"alloc_MB", "MB", "lower"},
	{"allocs_k", "k", "lower"},
	{"peak_rss_MB", "MB", "lower"},
	{"recall", "ratio", "higher"},
	{"op_p50_ms", "ms", "lower"},
	{"op_p90_ms", "ms", "lower"},
	{"overhead_MB", "MB", "lower"},
}

// perLayer is the outside-in ledger, grouped by module. Counts come
// from the modules' public Stats(); *_ms from spans of the traced pass;
// *_ns/*_us from replaying captured inputs through the layer's public
// functions. A metric a workload cannot exercise is reported as 0.
var perLayer = []metricDecl{
	{"sim.events", "count", "lower"},
	{"sim.events_per_op", "count", "lower"},
	{"sim.sched_ns_per_event", "ns", "lower"},
	{"sim.residual_ms", "ms", "lower"},

	{"core.timers", "count", "lower"},
	{"core.timers_per_node_s", "1/s", "lower"},
	{"core.timer_self_ms", "ms", "lower"},
	{"core.rx_self_ms", "ms", "lower"},
	{"core.api_self_ms", "ms", "lower"},
	{"core.queries_received", "count", "lower"},
	{"core.queries_duplicate", "count", "lower"},
	{"core.queries_forwarded", "count", "lower"},
	{"core.responses_received", "count", "lower"},
	{"core.responses_duplicate", "count", "lower"},
	{"core.responses_sent", "count", "lower"},
	{"core.responses_relayed", "count", "lower"},
	{"core.entries_pruned", "count", "higher"},
	{"core.subqueries_sent", "count", "lower"},
	{"core.send_failures", "count", "lower"},
	{"core.chunk_dup_deliveries", "count", "lower"},
	{"core.useful_rx_ratio", "ratio", "higher"},

	{"wire.msgs", "count", "lower"},
	{"wire.bytes_per_msg", "B", "lower"},
	{"wire.encode_ns_per_msg", "ns", "lower"},
	{"wire.decode_ns_per_msg", "ns", "lower"},
	{"wire.decode_allocs_per_msg", "count", "lower"},

	{"store.match_us", "us", "lower"},
	{"store.put_cached_ns", "ns", "lower"},

	{"link.rx_self_ms", "ms", "lower"},
	{"link.tx_self_ms", "ms", "lower"},
	{"link.timer_self_ms", "ms", "lower"},
	{"link.timers", "count", "lower"},
	{"link.sent", "count", "lower"},
	{"link.transmitted", "count", "lower"},
	{"link.retransmissions", "count", "lower"},
	{"link.retx_ratio", "ratio", "lower"},
	{"link.acks_sent", "count", "lower"},
	{"link.giveups", "count", "lower"},
	{"link.fragmented", "count", "lower"},
	{"link.reassembled", "count", "lower"},
	{"link.dup_dropped", "count", "lower"},

	{"radio.send_self_ms", "ms", "lower"},
	{"radio.set_positions_ms", "ms", "lower"},
	{"radio.tx_frames", "count", "lower"},
	{"radio.tx_bytes", "B", "lower"},
	{"radio.delivered", "count", "higher"},
	{"radio.collisions", "count", "lower"},
	{"radio.buffer_drops", "count", "lower"},
	{"radio.delivery_ratio", "ratio", "higher"},

	{"mobility.step_ms", "ms", "lower"},

	{"face.send_self_ms", "ms", "lower"},
	{"face.frames_sent", "count", "lower"},
	{"face.bytes_sent", "B", "lower"},
	{"face.outbox_drops", "count", "lower"},
	{"face.conn_resets", "count", "lower"},
	{"face.write_timeouts", "count", "lower"},

	{"pds.rx_self_ms", "ms", "lower"},
	{"pds.rx_calls", "count", "lower"},
	{"tier.p2p_chunks", "count", "higher"},
	{"tier.origin_chunks", "count", "lower"},
	{"tier.p2p_share", "ratio", "higher"},

	{"pass.wall_s", "s", "lower"},
	{"pass.cpu_s", "s", "lower"},
	{"trace.overhead_pct", "%", "lower"},
	{"gc.cycles", "count", "lower"},
	{"gc.pause_ms", "ms", "lower"},
	{"pass.spread_pct", "%", "lower"},
	{"host.steal_pct", "%", "lower"},
	{"pass.discarded", "count", "lower"},
}

// passOutcome is what one pass over the generated inputs produced.
type passOutcome struct {
	// opMs holds one latency per completed op, in the workload's clock
	// (simulated on sim-*, host on live-swarm), in issue order.
	opMs      []float64
	attempted int
	failed    int
	// wanted/delivered feed recall; verify fills delivered.
	wanted, delivered uint64
	overheadBytes     uint64
	// counters are the per-layer counts read from the modules' Stats().
	counters map[string]float64
	// nodeSeconds is Σ nodes × simulated seconds, the denominator of
	// core.timers_per_node_s.
	nodeSeconds float64
	// verify runs the correctness gates on everything the pass
	// returned. It runs after the pass's host-time bracket closes, so
	// hashing and set checks never count as the program's time. A
	// non-nil error names the violated gate.
	verify func() error
}

// absorb adds a finished deployment's counters, bytes on air and
// simulated node-seconds to the pass.
func (o *passOutcome) absorb(net *simNet) {
	for k, v := range simCounters(net) {
		o.counters[k] += v
	}
	o.overheadBytes += net.medium.Stats().TxBytes
	o.nodeSeconds += float64(len(net.ids)) * net.eng.Now().Seconds()
}

// maxReplicas is how many independent replicas of its shape a workload
// generates per run, at most: minPasses of them are used.
const maxReplicas = 4

// traceCtx selects the traced wiring for a pass; nil means the
// production constructors with tracing off.
type traceCtx struct {
	sim  *tracer
	live *liveTracer
}

// workload is one closed-loop input set.
type workload interface {
	name() string
	why() string
	// simulated reports whether ops run on the simulated clock, in
	// which case every counter and op latency must repeat exactly.
	simulated() bool
	// minPasses is how many measured passes a run makes at least: one
	// per replica. Later passes go round the same replicas again.
	minPasses() int
	// generate builds every input of the run from the seed: the
	// independent replicas of the workload's shape.
	generate(seed int64)
	// pass runs one replica's inputs once, on a fresh deployment.
	// Simulated workloads give each of the first minPasses passes its
	// own replica — identical passes would add no information on a
	// deterministic simulator, independent ones average out the seed's
	// luck — and the warm-up repeats replica 0; every repeat of a
	// replica is where "same seed ⇒ same bytes" is checked.
	// live-swarm runs the same inputs every pass.
	pass(tc *traceCtx, replica int) (*passOutcome, error)
	// storeShape is the store replay's fill: how many entries a busy
	// node's DataStore holds on this workload, and the selector its
	// queries carry.
	storeShape() (entries int, sel attr.Query)
}

func workloads() []workload {
	return []workload{&floodWorkload{}, &bulkWorkload{}, &cityWorkload{}, &liveWorkload{}}
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads() {
		if w.name() == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q (see -list)", name)
}

// subSeed derives independent input streams from the run seed
// (splitmix64 finalizer), so neighbouring seeds share nothing.
func subSeed(seed int64, stream int) int64 {
	z := uint64(seed) + uint64(stream+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64((z ^ (z >> 31)) & math.MaxInt64)
}

// sameOutcome checks the ROADMAP invariant "same seed ⇒ same bytes" on
// two passes of a simulated workload: every counter, the overhead and
// every op's simulated latency must be identical.
func sameOutcome(a, b *passOutcome) error {
	if a.overheadBytes != b.overheadBytes {
		return fmt.Errorf("tx bytes differ: %d vs %d", a.overheadBytes, b.overheadBytes)
	}
	if a.attempted != b.attempted || a.failed != b.failed || a.wanted != b.wanted || a.delivered != b.delivered {
		return fmt.Errorf("op accounting differs: attempted %d/%d failed %d/%d wanted %d/%d delivered %d/%d",
			a.attempted, b.attempted, a.failed, b.failed, a.wanted, b.wanted, a.delivered, b.delivered)
	}
	if len(a.opMs) != len(b.opMs) {
		return fmt.Errorf("op count differs: %d vs %d", len(a.opMs), len(b.opMs))
	}
	for i := range a.opMs {
		if a.opMs[i] != b.opMs[i] {
			return fmt.Errorf("op %d simulated latency differs: %v ms vs %v ms", i, a.opMs[i], b.opMs[i])
		}
	}
	for k, v := range a.counters {
		if bv, ok := b.counters[k]; !ok || bv != v {
			return fmt.Errorf("counter %s differs: %v vs %v", k, v, bv)
		}
	}
	return nil
}
