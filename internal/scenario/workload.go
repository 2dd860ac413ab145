package scenario

import (
	"fmt"
	"time"

	"pds/internal/attr"
	"pds/internal/fault"
	"pds/internal/metrics"
	"pds/internal/radio"
	"pds/internal/wire"
	"pds/internal/workload"
)

// This file wires the workload engine (internal/workload) onto the
// simulated deployments: one streaming runner and one flash-crowd
// runner, each taking the Topology it runs on (the paper's 10×10 grid
// or the city-scale core), and the series behind `pds-bench stream` /
// `pds-bench crowd`. Same-seed runs emit byte-identical rows, QoE
// counters included.

// Topology is where a workload runs: a built deployment, how the
// producer side publishes a chunk into it, and who watches a stream.
// Install a fault plan (D.InstallFaults) or tracing (D.EnableTracing)
// on D before handing the topology to a runner.
type Topology struct {
	D *Deployment
	// Publish stores one chunk at the topology's producer(s).
	Publish workload.PublishFunc
	// Viewer is the streaming consumer.
	Viewer wire.NodeID
	// prefix marks rows and item names of non-grid runs ("city-").
	prefix string
}

// GridTopology is the paper's 10×10 grid under the chaos recovery
// config and the named routing/caching strategies (empty keeps the node
// defaults, and byte-identical rows): the corner node (id 1) produces,
// the center node views.
func GridTopology(seed int64, routing, caching string) Topology {
	cc := chaosConfig(0)
	cc.Routing = routing
	cc.Caching = caching
	d := Grid(10, 10, GridSpacing, Options{Seed: seed, Core: cc})
	return Topology{D: d, Viewer: CenterID(10, 10), Publish: func(item attr.Descriptor, c int, payload []byte) {
		d.Peers[1].Node.PublishChunk(item, c, payload)
	}}
}

// CityTopology is the city-scale core, everyone moving under the
// waypoint model: node 1 views, and each chunk is published at the
// three nodes currently nearest node 1 (an edge producer following its
// audience).
func CityTopology(cfg CityConfig, seed int64) Topology {
	d, wp := CityScale(cfg, Options{Seed: seed})
	pos := wp.Positions()
	return Topology{D: d, Viewer: wp.ID(0), prefix: "city-", Publish: func(item attr.Descriptor, c int, payload []byte) {
		for _, idx := range nearestIndices(pos, 0, 3) {
			d.Peers[wp.ID(idx)].Node.PublishChunk(item, c, payload)
		}
	}}
}

// StreamReport is one finished streaming run.
type StreamReport struct {
	// Result is the workload driver's session account.
	Result workload.StreamResult
	// Done reports every segment retrieval resolved before the budget.
	Done bool
	// Sample is the run reduced to the standard metrics row, QoE set.
	Sample metrics.Sample
	// Row is the deterministic one-line summary.
	Row string
}

// streamDefaults fills a StreamSpec through the spec grammar's default
// table.
func streamDefaults(spec workload.StreamSpec) workload.StreamSpec {
	return (workload.Spec{Kind: workload.Stream, Stream: spec}).WithDefaults().Stream
}

// crowdDefaults fills a CrowdSpec through the spec grammar's default
// table.
func crowdDefaults(spec workload.CrowdSpec) workload.CrowdSpec {
	return (workload.Spec{Kind: workload.Crowd, Crowd: spec}).WithDefaults().Crowd
}

// streamBudget bounds a streaming session: the producer timeline plus a
// retrieval tail.
func streamBudget(spec workload.StreamSpec) time.Duration {
	return time.Duration(spec.Segments)*spec.SegmentDuration + 2*time.Minute
}

// crowdBudget bounds a flash-crowd run: the arrival horizon plus a
// retrieval tail.
func crowdBudget(spec workload.CrowdSpec) time.Duration {
	horizon := spec.Arrival.At
	if spec.Arrival.Kind == workload.Poisson {
		horizon = spec.Arrival.Mean * time.Duration(spec.Clients)
	}
	return horizon + 4*time.Minute
}

// workloadRow reduces a finished workload session to the standard
// sample (QoE and, when selected, strategy counters attached) and its
// deterministic one-line summary; detail sits between the common head
// and the QoE tail.
func (d *Deployment) workloadRow(kind string, recall float64, latency time.Duration, rounds float64, done bool, detail string, q metrics.QoECounters) (metrics.Sample, string) {
	tx := d.Medium.Stats().TxBytes
	sample := metrics.Sample{Recall: recall, Latency: latency, OverheadBytes: tx, Rounds: rounds, QoE: &q}
	row := fmt.Sprintf("%s seed=%d recall=%.4f latency=%s overhead=%s rounds=%.1f done=%v%s  %s",
		kind, d.seed, recall, metrics.Seconds(latency), metrics.MB(tx), rounds, done, detail, q.String())
	if sc := d.StrategyCounters(); sc != nil {
		sample.Strategy = sc
		row += "  " + sc.String()
	}
	return sample, row
}

// StreamingRun plays one HLS-style session on the topology: its
// producer publishes segments on the live timeline (or all at once for
// VOD), its viewer consumes them through the workload driver's prefetch
// pipeline, and the playback model charges startup delay and stalls.
func StreamingRun(t Topology, spec workload.StreamSpec) StreamReport {
	spec = streamDefaults(spec)
	budget := streamBudget(spec)
	d := t.D
	d.Pin(t.Viewer)
	sess := workload.StartStream(d.Eng, spec, t.Publish, d.Peers[t.Viewer].Node,
		d.tracer.ForNode(t.Viewer), t.prefix+"stream", budget)
	d.Eng.RunUntil(budget+time.Second, sess.Done)
	res, done := sess.Result(), sess.Done()
	recall := safeDiv(float64(res.SegmentsComplete), float64(spec.Segments))
	sample, row := d.workloadRow(t.prefix+"streaming", recall, res.MeanLatency, res.Rounds, done, "", res.QoE)
	return StreamReport{Result: res, Done: done, Sample: sample, Row: row}
}

// CrowdReport is one finished flash-crowd run.
type CrowdReport struct {
	// Result is the workload driver's run account.
	Result workload.CrowdResult
	// Done reports every client's every layer resolved in budget.
	Done bool
	// Sample is the run reduced to the standard metrics row, QoE set.
	Sample metrics.Sample
	// Row is the deterministic one-line summary.
	Row string
}

// FlashCrowdRun distributes a layered-artifact catalog on the topology:
// its producer holds the catalog, and the spec's clients — spread evenly
// over the rest of the population — arrive per the arrival process, each
// pulling a Zipf-popular artifact's layers.
func FlashCrowdRun(t Topology, spec workload.CrowdSpec) CrowdReport {
	spec = crowdDefaults(spec)
	d := t.D
	// One retrieval session per (node, item) key: duplicate client nodes
	// would collide on the shared base layer, so the population caps
	// clients.
	n := len(d.Peers)
	if spec.Clients > n-1 {
		spec.Clients = n - 1
		spec.Arrival.Count = min(spec.Arrival.Count, spec.Clients)
	}
	budget := crowdBudget(spec)
	cat := workload.BuildCatalog(t.prefix+"crowd", spec)
	workload.PublishCatalog(cat, spec, t.Publish)
	clients := make([]workload.CrowdClient, spec.Clients)
	for i := range clients {
		id := wire.NodeID(2 + i*(n-1)/spec.Clients)
		d.Pin(id)
		clients[i] = workload.CrowdClient{R: d.Peers[id].Node, Tracer: d.tracer.ForNode(id)}
	}
	sess := workload.StartCrowd(d.Eng, spec, cat, clients, newRand(d.seed+33), budget)
	d.Eng.RunUntil(budget+time.Second, sess.Done)
	res, done := sess.Result(), sess.Done()
	kind := t.prefix + "crowd"
	if t.prefix == "" {
		kind = "flash-crowd"
	}
	recall := safeDiv(float64(res.LayersComplete), float64(res.LayersTotal))
	sample, row := d.workloadRow(kind, recall, res.MeanCompletion, res.Rounds, done,
		fmt.Sprintf(" clients=%d/%d", res.ClientsComplete, spec.Clients), res.QoE)
	return CrowdReport{Result: res, Done: done, Sample: sample, Row: row}
}

// nearestIndices returns the k position indices closest to index to
// (excluding it), in ascending-distance order; ties break on index, so
// the pick is deterministic.
func nearestIndices(pos []radio.Pos, to, k int) []int {
	type cand struct {
		idx int
		d2  float64
	}
	best := make([]cand, 0, k)
	for i := range pos {
		if i == to {
			continue
		}
		dx, dy := pos[i].X-pos[to].X, pos[i].Y-pos[to].Y
		d2 := dx*dx + dy*dy
		j := len(best)
		for j > 0 && best[j-1].d2 > d2 {
			j--
		}
		if j < k {
			if len(best) < k {
				best = append(best, cand{})
			}
			copy(best[j+1:], best[j:])
			best[j] = cand{idx: i, d2: d2}
		}
	}
	out := make([]int, len(best))
	for i, b := range best {
		out[i] = b.idx
	}
	return out
}

// lossyStreamPlan is the burst channel the lossy streaming variants run
// under: Gilbert–Elliott with p_bad = 0.3 from t = 2s on.
func lossyStreamPlan(seed int64) fault.Plan {
	return fault.Plan{Seed: seed, Events: []fault.Event{
		{At: 2 * time.Second, Kind: fault.Burst, GE: fault.DefaultGE(0.3)},
	}}
}

// streamSeries is the `pds-bench stream` figure: streaming QoE versus
// prefetch depth K ∈ {1, 2, 4}, on a clean channel and under the lossy
// burst plan. X is the prefetch depth.
func streamSeries(p Params, r int) []*metrics.Series {
	s := &metrics.Series{Name: "streaming QoE vs prefetch"}
	seed := p.seed(r)
	for _, lossy := range []bool{false, true} {
		channel := "clean"
		if lossy {
			channel = "lossy"
		}
		for _, k := range []int{1, 2, 4} {
			t := GridTopology(seed, "", "")
			if lossy {
				t.D.InstallFaults(lossyStreamPlan(seed))
			}
			s.Add(float64(k), fmt.Sprintf("%s-k%d", channel, k), StreamingRun(t, workload.StreamSpec{Prefetch: k}).Sample)
		}
	}
	return []*metrics.Series{s}
}

// crowdSeries is the `pds-bench crowd` figure: flash-crowd QoE under a
// Poisson trickle versus a step burst of 8 simultaneous clients. X is
// the variant index.
func crowdSeries(p Params, r int) []*metrics.Series {
	s := &metrics.Series{Name: "flash crowd QoE"}
	variants := []struct {
		label   string
		arrival workload.ArrivalSpec
	}{
		{"poisson", workload.ArrivalSpec{Kind: workload.Poisson, Mean: 2 * time.Second}},
		{"step", workload.ArrivalSpec{Kind: workload.Step, At: 10 * time.Second, Count: 8}},
	}
	for i, v := range variants {
		t := GridTopology(p.seed(r), "", "")
		s.Add(float64(i+1), v.label, FlashCrowdRun(t, workload.CrowdSpec{Arrival: v.arrival}).Sample)
	}
	return []*metrics.Series{s}
}
