package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"time"
)

// Noise discipline constants (README "Noise discipline").
const (
	// stealLimitPct: a pass the hypervisor stole more than this from is
	// left out of the host-time metrics.
	stealLimitPct = 2.0
	// liveSettle outlasts core's 1 s housekeeping period.
	liveSettle = 1200 * time.Millisecond
	// livePooled is how many of a live-swarm run's passes — its
	// fastest — the op percentiles pool.
	livePooled = 4
)

// childConfig is what the runner tells a workload child.
type childConfig struct {
	workload   string
	seed       int64
	seconds    float64
	trace      bool
	spawned    time.Time // when the runner started this child
	cpuProfile string
	memProfile string
}

// measuredPass is one bracketed pass.
type measuredPass struct {
	Replica int       `json:"replica"`
	Host    hostDelta `json:"host"`
	out     *passOutcome
}

// childResult is the child's report to the runner, one JSON line on
// stdout.
type childResult struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Trace     bool               `json:"trace"`
	Correct   bool               `json:"correct"`
	Reason    string             `json:"reason,omitempty"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]float64 `json:"metrics"`
	// Gauges are the run's own noise readings, printed beside the
	// end-to-end metrics of an untraced run.
	Gauges    map[string]float64  `json:"gauges,omitempty"`
	Passes    []measuredPass      `json:"passes,omitempty"`
	Discarded int                 `json:"discarded"`
	Notes     []string            `json:"notes,omitempty"`
	Spans     map[string]*spanAgg `json:"spans,omitempty"`
	SpansFile string              `json:"spans_file,omitempty"`
}

// runChild runs one workload in this process and prints its result.
func runChild(cfg childConfig) int {
	w, err := workloadByName(cfg.workload)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmarks:", err)
		return 2
	}
	res := &childResult{Workload: w.name(), Seed: cfg.seed, Trace: cfg.trace}
	var runErr error
	if cfg.trace {
		runErr = tracedRun(w, cfg, res)
	} else {
		runErr = untracedRun(w, cfg, res)
	}
	res.Correct = runErr == nil
	if runErr != nil {
		res.Reason = runErr.Error()
	}
	if err := json.NewEncoder(os.Stdout).Encode(res); err != nil {
		fmt.Fprintln(os.Stderr, "benchmarks: write result:", err)
		return 2
	}
	if runErr != nil {
		return 1
	}
	return 0
}

// timedPass brackets one pass with host snapshots and then runs its
// correctness gates outside the bracket.
func timedPass(w workload, tc *traceCtx, replica int) (measuredPass, error) {
	if !w.simulated() {
		// A closed pds.Node's armed runtime timers (housekeeping, link
		// retries) pin its stores until they fire. Let the previous
		// swarm's fire, so the GC below starts every pass from the same
		// small heap instead of one that depends on timer luck.
		time.Sleep(liveSettle)
	}
	runtime.GC()
	before := snapHost()
	out, err := w.pass(tc, replica)
	after := snapHost()
	if err != nil {
		return measuredPass{}, fmt.Errorf("pass failed: %w", err)
	}
	if err := out.verify(); err != nil {
		return measuredPass{}, fmt.Errorf("incorrect output: %w", err)
	}
	// The gate holds every op's returned payloads; kept passes must not
	// pin them, or the harness itself would grow the child's peak RSS.
	out.verify = nil
	return measuredPass{Replica: replica, Host: before.until(after), out: out}, nil
}

func untracedRun(w workload, cfg childConfig, res *childResult) error {
	w.generate(cfg.seed)
	warm, err := timedPass(w, nil, 0)
	if err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}
	// Child start → first measured pass: process start-up, input
	// generation and the warm-up pass.
	setupS := time.Since(cfg.spawned).Seconds()

	stopProfile, err := startCPUProfile(cfg.cpuProfile, w.name())
	if err != nil {
		return err
	}
	passes, err := measuredPasses(w, cfg.seconds, warm)
	stopProfile()
	if err != nil {
		return err
	}
	if err := writeMemProfile(cfg.memProfile, w.name()); err != nil {
		return err
	}
	cycle := w.minPasses()

	// Host-time metrics come from the passes the hypervisor did not
	// steal from; when too few are left, from all of them, loudly.
	clean := make([]measuredPass, 0, len(passes))
	for _, p := range passes {
		if p.Host.StealPct <= stealLimitPct {
			clean = append(clean, p)
		}
	}
	res.Discarded = len(passes) - len(clean)
	if len(clean) < cycle {
		note := fmt.Sprintf("NOISY RUN: %d of %d passes lost more than %.0f%% to steal; reporting on all of them", res.Discarded, len(passes), stealLimitPct)
		res.Notes = append(res.Notes, note)
		fmt.Fprintf(os.Stderr, "benchmarks: %s: %s\n", w.name(), note)
		clean = passes
	}
	res.Passes = passes

	// Input-determined metrics come from the first cycle on simulated
	// workloads. On the host-clock one, whose op latencies are host
	// time, they come from its fastest passes: a burst of host noise
	// that covers a pass or two would otherwise own the 90th percentile.
	inputs := passes[:cycle]
	if !w.simulated() {
		inputs = fastestPasses(clean, livePooled)
	}
	var pooled [][]float64
	var overheads []float64
	var wanted, delivered uint64
	for _, p := range inputs {
		pooled = append(pooled, p.out.opMs)
		overheads = append(overheads, float64(p.out.overheadBytes))
		wanted += p.out.wanted
		delivered += p.out.delivered
	}
	for _, p := range passes {
		res.Attempted += p.out.attempted
		res.Failed += p.out.failed
	}
	p50, _ := pooledPercentile(pooled, 0.50)
	p90, beyond := pooledPercentile(pooled, 0.90)
	if !w.simulated() && beyond < minBeyond {
		return fmt.Errorf("op_p90_ms: only %d pooled samples lie beyond the 90th percentile, need %d", beyond, minBeyond)
	}
	mid := func(ps []measuredPass, f func(hostDelta) float64) float64 { return median(passField(ps, f)) }
	walls := passWalls(clean)
	res.Metrics = map[string]float64{
		"setup_s":     setupS,
		"alloc_MB":    mid(inputs, func(h hostDelta) float64 { return h.AllocMB }),
		"allocs_k":    mid(inputs, func(h hostDelta) float64 { return h.AllocsK }),
		"peak_rss_MB": maxRSSMB(),
		"recall":      float64(delivered) / float64(wanted),
		"op_p50_ms":   p50,
		"op_p90_ms":   p90,
		"overhead_MB": median(overheads) / (1 << 20),
	}
	var steal float64
	for _, p := range clean {
		steal = max(steal, p.Host.StealPct)
	}
	res.Gauges = map[string]float64{
		"pass.count":      float64(len(passes)),
		"pass.wall_s":     lowerQuartile(walls),
		"pass.cpu_s":      lowerQuartile(passCPUs(clean)),
		"pass.spread_pct": spreadPct(walls),
		"host.steal_pct":  steal,
		"pass.discarded":  float64(res.Discarded),
		"gc.cycles":       mid(clean, func(h hostDelta) float64 { return h.GCCycles }),
		"gc.pause_ms":     mid(clean, func(h hostDelta) float64 { return h.GCPauseM }),
	}
	return nil
}

// measuredPasses runs the measured passes of an untraced run. The first
// cycle runs each of the workload's replicas once; every number that is
// a function of the inputs alone (simulated counters, op latencies,
// allocations) is read from it, so it depends on nothing but the seed.
// Further cycles repeat the same replicas for as long as seconds allows
// and add host-time samples only; on a simulated workload each repeat
// must reproduce its replica's outcome exactly.
func measuredPasses(w workload, seconds float64, warm measuredPass) ([]measuredPass, error) {
	cycle := w.minPasses()
	budget := time.Duration(seconds * float64(time.Second))
	start := time.Now()
	var passes []measuredPass
	for {
		replica := len(passes) % cycle
		p, err := timedPass(w, nil, replica)
		if err != nil {
			return nil, err
		}
		if w.simulated() {
			var ref *passOutcome
			switch {
			case len(passes) >= cycle:
				ref = passes[replica].out
			case replica == 0:
				ref = warm.out
			}
			if ref != nil {
				if err := sameOutcome(ref, p.out); err != nil {
					return nil, fmt.Errorf("same seed, different bytes across passes: %w", err)
				}
			}
		}
		passes = append(passes, p)
		if len(passes) < cycle {
			continue
		}
		// Start another pass only if a typical one still fits: the run's
		// length is set by -seconds, not by how fast the host is today.
		next := time.Duration(median(passWalls(passes)) * float64(time.Second))
		if !w.simulated() {
			next += liveSettle
		}
		if time.Since(start)+next > budget {
			return passes, nil
		}
	}
}

func passWalls(ps []measuredPass) []float64 {
	return passField(ps, func(h hostDelta) float64 { return h.WallS })
}

func passCPUs(ps []measuredPass) []float64 {
	return passField(ps, func(h hostDelta) float64 { return h.CPUS })
}

// fastestPasses returns the n passes of ps with the smallest wall time (all of
// them when there are no more than n).
func fastestPasses(ps []measuredPass, n int) []measuredPass {
	s := append([]measuredPass(nil), ps...)
	sort.SliceStable(s, func(i, j int) bool { return s[i].Host.WallS < s[j].Host.WallS })
	return s[:min(n, len(s))]
}

func passField(ps []measuredPass, f func(hostDelta) float64) []float64 {
	out := make([]float64, len(ps))
	for i, p := range ps {
		out[i] = f(p.Host)
	}
	return out
}

// tracedRun produces the per-layer ledger: a warm-up and two timed
// untraced passes (the counters, and the baseline the tracing overhead
// is measured against), one traced pass through the mirror wiring, and
// the layer replays on what the traced pass captured.
func tracedRun(w workload, cfg childConfig, res *childResult) error {
	w.generate(cfg.seed)
	warm, err := timedPass(w, nil, 0)
	if err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}
	var untraced []measuredPass
	for i := 0; i < 2; i++ {
		p, err := timedPass(w, nil, 0)
		if err != nil {
			return err
		}
		if w.simulated() {
			if err := sameOutcome(warm.out, p.out); err != nil {
				return fmt.Errorf("same seed, different bytes across passes: %w", err)
			}
		}
		untraced = append(untraced, p)
	}
	tc := &traceCtx{}
	if w.simulated() {
		tc.sim = newTracer()
	} else {
		tc.live = newLiveTracer()
	}
	traced, err := timedPass(w, tc, 0)
	if err != nil {
		return fmt.Errorf("traced pass: %w", err)
	}
	base := untraced[len(untraced)-1]
	if w.simulated() {
		// This is what keeps the mirror honest: the traced wiring must
		// reproduce the production constructors' run bit for bit.
		if err := sameOutcome(base.out, traced.out); err != nil {
			return fmt.Errorf("traced mirror diverged from the production constructors: %w", err)
		}
	}

	m := make(map[string]float64, len(perLayer))
	for k, v := range base.out.counters {
		m[k] = v
	}
	var sink *spanSink
	var captured *capture
	if w.simulated() {
		sink, captured = &tc.sim.sink, &tc.sim.cap
	} else {
		sink, captured = &tc.live.sink, &tc.live.cap
	}
	ops := float64(base.out.attempted)
	if w.simulated() {
		m["sim.events_per_op"] = m["sim.events"] / ops
		m["sim.residual_ms"] = traced.Host.WallS*1e3 - float64(sink.rootNs)/1e6
		replaySched(captured.delays, m)
		m["link.rx_self_ms"] = sink.selfMs(spanLinkRx)
		m["radio.delivery_ratio"] = ratio(m["radio.delivered"], m["radio.delivered"]+m["radio.collisions"])
	} else {
		replayLinkRx(tc.live.inbound[:], liveLinkConfig(), m)
		m["link.transmitted"] = sink.count(spanFaceSend)
		m["pds.rx_calls"] = sink.count(spanPdsRx)
		m["pds.rx_self_ms"] = sink.selfMs(spanPdsRx)
		m["face.send_self_ms"] = sink.selfMs(spanFaceSend)
		m["tier.p2p_share"] = ratio(m["tier.p2p_chunks"], m["tier.p2p_chunks"]+m["tier.origin_chunks"])
	}
	m["core.timers"] = sink.count(spanCoreTimer)
	if base.out.nodeSeconds > 0 {
		m["core.timers_per_node_s"] = m["core.timers"] / base.out.nodeSeconds
	}
	m["core.timer_self_ms"] = sink.selfMs(spanCoreTimer)
	m["core.rx_self_ms"] = sink.selfMs(spanCoreRx)
	m["core.api_self_ms"] = sink.selfMs(spanCoreAPI)
	received := m["core.queries_received"] + m["core.responses_received"]
	m["core.useful_rx_ratio"] = 1 - ratio(m["core.queries_duplicate"]+m["core.responses_duplicate"], received)
	m["link.tx_self_ms"] = sink.selfMs(spanLinkTx) + sink.selfMs(spanLinkNotify)
	m["link.timer_self_ms"] = sink.selfMs(spanLinkTimer)
	m["link.timers"] = sink.count(spanLinkTimer)
	m["link.retx_ratio"] = ratio(m["link.retransmissions"], m["link.transmitted"])
	m["radio.send_self_ms"] = sink.selfMs(spanRadioSend)
	m["radio.set_positions_ms"] = sink.selfMs(spanRadioSetPos)
	m["mobility.step_ms"] = sink.selfMs(spanMobilityStep)
	replayWire(captured.msgs, m)
	entries, sel := w.storeShape()
	replayStore(entries, sel, m)

	baseWall := median(passWalls(untraced))
	m["pass.wall_s"] = lowerQuartile(passWalls(untraced))
	m["pass.cpu_s"] = lowerQuartile(passCPUs(untraced))
	m["trace.overhead_pct"] = (traced.Host.WallS/baseWall - 1) * 100
	m["gc.cycles"] = base.Host.GCCycles
	m["gc.pause_ms"] = base.Host.GCPauseM
	m["pass.spread_pct"] = spreadPct(passWalls(untraced))
	m["host.steal_pct"] = max(untraced[0].Host.StealPct, untraced[1].Host.StealPct, traced.Host.StealPct, 0)
	m["pass.discarded"] = 0

	res.Metrics = make(map[string]float64, len(perLayer))
	for _, d := range perLayer {
		res.Metrics[d.Name] = m[d.Name]
	}
	res.Attempted = base.out.attempted
	res.Failed = base.out.failed
	res.Passes = append(untraced, traced)
	res.Spans = make(map[string]*spanAgg)
	for k := spanKind(0); k < numSpanKinds; k++ {
		if sink.agg[k].Count > 0 {
			res.Spans[spanNames[k]] = &sink.agg[k]
		}
	}
	sort.Slice(sink.records, func(i, j int) bool { return sink.records[i].ID < sink.records[j].ID })
	res.SpansFile = filepath.Join(outDir(), "spans-"+w.name()+".jsonl")
	return sink.writeJSONL(res.SpansFile)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// startCPUProfile profiles the measured passes of this child into
// dir/<workload>.cpu.pprof; with an empty dir it does nothing.
func startCPUProfile(dir, workload string) (stop func(), err error) {
	if dir == "" {
		return func() {}, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("cpuprofile dir: %w", err)
	}
	f, err := os.Create(filepath.Join(dir, workload+".cpu.pprof"))
	if err != nil {
		return nil, fmt.Errorf("cpuprofile: %w", err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, fmt.Errorf("cpuprofile: %w", err)
	}
	return func() {
		pprof.StopCPUProfile()
		if err := f.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "benchmarks: cpuprofile:", err)
		}
	}, nil
}

// writeMemProfile writes the allocation profile accumulated up to the
// end of the measured passes into dir/<workload>.mem.pprof.
func writeMemProfile(dir, workload string) error {
	if dir == "" {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("memprofile dir: %w", err)
	}
	f, err := os.Create(filepath.Join(dir, workload+".mem.pprof"))
	if err != nil {
		return fmt.Errorf("memprofile: %w", err)
	}
	runtime.GC()
	if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
		f.Close()
		return fmt.Errorf("memprofile: %w", err)
	}
	return f.Close()
}
