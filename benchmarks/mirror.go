package main

import (
	"math/rand"
	"sort"
	"time"

	"pds/internal/clock"
	"pds/internal/core"
	"pds/internal/link"
	"pds/internal/mobility"
	"pds/internal/radio"
	"pds/internal/scenario"
	"pds/internal/sim"
	"pds/internal/wire"
)

// simPeer is the part of one simulated node the drivers and the
// counter roll-up touch.
type simPeer struct {
	node *core.Node
	link *link.Link
}

// simNet is the drivers' view of a simulated deployment. Untraced
// passes fill it from the production constructors (scenario.Grid,
// scenario.CityScale); traced passes fill it from the mirror below,
// which wires the same layers with a span wrapper at every seam.
type simNet struct {
	eng    *sim.Engine
	medium *radio.Medium
	peers  map[wire.NodeID]simPeer
	ids    []wire.NodeID // ascending
	tr     *tracer       // nil on untraced passes
}

// viewOf exposes a production-built deployment as a simNet.
func viewOf(d *scenario.Deployment) *simNet {
	n := &simNet{eng: d.Eng, medium: d.Medium, peers: make(map[wire.NodeID]simPeer, len(d.Peers))}
	for id, p := range d.Peers {
		n.peers[id] = simPeer{node: p.Node, link: p.Link}
		n.ids = append(n.ids, id)
	}
	sort.Slice(n.ids, func(i, j int) bool { return n.ids[i] < n.ids[j] })
	return n
}

// api runs one driver call into core (Discover, Retrieve, Publish*),
// as a core.api span attributed to op when the pass is traced.
func (n *simNet) api(op int32, fn func()) {
	if n.tr == nil {
		fn()
		return
	}
	n.tr.op = op
	n.tr.begin(spanCoreAPI)
	fn()
	n.tr.end()
	n.tr.op = 0
}

// issue is api for the call that starts op at consumer: until endOp,
// receive spans of that consumer's query flood carry the op id too.
func (n *simNet) issue(consumer wire.NodeID, op int32, fn func()) {
	if n.tr != nil {
		n.tr.opByNode[consumer] = op
	}
	n.api(op, fn)
}

func (n *simNet) endOp(consumer wire.NodeID) {
	if n.tr != nil {
		delete(n.tr.opByNode, consumer)
	}
}

// tracedClock is the clock.Clock handed to core and link in the
// mirror: every Schedule maps one-to-one onto the engine's (so event
// order, and with it every simulated counter, is unchanged) and the
// callback runs inside a timer span.
type tracedClock struct {
	eng  *sim.Engine
	tr   *tracer
	kind spanKind
}

var _ clock.Clock = tracedClock{}

func (c tracedClock) Now() time.Duration { return c.eng.Now() }

func (c tracedClock) Schedule(delay time.Duration, fn func()) (cancel func()) {
	c.tr.cap.delay(delay)
	return c.eng.Schedule(delay, func() {
		c.tr.begin(c.kind)
		fn()
		c.tr.end()
	})
}

// newMirror is scenario.New with the paper-default radio, link and core
// configuration (scenario.Options.withDefaults on a zero Options).
func newMirror(seed int64, tr *tracer) (*simNet, link.Config, core.Config) {
	eng := sim.NewEngine(seed)
	lcfg := link.DefaultConfig(func(max time.Duration) time.Duration {
		if max <= 0 {
			return 0
		}
		return time.Duration(eng.Rand().Int63n(int64(max)))
	})
	n := &simNet{
		eng:    eng,
		medium: radio.NewMedium(eng, radio.DefaultConfig()),
		peers:  make(map[wire.NodeID]simPeer),
		tr:     tr,
	}
	return n, lcfg, core.DefaultConfig()
}

// addPeer mirrors scenario.Deployment.AddPeer: same constructors, same
// per-node RNG derivation, same callbacks — each wrapped in a span.
func (n *simNet) addPeer(seed int64, id wire.NodeID, pos radio.Pos, lcfg link.Config, ccfg core.Config) {
	tr := n.tr
	var (
		lk *link.Link
		nd *core.Node
		rd *radio.Radio
	)
	rng := rand.New(rand.NewSource(seed ^ (int64(id)+1)*0x5851f42d4c957f2d))
	rd = n.medium.Attach(id, pos, func(msg *wire.Message) {
		tr.op = tr.opOf(msg)
		tr.begin(spanLinkRx)
		if up := lk.HandleIncoming(msg); up != nil {
			tr.begin(spanCoreRx)
			nd.HandleMessage(up)
			tr.end()
		}
		tr.end()
		tr.op = 0
	})
	lk = link.New(tracedClock{n.eng, tr, spanLinkTimer}, id, func(msg *wire.Message) bool {
		tr.cap.message(msg)
		tr.begin(spanRadioSend)
		ok := rd.Send(msg)
		tr.end()
		return ok
	}, lcfg)
	lk.EnableTransmitNotify()
	rd.OnTransmitted = func(msg *wire.Message) {
		tr.begin(spanLinkNotify)
		lk.NotifyTransmitted(msg)
		tr.end()
	}
	nd = core.NewNode(id, tracedClock{n.eng, tr, spanCoreTimer}, rng, func(msg *wire.Message) {
		tr.begin(spanLinkTx)
		lk.Send(msg)
		tr.end()
	}, ccfg)
	lk.OnGiveUp = func(msg *wire.Message, unacked []wire.NodeID) {
		tr.begin(spanCoreRx)
		nd.OnSendFailure(msg, unacked)
		tr.end()
	}
	n.peers[id] = simPeer{node: nd, link: lk}
	n.ids = append(n.ids, id) // callers add in ascending id order
}

// newGrid builds a rows×cols grid at the paper's spacing: through
// scenario.Grid when tc is nil, through the traced mirror otherwise.
func newGrid(rows, cols int, seed int64, tc *traceCtx) *simNet {
	if tc == nil {
		return viewOf(scenario.Grid(rows, cols, scenario.GridSpacing, scenario.Options{Seed: seed}))
	}
	return mirrorGrid(rows, cols, scenario.GridSpacing, seed, tc.sim)
}

// mirrorGrid is scenario.Grid through the mirror.
func mirrorGrid(rows, cols int, spacing float64, seed int64, tr *tracer) *simNet {
	n, lcfg, ccfg := newMirror(seed, tr)
	for i, pos := range mobility.GridPositions(rows, cols, spacing) {
		n.addPeer(seed, wire.NodeID(i+1), pos, lcfg, ccfg)
	}
	return n
}

// mirrorCity is scenario.CityScale through the mirror: same waypoint
// model and Zipf catalog (same derived seeds), and the same single
// repeating step event, with Waypoint.Step and Medium.SetPositions in
// spans of their own. cfg must have every field CityScale reads set
// explicitly — the production defaults are unexported.
func mirrorCity(cfg scenario.CityConfig, seed int64, tr *tracer) (*simNet, *mobility.Waypoint) {
	n, lcfg, ccfg := newMirror(seed, tr)
	side := cfg.Side()
	wp := mobility.NewWaypointFromConfig(mobility.WaypointConfig{
		N: cfg.Nodes, Width: side, Height: side,
		SpeedMin: cfg.SpeedMin, SpeedMax: cfg.SpeedMax,
		PauseMin: cfg.PauseMin, PauseMax: cfg.PauseMax, FirstID: 1,
	}, rand.New(rand.NewSource(seed+21)))
	for i, pos := range wp.Positions() {
		n.addPeer(seed, wp.ID(i), pos, lcfg, ccfg)
	}
	zrng := rand.New(rand.NewSource(seed + 22))
	zipf := rand.NewZipf(zrng, cfg.ZipfS, 1, uint64(cfg.Items-1))
	tr.begin(spanCoreAPI)
	for i := 0; i < cfg.Publishes; i++ {
		item := int(zipf.Uint64())
		id := wp.ID(zrng.Intn(cfg.Nodes))
		n.peers[id].node.PublishEntry(scenario.EntryDescriptor(item))
	}
	tr.end()

	var moves []radio.Move
	var step func()
	step = func() {
		tr.begin(spanMobilityStep)
		moves = wp.Step(cfg.StepInterval, moves[:0])
		tr.end()
		tr.begin(spanRadioSetPos)
		n.medium.SetPositions(moves)
		tr.end()
		n.eng.Schedule(cfg.StepInterval, step)
	}
	n.eng.Schedule(cfg.StepInterval, step)
	return n, wp
}

// simCounters rolls every module's public Stats() up over the whole
// deployment, under the per-layer metric names. All of them are exact
// functions of the seed.
func simCounters(n *simNet) map[string]float64 {
	var cs core.Stats
	var ls link.Stats
	for _, id := range n.ids {
		p := n.peers[id]
		c, l := p.node.Stats(), p.link.Stats()
		sumCore(&cs, c)
		ls.Sent += l.Sent
		ls.Transmitted += l.Transmitted
		ls.Retransmissions += l.Retransmissions
		ls.AcksSent += l.AcksSent
		ls.GiveUps += l.GiveUps
		ls.Fragmented += l.Fragmented
		ls.Reassembled += l.Reassembled
		ls.DupDropped += l.DupDropped
	}
	rs := n.medium.Stats()
	out := map[string]float64{
		"sim.events":         float64(n.eng.Processed()),
		"radio.tx_frames":    float64(rs.Transmissions),
		"radio.tx_bytes":     float64(rs.TxBytes),
		"radio.delivered":    float64(rs.Delivered),
		"radio.collisions":   float64(rs.Collisions),
		"radio.buffer_drops": float64(rs.BufferDrops),
	}
	addCoreCounters(out, cs)
	addLinkCounters(out, ls)
	return out
}

// sumCore adds the counters the ledger reports from c into dst.
func sumCore(dst *core.Stats, c core.Stats) {
	dst.QueriesReceived += c.QueriesReceived
	dst.QueriesDuplicate += c.QueriesDuplicate
	dst.QueriesForwarded += c.QueriesForwarded
	dst.ResponsesReceived += c.ResponsesReceived
	dst.ResponsesDuplicate += c.ResponsesDuplicate
	dst.ResponsesSent += c.ResponsesSent
	dst.ResponsesRelayed += c.ResponsesRelayed
	dst.EntriesPruned += c.EntriesPruned
	dst.SubQueriesSent += c.SubQueriesSent
	dst.SendFailures += c.SendFailures
	dst.ChunkDupDeliveries += c.ChunkDupDeliveries
}

func addCoreCounters(out map[string]float64, cs core.Stats) {
	out["core.queries_received"] = float64(cs.QueriesReceived)
	out["core.queries_duplicate"] = float64(cs.QueriesDuplicate)
	out["core.queries_forwarded"] = float64(cs.QueriesForwarded)
	out["core.responses_received"] = float64(cs.ResponsesReceived)
	out["core.responses_duplicate"] = float64(cs.ResponsesDuplicate)
	out["core.responses_sent"] = float64(cs.ResponsesSent)
	out["core.responses_relayed"] = float64(cs.ResponsesRelayed)
	out["core.entries_pruned"] = float64(cs.EntriesPruned)
	out["core.subqueries_sent"] = float64(cs.SubQueriesSent)
	out["core.send_failures"] = float64(cs.SendFailures)
	out["core.chunk_dup_deliveries"] = float64(cs.ChunkDupDeliveries)
}

func addLinkCounters(out map[string]float64, ls link.Stats) {
	out["link.sent"] = float64(ls.Sent)
	out["link.transmitted"] = float64(ls.Transmitted)
	out["link.retransmissions"] = float64(ls.Retransmissions)
	out["link.acks_sent"] = float64(ls.AcksSent)
	out["link.giveups"] = float64(ls.GiveUps)
	out["link.fragmented"] = float64(ls.Fragmented)
	out["link.reassembled"] = float64(ls.Reassembled)
	out["link.dup_dropped"] = float64(ls.DupDropped)
}
