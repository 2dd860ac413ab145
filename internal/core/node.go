// Package core implements the PDS protocol engine: Peer Data Discovery
// (PDD, §III), Peer Data Retrieval (PDR, §IV) and the MDR baseline
// (§VI-B.3), exactly as a per-node state machine.
//
// A Node is driven entirely by three inputs — HandleMessage for frames
// that survived the link layer, timers from an abstract clock, and local
// application calls (Publish*, Discover, Retrieve) — and produces
// messages through an abstract sender. It therefore runs unchanged on
// the deterministic simulator and on real UDP sockets.
package core

import (
	"cmp"
	"math/rand"
	"slices"
	"time"

	"pds/internal/attr"
	"pds/internal/clock"
	"pds/internal/metrics"
	"pds/internal/store"
	"pds/internal/strategy"
	"pds/internal/trace"
	"pds/internal/wire"
)

// Config holds protocol parameters. Defaults (DefaultConfig) are the
// paper's chosen operating point.
type Config struct {
	// QueryTTL is the lifetime of a lingering query in LQTs en route
	// (§III-A). It bounds how long one query keeps steering responses.
	QueryTTL time.Duration
	// EntryTTL is the expiry attached to cached metadata entries held
	// without payload (§II-C).
	EntryTTL time.Duration
	// CDITTL is the expiry of chunk-distribution entries (§IV-A).
	CDITTL time.Duration
	// RecentRespRetention is how long response ids are remembered for
	// duplicate suppression.
	RecentRespRetention time.Duration

	// Window is T: the sliding window over which response arrivals are
	// counted to detect a diminishing round (§III-B.2). Paper best: 1s.
	Window time.Duration
	// StopRatio is T_r: the round is finished when the fraction of
	// responses arriving within the last Window drops to or below it.
	// Paper best: 0.
	StopRatio float64
	// NewRoundRatio is T_d: a new round starts when the fraction of new
	// entries received in the finished round exceeds it. Paper best: 0.
	NewRoundRatio float64
	// MaxRounds caps discovery rounds as a safety valve.
	MaxRounds int

	// BloomEnabled turns redundancy detection on (§III-B.2). Off is the
	// no-rewrite ablation.
	BloomEnabled bool
	// MixedcastEnabled joins entries for multiple downstream consumers
	// into one response (§III-B.1). Off sends one response per matching
	// lingering query — the multicast-style ablation.
	MixedcastEnabled bool
	// LingeringEnabled keeps queries alive until TTL. Off removes a
	// query from the LQT after it first steers a response — the
	// CCN/NDN-style one-shot Interest ablation (§VIII).
	LingeringEnabled bool

	// ForwardJitterMax randomizes when a flooded query is re-forwarded,
	// desynchronizing the neighbors that all received the same
	// broadcast — the classic broadcast-storm mitigation the paper
	// defers to ([26], [27] in §VII). A point-to-point transport (a face
	// mesh) gives every peer its own queue, so there is no collision to
	// spread out: pds.NewNode zeroes both jitters over one.
	ForwardJitterMax time.Duration
	// ResponseJitterMax randomizes when a locally generated response is
	// sent, spreading the answer burst that a flooded query triggers. A
	// PDR round waits it out before it may settle phase 1.
	ResponseJitterMax time.Duration
	// CacheCap bounds cached (non-owned) payload bytes per node;
	// 0 = unlimited. Metadata entries are always cached (§VII).
	CacheCap int
	// Caching selects what the cache admits by name (internal/strategy:
	// "fifo", "opportunistic"). Empty means "fifo": admit everything.
	// Either way the cache evicts oldest first.
	Caching string

	// Routing selects chunk routing by name (internal/strategy: "cdi",
	// "bfr"). Empty means "cdi", the paper's CDI distance-vector
	// routing; "bfr" adds a content-advert table to fall back on.
	Routing string

	// LoadBalanceEnabled applies the min-max assignment heuristic of
	// §IV-B when dividing chunk queries among neighbors. Off always
	// picks the first nearest neighbor — the contention ablation.
	LoadBalanceEnabled bool
	// ChunkRetry is the consumer-side watchdog for PDR phase 2: wanted
	// chunks not delivered within it are re-requested with fresh CDI.
	ChunkRetry time.Duration
	// RetrievalRounds caps phase-1/phase-2 retry cycles.
	RetrievalRounds int

	// RetrievalDeadline, when positive, bounds a PDR session's wall
	// time: at the deadline the session finishes with whatever chunks it
	// has, enumerating the rest in RetrievalResult.Missing — graceful
	// degradation instead of an open-ended hang under partition or
	// producer departure. Zero disables the deadline.
	RetrievalDeadline time.Duration
	// ExtendRoundsOnLoss lets a discovery session run up to two extra
	// rounds past its normal stop when the round showed loss signals (a
	// link-layer give-up during the round, or no arrivals at all): under
	// burst loss a "finished" round may simply have had its responses
	// burned. Off by default — extra dark rounds would skew the paper's
	// round-count figures under clean channels.
	ExtendRoundsOnLoss bool
}

// The settings of the operating point that no experiment varies.
const (
	// RoundCheck is how often a consumer session evaluates the round
	// rules; it only needs to be a fraction of Window. A covering CDI
	// update settles PDR phase 1 as it lands, without waiting for it.
	RoundCheck = 100 * time.Millisecond
	// OutstandingChunks bounds how many chunks a PDR consumer keeps
	// requested but undelivered at once. Requesting every chunk of a
	// 20 MB item simultaneously floods the consumer's contention domain
	// with dozens of concurrent streams and collapses the channel; a
	// small window keeps it near capacity.
	OutstandingChunks = 6
	// bloomFPR is the per-round false-positive target (§V-3).
	bloomFPR = 0.01
	// maxResponseBytes bounds the payload of one metadata/CDI response
	// message; longer payloads are split across messages, mirroring the
	// prototype's 1.5 KB packets.
	maxResponseBytes = 1400
	// cdiWindow is the phase-1 settling window: phase 2 starts once no
	// CDI update has arrived for this long (or all chunks are known).
	cdiWindow = 800 * time.Millisecond
)

// DefaultConfig returns the paper's operating point: T = 1 s,
// T_r = T_d = 0, Bloom redundancy detection, mixedcast and lingering
// queries on.
func DefaultConfig() Config {
	return Config{
		QueryTTL:            15 * time.Second,
		EntryTTL:            5 * time.Minute,
		CDITTL:              2 * time.Minute,
		RecentRespRetention: 30 * time.Second,
		Window:              time.Second,
		StopRatio:           0,
		NewRoundRatio:       0,
		MaxRounds:           12,
		BloomEnabled:        true,
		ForwardJitterMax:    20 * time.Millisecond,
		ResponseJitterMax:   100 * time.Millisecond,
		MixedcastEnabled:    true,
		LingeringEnabled:    true,
		CacheCap:            0,
		LoadBalanceEnabled:  true,
		ChunkRetry:          15 * time.Second,
		RetrievalRounds:     10,
	}
}

// Sender transmits a protocol message toward the medium; link.Link.Send
// satisfies it.
type Sender func(*wire.Message)

// Stats counts protocol-level activity at one node.
type Stats struct {
	QueriesReceived    uint64
	QueriesDuplicate   uint64
	QueriesForwarded   uint64
	ResponsesReceived  uint64
	ResponsesDuplicate uint64
	ResponsesSent      uint64
	ResponsesRelayed   uint64
	EntriesCached      uint64
	PayloadsCached     uint64
	EntriesPruned      uint64 // entries suppressed by Bloom/mixedcast pruning
	SubQueriesSent     uint64 // PDR recursive divisions

	SendFailures       uint64 // link-layer give-ups reported to this node
	BlacklistSkips     uint64 // chunk-routing options skipped: neighbor blacklisted
	NeighborsDead      uint64 // neighbors declared dead (all CDI routes dropped)
	ChunkDupDeliveries uint64 // chunk payloads delivered more than once
	RoundExtensions    uint64 // discovery rounds added by loss detection

	ChunksInjected   uint64 // chunks injected from the edge/origin tiers
	FacePeerFailures uint64 // face circuit-breaker trips reported to this node
}

// Node is one PDS protocol endpoint.
type Node struct {
	id   wire.NodeID
	clk  clock.Clock
	rng  *rand.Rand
	send Sender
	cfg  Config

	// The node's tables, held by value: each makes its maps at its first
	// write, so a node that never hears a frame holds none.
	ds  store.DataStore
	cdi store.CDITable
	lqt store.LQT
	rr  store.RecentResponses
	// adverts is the BFR content-advert table chunk queries fall back on
	// when the CDI table has no route; nil (every hook a no-op) unless
	// Config.Routing is "bfr".
	adverts *strategy.BFR

	// servePending coalesces response generation per query kind
	// (metadata and data are the kinds served).
	servePending [wire.KindData + 1]bool
	// idle are the deferred records nothing is waiting in (see later).
	idle *deferred
	// routes, units, keep, receivers and serves are the serve and relay
	// passes' scratch, reused across passes: a pass's lingering queries,
	// the store's live entries in key order, the indices of the units a
	// mixedcast pass keeps, and whom it addresses them to. What leaves is
	// copied out before anything is sent, so no message aliases any.
	routes    []*store.LingeringQuery
	units     []attr.Descriptor
	keep      []int
	receivers []wire.NodeID
	serves    []wire.Serve
	// chunks and pairs are cdiPairsFor's scratch: the chunks held here,
	// then those and the table's pairs, sorted together and compacted.
	chunks []int
	pairs  []wire.CDIPair
	// discSessions are this node's active discovery/collection
	// sessions; responses are delivered to them by selector match.
	discSessions []*session
	// retrievals maps item keys to active PDR sessions; nil until the
	// first Retrieve.
	retrievals map[string]*retrieval
	// health remembers per-neighbor delivery failures (blacklisting).
	health healthTracker
	// lastSendFailAt timestamps the most recent link give-up, the loss
	// signal ExtendRoundsOnLoss reads.
	lastSendFailAt time.Duration

	// tr records protocol-plane trace events; nil (the default) is free.
	tr *trace.NodeTracer

	stats   Stats
	stopped bool
	// crashed marks a powered-off node: it neither sends nor processes.
	crashed bool
	// epoch increments on every crash, invalidating timer closures armed
	// before it — a jittered send scheduled pre-crash must not fire into
	// the restarted node's fresh state.
	epoch uint64

	// The soft-state sweep (see arm): next bounds the earliest expiry
	// held from below, sweepTimer runs n.sweep and is armed for sweepAt
	// (clock.Never: not armed; nil: never armed yet), grid is the birth or
	// Restart instant.
	next, sweepAt, grid time.Duration
	sweepTimer          clock.Timer
}

// NewNode creates a protocol node. rng must be dedicated to this node
// (deterministic experiments seed it from the scenario seed and node
// id).
func NewNode(id wire.NodeID, clk clock.Clock, rng *rand.Rand, send Sender, cfg Config) *Node {
	n := &Node{
		id:      id,
		clk:     clk,
		rng:     rng,
		send:    send,
		cfg:     cfg,
		ds:      *store.NewDataStore(cfg.CacheCap),
		rr:      *store.NewRecentResponses(cfg.RecentRespRetention),
		next:    clock.Never,
		sweepAt: clock.Never,
		grid:    clk.Now(),
	}
	if err := strategy.Check(cfg.Routing, cfg.Caching); err != nil {
		panic("core: " + err.Error()) // CLIs validate names up front
	}
	if cfg.Routing == "bfr" {
		n.adverts = strategy.NewBFR((*routingEnv)(n))
	}
	if cfg.Caching == "opportunistic" {
		n.ds.Gate = strategy.NewOpportunistic(id)
	}
	return n
}

// routingEnv is the node as its advert table sees it: a pointer
// conversion, so handing it over allocates nothing.
type routingEnv Node

func (e *routingEnv) Self() wire.NodeID { return e.id }

func (e *routingEnv) OwnedItemKeys() []string { return e.ds.OwnedItemKeys() }

// Flood broadcasts a strategy-originated query (a content advertisement,
// already stamped with the node as sender and origin): the node inserts
// the query into the LQT so the flood's echoes deduplicate, and sends
// with forward jitter to desynchronize advert bursts across nodes.
func (e *routingEnv) Flood(q *wire.Query) {
	n := (*Node)(e)
	now := n.clk.Now()
	n.lqt.Insert(q, now+q.TTL)
	n.arm(now + q.TTL)
	n.tr.QueryStart(q.ID, int(q.Round), q.Kind.String())
	n.sendJittered(&wire.Message{Type: wire.TypeQuery, Query: q}, n.cfg.ForwardJitterMax)
}

func (e *routingEnv) NewID() uint64 { return (*Node)(e).newID() }

func (e *routingEnv) TickAt(at time.Duration) { (*Node)(e).arm(at) }

// StrategyCounters returns the active routing/caching strategy names
// and a snapshot of their bookkeeping.
func (n *Node) StrategyCounters() metrics.StrategyCounters {
	c := n.adverts.Counters()
	metrics.Add(&c, n.ds.Gate.Counters())
	c.Routing = cmp.Or(n.cfg.Routing, strategy.DefaultRouting)
	c.Caching = cmp.Or(n.cfg.Caching, strategy.DefaultCaching)
	return c
}

// ID returns the node id.
func (n *Node) ID() wire.NodeID { return n.id }

// Stats returns a snapshot of protocol counters.
func (n *Node) Stats() Stats { return n.stats }

// Config returns the protocol parameters the node runs with.
func (n *Node) Config() Config { return n.cfg }

// Store exposes the data store for scenario seeding and assertions.
func (n *Node) Store() *store.DataStore { return &n.ds }

// SetTracer installs a node-bound tracer for protocol events and
// propagates it to the node's store and lingering-query table. A nil
// tracer disables tracing.
func (n *Node) SetTracer(tr *trace.NodeTracer) {
	n.tr = tr
	n.ds.SetTracer(tr)
	n.lqt.SetTracer(tr)
}

// CDI exposes the chunk-distribution table for tests.
func (n *Node) CDI() *store.CDITable { return &n.cdi }

// LQTLen reports the lingering-query table size (tests/diagnostics).
func (n *Node) LQTLen() int { return n.lqt.Len() }

// Stop aborts every active session without callbacks and cancels the
// sweep; the node still responds to HandleMessage but schedules no
// further timers of its own.
func (n *Node) Stop() {
	n.stopped = true
	n.abortSessions()
	n.arm(clock.Never)
}

// abortSessions ends every active retrieval and discovery without
// calling back, stopping the check timers that would otherwise keep the
// session — and through it the node — alive.
func (n *Node) abortSessions() {
	//lint:allow determinism per-entry teardown; the stops only unschedule that retrieval's own timer
	for _, r := range n.retrievals {
		r.done = true
		r.checkTimer.Stop()
	}
	n.retrievals = nil
	for _, s := range n.discSessions {
		s.done = true
		s.checkTimer.Stop()
	}
	n.discSessions = nil
}

// Crash powers the node off mid-protocol: it stops sending and
// processing, aborts every active session without callbacks, and wipes
// all volatile state — cached entries and payloads (partial chunk
// buffers included), the CDI table, the LQT, the recent-response cache
// and the neighbor-health records. Owned data survives, as it would on
// a device's persistent storage. Timer closures armed before the crash
// are invalidated by an epoch bump.
func (n *Node) Crash() {
	if n.crashed {
		return
	}
	n.crashed = true
	n.epoch++
	n.abortSessions()
	clear(n.servePending[:])
	n.ds.PowerOff()
	n.cdi = store.CDITable{}
	n.lqt = store.LQT{}
	// The emptied table must keep tracing: a restarted node's
	// post-crash lingering queries are part of the same trace.
	n.lqt.SetTracer(n.tr)
	n.rr = *store.NewRecentResponses(n.cfg.RecentRespRetention)
	n.health = healthTracker{}
	n.next = clock.Never
	n.adverts.Reset()
	n.arm(clock.Never)
}

// Restart powers a crashed node back on with only its owned data. With
// a durable backend attached the store replays surviving records from
// disk first (owned data exactly, persisted cached payloads as spilled
// entries with a fresh lease). The caller (the deployment) must also
// reset the link layer and re-attach the radio.
func (n *Node) Restart() {
	if !n.crashed {
		return
	}
	if n.ds.HasBackend() {
		n.ds.Recover(n.clk.Now(), n.cfg.EntryTTL)
	}
	n.crashed = false
	n.grid = n.clk.Now()
	n.arm(clock.Never)
}

// AttachBackend installs a durable payload tier under the node's store
// and immediately replays whatever survives in it, so a node opened
// over an existing data directory comes up with its pre-crash owned
// data. Attach before the node takes protocol traffic.
func (n *Node) AttachBackend(b store.PayloadBackend) {
	n.ds.SetBackend(b)
	n.ds.Recover(n.clk.Now(), n.cfg.EntryTTL)
}

// Crashed reports whether the node is currently powered off.
func (n *Node) Crashed() bool { return n.crashed }

// arm notes soft state expiring at `at` (clock.Never: nothing new) and
// keeps the one sweep timer armed for the earliest expiry held, rounded up
// onto the whole seconds since birth or Restart (DESIGN.md §5). A node
// that holds nothing, or is stopped or crashed, has no timer.
//
//pds:hotpath
func (n *Node) arm(at time.Duration) {
	n.next = min(n.next, at)
	at, now := clock.Never, n.clk.Now()
	if !n.stopped && !n.crashed && n.next != clock.Never {
		at = n.grid + (max(n.next, now+1)-n.grid+time.Second-1)/time.Second*time.Second
	}
	if n.sweepAt != clock.Never {
		if n.sweepAt <= at && at != clock.Never {
			return
		}
		n.sweepTimer.Stop()
	}
	if n.sweepAt = at; at != clock.Never {
		if n.sweepTimer == nil {
			n.sweepTimer = clock.NewTimer(n.clk, n.sweep)
		}
		n.sweepTimer.Reset(at - now)
	}
}

// sweep runs every expiry scan and the advert table's Tick; each
// returns the next instant it has work.
func (n *Node) sweep() {
	n.sweepAt = clock.Never
	if n.stopped || n.crashed {
		return
	}
	now := n.clk.Now()
	n.next = min(n.ds.Expire(now), n.cdi.Expire(now), n.lqt.Expire(now), n.rr.Prune(now))
	n.arm(n.adverts.Tick(now))
}

// PublishEntry registers a metadata-only fact this node produced (used
// when the payload lives elsewhere or is generated on demand).
func (n *Node) PublishEntry(d attr.Descriptor) { n.ds.PutOwned(d) }

// PublishSmall publishes a small data item: payload plus its entry.
func (n *Node) PublishSmall(d attr.Descriptor, payload []byte) {
	n.ds.PutPayloadOwned(d, payload)
	n.adverts.OnPublish()
}

// PublishChunk publishes one chunk of a large item. The chunk descriptor
// (item descriptor + chunkid) and the item-level entry are both stored,
// so the node answers metadata discovery for the item and CDI/chunk
// queries for the chunk (§II-B, §II-C).
func (n *Node) PublishChunk(item attr.Descriptor, chunkID int, payload []byte) {
	cd := item.WithChunk(chunkID)
	n.ds.PutPayloadOwned(cd, payload)
	n.ds.PutOwned(item)
	n.adverts.OnPublish()
}

// PublishItem splits payload into chunkSize chunks, publishes all of
// them and returns the item descriptor completed with totalchunks.
func (n *Node) PublishItem(item attr.Descriptor, payload []byte, chunkSize int) attr.Descriptor {
	if chunkSize <= 0 {
		chunkSize = 256 << 10
	}
	total := (len(payload) + chunkSize - 1) / chunkSize
	if total == 0 {
		total = 1
	}
	item = item.Set(attr.AttrTotalChunks, attr.Int(int64(total)))
	for c := 0; c < total; c++ {
		lo := c * chunkSize
		hi := lo + chunkSize
		if hi > len(payload) {
			hi = len(payload)
		}
		n.PublishChunk(item, c, payload[lo:hi])
	}
	return item
}

// Unpublish removes an owned item or chunk (producer deleting data).
func (n *Node) Unpublish(d attr.Descriptor) { n.ds.DeleteOwned(d) }

// HasChunk reports whether the node's store holds the payload of the
// item's chunk (owned or cached). Scenario code uses it to locate
// producers when scripting faults.
func (n *Node) HasChunk(item attr.Descriptor, chunkID int) bool {
	return n.ds.HasPayload(item.WithChunk(chunkID))
}

// HandleMessage processes a frame that passed link-layer dedup.
func (n *Node) HandleMessage(msg *wire.Message) {
	if n.crashed {
		return
	}
	switch msg.Type {
	case wire.TypeQuery:
		if msg.Query != nil {
			n.handleQuery(msg.Query)
		}
	case wire.TypeResponse:
		if msg.Response != nil {
			n.handleResponse(msg.Response)
		}
	}
}

// transmit hands a message to the sender unless the node is stopped or
// crashed.
func (n *Node) transmit(msg *wire.Message) {
	if !n.stopped && !n.crashed {
		n.send(msg)
	}
}

// sendJittered transmits msg after a uniform random delay in
// [0, maxJitter), desynchronizing the bursts that one broadcast
// reception triggers at many nodes at the same instant. The delayed
// send is dropped if the node crashes before it fires.
func (n *Node) sendJittered(msg *wire.Message, maxJitter time.Duration) {
	if maxJitter <= 0 {
		n.transmit(msg)
		return
	}
	n.later(n.jitter(maxJitter), msg, 0)
}

// jitter draws a uniform delay in [0, maxJitter) from the node's rng; a
// non-positive maximum is no delay and draws nothing.
func (n *Node) jitter(maxJitter time.Duration) time.Duration {
	if maxJitter <= 0 {
		return 0
	}
	return time.Duration(n.rng.Int63n(int64(maxJitter)))
}

// deferred is one jittered action waiting for its instant — msg to send
// or, msg nil, a serve pass of kind to run — pooled per node: the record
// keeps its timer, bound to it once, from action to action.
type deferred struct {
	msg   *wire.Message
	kind  wire.QueryKind
	epoch uint64 // the node's when armed: a crash since voids the action
	timer clock.Timer
	next  *deferred
}

// later arms an idle record to run the action after delay.
func (n *Node) later(delay time.Duration, msg *wire.Message, kind wire.QueryKind) {
	d := n.idle
	if d == nil { // the pool grows to the most actions ever waiting
		d = new(deferred)
		d.timer = clock.NewTimer(n.clk, func() { n.fire(d) })
	} else {
		n.idle, d.next = d.next, nil
	}
	d.msg, d.kind, d.epoch = msg, kind, n.epoch
	d.timer.Reset(delay)
}

// fire is d's timer callback: d goes back to the pool, holding nothing,
// and its action runs unless the node crashed since it was armed.
func (n *Node) fire(d *deferred) {
	msg, kind, live := d.msg, d.kind, d.epoch == n.epoch
	d.msg, d.next, n.idle = nil, n.idle, d
	switch {
	case !live: // servePending was wiped with everything else
	case msg != nil:
		n.transmit(msg)
	default:
		n.servePending[kind] = false
		if !n.stopped {
			n.serveQueries(kind)
		}
	}
}

// newID draws a random, effectively unique id for queries/responses.
func (n *Node) newID() uint64 {
	for {
		id := n.rng.Uint64()
		if id != 0 {
			return id
		}
	}
}

// emit is the one way out for a response this node builds: it stamps
// the response with a fresh id and this node as sender, counts it,
// traces it and sends it. With src nil the response was generated from
// local state and leaves after response jitter, spreading the answer
// burst a flooded query triggers; otherwise it relays the received
// response src and leaves at once. The trace records the hop edge back
// to src, one RespServe per query binding, and a MixedcastMerge when one
// message answers several queries at once (§III-B.1). units is how many
// entries, blobs or CDI pairs the response carries.
func (n *Node) emit(r wire.Response, src *wire.Response, units int) {
	r.ID, r.Sender = n.newID(), n.id
	if src == nil {
		n.stats.ResponsesSent++
	} else {
		n.stats.ResponsesRelayed++
	}
	if n.tr.Enabled() {
		if src != nil {
			n.tr.RespRelay(r.ID, src.ID, units)
		}
		for _, sv := range r.Serves {
			n.tr.RespServe(r.ID, sv.QueryID, units)
		}
		if len(r.Serves) > 1 {
			n.tr.MixedcastMerge(r.ID, len(r.Serves), units)
		}
	}
	msg := wire.NewResponse(r)
	if src == nil {
		n.sendJittered(msg, n.cfg.ResponseJitterMax)
	} else {
		n.transmit(msg)
	}
}

// insertSorted adds v to the sorted set s. The sets it keeps — the
// receivers and serve bindings of one response — hold a handful of
// elements, so a slice beats a map and needs no sorting afterwards.
func insertSorted[T any](s []T, v T, compare func(T, T) int) []T {
	i, found := slices.BinarySearchFunc(s, v, compare)
	if found {
		return s
	}
	return slices.Insert(s, i, v)
}

// compareServes orders serve bindings by (node, query id).
func compareServes(a, b wire.Serve) int {
	return cmp.Or(cmp.Compare(a.Node, b.Node), cmp.Compare(a.QueryID, b.QueryID))
}
