package pds

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"time"

	"pds/internal/clock"
	"pds/internal/core"
	"pds/internal/diskstore"
	"pds/internal/link"
	"pds/internal/metrics"
	"pds/internal/origin"
	"pds/internal/strategy"
	"pds/internal/trace"
	"pds/internal/tracker"
	"pds/internal/wire"
)

// Origin is the retrieval tier of last resort: RetrieveTiered fetches
// the chunks no peer produced by key from it, and never writes to it.
// NewHTTPOrigin's HTTP origin, a diskstore backend and the in-memory
// origin of internal/origin implement it.
type Origin interface {
	// GetPayload returns the payload stored under a descriptor key.
	GetPayload(key string) ([]byte, bool)
}

// Transport carries frames between peers. Implementations must invoke
// the receive callback (set via SetReceiver) for every incoming frame,
// from any goroutine, and Send must not block for long.
// NewUDPTransport and NewFaceTransport build the standard ones.
type Transport interface {
	// Send broadcasts a frame to all reachable peers. It reports false
	// when the frame was dropped locally (e.g. a full buffer).
	Send(msg *Message) bool
	// SetReceiver registers the frame sink. Called once before any
	// Send.
	SetReceiver(fn func(*Message))
	// Close stops the transport.
	Close() error
}

// Node is a real-time PDS endpoint: the protocol engine bound to a
// transport and the wall clock. All methods are safe for concurrent
// use.
type Node struct {
	id     NodeID
	clk    *clock.Real
	core   *core.Node
	link   *link.Link
	trans  Transport
	tracer *trace.Tracer
	nt     *trace.NodeTracer
	disk   *diskstore.Backend
	// closed is closed by Close, which aborts the core's sessions without
	// calling back: a Discover or Retrieve waiting on one returns.
	closed chan struct{}

	// Deployment plane (all nil/zero without the matching options).
	trk      *tracker.Client
	origin   Origin
	hbStop   func()
	p2pShare int // percent of the tiered budget given to the P2P tier
}

// NodeOption configures NewNode.
type NodeOption func(*nodeOptions)

type nodeOptions struct {
	id           NodeID
	cfg          core.Config
	linkCfg      *link.Config
	seed         int64
	tracing      bool
	traceCap     int
	dataDir      string
	persistCache bool

	trackers       []string
	trackerTimeout time.Duration
	announceTTL    time.Duration
	announceEvery  time.Duration
	origin         Origin
	p2pShare       int
}

// WithNodeID sets the node id; default is randomly drawn. IDs must be
// unique among communicating peers.
func WithNodeID(id NodeID) NodeOption {
	return func(o *nodeOptions) { o.id = id }
}

// WithConfig overrides the protocol configuration.
func WithConfig(cfg Config) NodeOption {
	return func(o *nodeOptions) { o.cfg = cfg }
}

// WithLinkConfig overrides the reliability-layer configuration.
func WithLinkConfig(cfg link.Config) NodeOption {
	return func(o *nodeOptions) { o.linkCfg = &cfg }
}

// WithSeed makes the node's randomness deterministic (tests).
func WithSeed(seed int64) NodeOption {
	return func(o *nodeOptions) { o.seed = seed }
}

// WithTracing enables hop-level event tracing (link and protocol
// planes) with the given per-node ring capacity (<= 0 selects the
// default). Read the events via Tracer.
func WithTracing(perNodeCap int) NodeOption {
	return func(o *nodeOptions) { o.tracing = true; o.traceCap = perNodeCap }
}

// WithDataDir puts a crash-safe persistent chunk store under the
// node's data store, rooted at dir (created if absent). Owned data
// survives restarts: a node reopened over the same directory comes up
// with everything it had published. Cached payloads evicted from RAM
// spill to disk and keep serving from there. Without this option the
// node is purely in-memory (the default).
func WithDataDir(dir string) NodeOption {
	return func(o *nodeOptions) { o.dataDir = dir }
}

// WithPersistentCache also keeps cached (non-owned) payloads across
// restarts, as spilled records with a fresh entry lease. Only
// meaningful together with WithDataDir; default off — the paper's
// crash semantics, where the opportunistic cache is volatile.
func WithPersistentCache() NodeOption {
	return func(o *nodeOptions) { o.persistCache = true }
}

// WithTrackers points the node at one or more tracker servers
// (pds-tracker), in priority order. The node announces itself (when
// the transport exposes a listen address) and the tiered retrieval
// path consults the trackers for edge peers, failing over down the
// list and falling back to the last good answer when every tracker is
// unreachable.
func WithTrackers(addrs ...string) NodeOption {
	return func(o *nodeOptions) { o.trackers = append(o.trackers, addrs...) }
}

// WithTrackerTimeout bounds one tracker request (default 2s).
func WithTrackerTimeout(d time.Duration) NodeOption {
	return func(o *nodeOptions) { o.trackerTimeout = d }
}

// WithAnnounce overrides the tracker announce lease and refresh
// interval (defaults 45s / 15s). Only meaningful with WithTrackers.
func WithAnnounce(ttl, every time.Duration) NodeOption {
	return func(o *nodeOptions) { o.announceTTL = ttl; o.announceEvery = every }
}

// WithOrigin attaches an origin as the retrieval tier of last resort:
// chunks the P2P swarm and the tracker-learned edge peers cannot
// produce before the deadline are fetched from it directly
// (NewHTTPOrigin, a diskstore backend, or origin.NewStatic in tests).
// Fetched chunks enter the cache, so the node then serves them to
// peers like any cached copy.
func WithOrigin(b Origin) NodeOption {
	return func(o *nodeOptions) { o.origin = b }
}

// NewHTTPOrigin returns an origin fetching payloads from an HTTP(S)
// base URL (e.g. "http://origin.example:8080"); pass it to WithOrigin.
// timeout bounds one fetch, 0 selects 10s.
func NewHTTPOrigin(baseURL string, timeout time.Duration) Origin {
	return origin.NewHTTP(baseURL, timeout)
}

// RoutingStrategies lists the routing strategy names.
func RoutingStrategies() []string { return strategy.RoutingNames() }

// CachingStrategies lists the caching strategy names.
func CachingStrategies() []string { return strategy.CachingNames() }

// WithP2PShare sets the percentage (1..99) of a tiered retrieval's
// time budget spent in the P2P tier before escalating to edge peers
// and the origin; default 50. Only meaningful when a later tier
// exists — with nothing to escalate to, P2P gets the whole budget.
func WithP2PShare(percent int) NodeOption {
	return func(o *nodeOptions) { o.p2pShare = percent }
}

// NewNode creates a real-time node on the transport.
func NewNode(trans Transport, opts ...NodeOption) (*Node, error) {
	clk := clock.NewReal()
	return newNode(clk, clk, trans, opts...)
}

// newNode builds the node on clk; its link and core schedule their timers
// through timers — clk itself, or a test's counting wrapper of it. clk
// stays concrete: behind an interface every closure handed to Locked
// escapes, one allocation per received frame.
func newNode(clk *clock.Real, timers clock.Clock, trans Transport, opts ...NodeOption) (*Node, error) {
	if trans == nil {
		return nil, errors.New("pds: nil transport")
	}
	o := nodeOptions{cfg: core.DefaultConfig(), seed: time.Now().UnixNano()}
	for _, opt := range opts {
		opt(&o)
	}
	rng := rand.New(rand.NewSource(o.seed))
	if o.id == 0 {
		o.id = NodeID(rng.Uint32() | 1) // non-zero
	}
	// Everything that can fail comes before anything that starts,
	// announces or hooks into the transport.
	if err := strategy.Check(o.cfg.Routing, o.cfg.Caching); err != nil {
		return nil, fmt.Errorf("pds: %w", err)
	}
	// The jitters spread a broadcast's answers over a shared medium; a
	// transport that gives every peer its own queue has no collision for
	// them to spread out.
	sm, ok := trans.(interface{ SharedMedium() bool })
	unshared := ok && !sm.SharedMedium()
	if unshared {
		o.cfg.ForwardJitterMax, o.cfg.ResponseJitterMax = 0, 0
	}
	lcfg := link.DefaultConfig(nil)
	if o.linkCfg != nil {
		lcfg = *o.linkCfg
	}
	// Radio-sized fragments bound what one collision costs; without a
	// shared medium they buy nothing, and the link cuts only at the
	// carrier's frame bound. A datagram carrier truncates a fragment it
	// cannot carry whole.
	if mf, ok := trans.(interface{ MaxFragment() int }); ok {
		switch {
		case unshared:
			lcfg.FragmentBytes = mf.MaxFragment()
		case lcfg.FragmentBytes > mf.MaxFragment():
			return nil, fmt.Errorf("pds: link FragmentBytes %d exceeds what the transport carries in one frame (%d)",
				lcfg.FragmentBytes, mf.MaxFragment())
		}
	}
	var disk *diskstore.Backend
	if o.dataDir != "" {
		st, err := diskstore.Open(o.dataDir, diskstore.Options{
			PersistCached: o.persistCache,
		})
		if err != nil {
			return nil, fmt.Errorf("pds: open data dir: %w", err)
		}
		disk = diskstore.NewBackend(st)
	}

	n := &Node{id: o.id, clk: clk, trans: trans, disk: disk, closed: make(chan struct{})}
	n.link = link.New(timers, o.id, func(m *wire.Message) bool { return trans.Send(m) }, lcfg)
	n.core = core.NewNode(o.id, timers, rng, func(m *wire.Message) { n.link.Send(m) }, o.cfg)
	n.link.OnGiveUp = n.core.OnSendFailure
	if o.tracing {
		n.tracer = trace.New(clk.Now, o.traceCap)
		n.nt = n.tracer.ForNode(o.id)
		n.link.SetTracer(n.nt)
		n.core.SetTracer(n.nt)
		if ts, ok := trans.(interface{ SetTracer(*trace.NodeTracer) }); ok {
			ts.SetTracer(n.nt)
		}
	}
	// Deployment-plane hookups: a face mesh learns the local id (for
	// hello frames and self-connection detection) and reports circuit
	// breaker trips into the neighbor-health blacklist.
	if fl, ok := trans.(interface{ SetLocalID(wire.NodeID) }); ok {
		fl.SetLocalID(o.id)
	}
	if pd, ok := trans.(interface{ OnPeerDown(func(wire.NodeID)) }); ok {
		pd.OnPeerDown(func(nb wire.NodeID) {
			clk.Locked(func() { n.core.NotePeerFailure(nb) })
		})
	}
	n.origin = o.origin
	n.p2pShare = o.p2pShare
	if n.p2pShare <= 0 || n.p2pShare >= 100 {
		n.p2pShare = 50
	}
	if len(o.trackers) > 0 {
		n.trk = tracker.NewClient(o.trackers, o.trackerTimeout)
		n.trk.SetTracer(n.nt)
		if la, ok := trans.(interface{ ListenAddr() net.Addr }); ok {
			if addr := la.ListenAddr(); addr != nil {
				ttl, every := o.announceTTL, o.announceEvery
				if ttl <= 0 {
					ttl = 45 * time.Second
				}
				if every <= 0 {
					every = ttl / 3
				}
				n.hbStop = n.trk.StartHeartbeat(o.id, addr.String(), ttl, every)
			}
		}
	}
	if disk != nil {
		clk.Locked(func() { n.core.AttachBackend(disk) })
	}
	trans.SetReceiver(func(m *wire.Message) {
		clk.Locked(func() {
			if up := n.link.HandleIncoming(m); up != nil {
				n.core.HandleMessage(up)
			}
		})
	})
	return n, nil
}

// ID returns the node id.
func (n *Node) ID() NodeID { return n.id }

// Tracer returns the node's event tracer, nil unless WithTracing was
// given. The tracer is safe for concurrent use; dump recent events
// with its WriteJSONL.
func (n *Node) Tracer() *trace.Tracer { return n.tracer }

// Close stops the node, its transport, and — when WithDataDir was
// given — syncs and closes the persistent store.
func (n *Node) Close() error {
	if n.hbStop != nil {
		n.hbStop()
	}
	n.clk.Locked(func() {
		n.core.Stop()
		select {
		case <-n.closed:
		default:
			close(n.closed)
		}
	})
	err := n.trans.Close()
	// Frames still waiting for an ack would be retried into the closed
	// transport until they give up, some twenty seconds on, and each
	// armed retry timer pins its frame and, through the link, the node's
	// stores. The transport delivers nothing more and a stopped core
	// sends nothing more, so what is left armed after this is jitter
	// delays: at most 100 ms, and none on a face mesh, where the core runs
	// without jitter.
	n.clk.Locked(func() { n.link.Reset() })
	if n.disk != nil {
		if derr := n.disk.Store().Close(); err == nil {
			err = derr
		}
	}
	return err
}

// TrackerStats returns a snapshot of the tracker client's counters;
// ok is false when the node runs without WithTrackers.
func (n *Node) TrackerStats() (tracker.ClientStats, bool) {
	if n.trk == nil {
		return tracker.ClientStats{}, false
	}
	return n.trk.Stats(), true
}

// DiskStats returns a snapshot of the persistent store's counters; ok
// is false when the node runs without a data directory.
func (n *Node) DiskStats() (diskstore.Stats, bool) {
	if n.disk == nil {
		return diskstore.Stats{}, false
	}
	return n.disk.Store().Stats(), true
}

// Publish makes a small data item available to peers.
func (n *Node) Publish(d Descriptor, payload []byte) {
	n.clk.Locked(func() { n.core.PublishSmall(d, payload) })
}

// PublishEntry announces metadata without a payload.
func (n *Node) PublishEntry(d Descriptor) {
	n.clk.Locked(func() { n.core.PublishEntry(d) })
}

// PublishItem chunks and publishes a large item; it returns the item
// descriptor completed with the totalchunks attribute, which consumers
// need for retrieval.
func (n *Node) PublishItem(d Descriptor, payload []byte, chunkSize int) Descriptor {
	var out Descriptor
	n.clk.Locked(func() { out = n.core.PublishItem(d, payload, chunkSize) })
	return out
}

// Unpublish withdraws a previously published item or entry.
func (n *Node) Unpublish(d Descriptor) {
	n.clk.Locked(func() { n.core.Unpublish(d) })
}

// Discover runs Peer Data Discovery for the selector and returns the
// metadata entries found. It blocks until the multi-round controller
// decides no more data is coming, or ctx is done.
func (n *Node) Discover(ctx context.Context, sel Query) ([]Descriptor, error) {
	res, err := n.discover(ctx, sel, core.DiscoverOptions{})
	if err != nil {
		return nil, err
	}
	return res.Entries, nil
}

// Collect retrieves all small data items matching the selector and
// returns descriptor/payload pairs keyed by descriptor key.
func (n *Node) Collect(ctx context.Context, sel Query) (map[string][]byte, []Descriptor, error) {
	res, err := n.discover(ctx, sel, core.DiscoverOptions{
		Kind:            wire.KindData,
		CollectPayloads: true,
	})
	if err != nil {
		return nil, nil, err
	}
	return res.Payloads, res.Entries, nil
}

func (n *Node) discover(ctx context.Context, sel Query, opts core.DiscoverOptions) (DiscoveryResult, error) {
	done := make(chan DiscoveryResult, 1)
	n.clk.Locked(func() {
		n.core.Discover(sel, opts, func(r DiscoveryResult) { done <- r })
	})
	select {
	case r := <-done:
		return r, nil
	case <-ctx.Done():
		return DiscoveryResult{}, fmt.Errorf("pds: discover: %w", ctx.Err())
	case <-n.closed:
		return DiscoveryResult{}, errors.New("pds: discover: node closed")
	}
}

// Retrieve fetches a large item (two-phase PDR) and returns the
// assembled payload. The descriptor must carry totalchunks, normally
// obtained from Discover.
func (n *Node) Retrieve(ctx context.Context, item Descriptor) ([]byte, error) {
	return n.RetrieveWithOptions(ctx, item, RetrieveOptions{})
}

// RetrieveWithOptions is Retrieve with per-session options: a deadline
// override, a progress callback, and the request-window override
// streaming prefetchers use to keep several pipelined sessions polite.
func (n *Node) RetrieveWithOptions(ctx context.Context, item Descriptor, opts RetrieveOptions) ([]byte, error) {
	done := make(chan RetrievalResult, 1)
	n.clk.Locked(func() {
		n.core.RetrieveWithOptions(item, opts, func(r RetrievalResult) { done <- r })
	})
	select {
	case r := <-done:
		if !r.Complete {
			return nil, fmt.Errorf("pds: retrieve %s: incomplete (%d/%d chunks)",
				item, len(r.Chunks), item.TotalChunks())
		}
		payload, ok := r.Assemble()
		if !ok {
			return nil, fmt.Errorf("pds: retrieve %s: assembly failed", item)
		}
		return payload, nil
	case <-ctx.Done():
		n.abandonRetrieve(item, done)
		return nil, fmt.Errorf("pds: retrieve: %w", ctx.Err())
	case <-n.closed:
		return nil, errors.New("pds: retrieve: node closed")
	}
}

// abandonRetrieve stops the core session behind a retrieve whose caller
// gave up; left alone it would keep issuing CDI rounds and chunk
// requests until its own round budget ran out. A session that has
// already reported into done is gone — the item's table slot may belong
// to a newer retrieve — so only a silent one is cancelled. The cancel
// reports through the session's callback, which done (capacity 1)
// absorbs.
func (n *Node) abandonRetrieve(item Descriptor, done chan RetrievalResult) {
	n.clk.Locked(func() {
		if len(done) == 0 {
			n.core.CancelRetrieve(item)
		}
	})
}

// Stats returns protocol counters.
func (n *Node) Stats() core.Stats {
	var s core.Stats
	n.clk.Locked(func() { s = n.core.Stats() })
	return s
}

// StrategyStats returns the active routing/caching strategy names and
// their bookkeeping counters. Always available — nodes running the
// defaults report "cdi"/"fifo" with zero counters.
func (n *Node) StrategyStats() metrics.StrategyCounters {
	var out metrics.StrategyCounters
	n.clk.Locked(func() { out = n.core.StrategyCounters() })
	return out
}

// LocalEntries lists the metadata entries currently in this node's
// store (own and cached) matching the selector. It answers locally
// without any network traffic; use Discover to query the neighborhood.
func (n *Node) LocalEntries(sel Query) []Descriptor {
	var out []Descriptor
	n.clk.Locked(func() {
		out = n.core.Store().Match(sel, n.clk.Now())
	})
	return out
}

// LocalData reports how many chunks of the item this node currently
// holds, out of the item's total.
func (n *Node) LocalData(item Descriptor) (held, total int) {
	n.clk.Locked(func() {
		held = len(n.core.Store().ChunksHeld(item.ItemKey()))
	})
	return held, item.TotalChunks()
}
