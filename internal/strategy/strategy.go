// Package strategy is the pluggable routing/caching decision plane:
// the points where a node chooses *where to fetch a chunk from* and
// *what to admit to its cache* are expressed as interfaces, with the
// paper's CDI distance-vector routing and always-admit caching as the
// defaults and the alternatives that separate from them on some
// `pds-bench compare` cell (BFR-style Bloom content advertisements,
// opportunistic cache placement) registered beside them. The cache
// evicts in insertion order whichever strategy admits.
//
// Strategies are selected by registry name (see registry.go) through
// core.Config.Routing / core.Config.Caching, `pds-sim -routing/-caching`
// and the `pds-bench compare` A/B matrix. The default strategies are
// pass-throughs: with Routing=="cdi" and Caching=="" the node behaves
// byte-identically to the pre-strategy code (pinned by the scenario
// golden rows).
//
// Determinism contract: strategies run inside the deterministic
// simulation, so every method must be a pure function of the calls it
// has observed — no wall clocks, no unseeded randomness, and no map
// iteration (the package is in pds-lint's determinism strict scope;
// ordered state lives in sorted slices). Strategies observe frozen
// wire messages and must never mutate them; retaining a frozen
// *bloom.Filter pointer for read-only lookups is allowed by the wire
// ownership rules.
package strategy

import (
	"time"

	"pds/internal/metrics"
	"pds/internal/wire"
)

// Route is one candidate next hop for fetching a chunk: ask Neighbor,
// which reports the chunk Hop hops away from itself plus one. It
// mirrors the CDI table's lookup rows so default routing is a
// pass-through.
type Route struct {
	Neighbor wire.NodeID
	Hop      int
}

// RoutingEnv gives a routing strategy its node-side capabilities. The
// node that core.NewNode builds implements it; its methods must only be
// called from that node's event context (the strategies are
// single-goroutine, like the rest of the node).
type RoutingEnv interface {
	// Self is the owning node's ID.
	Self() wire.NodeID
	// CDIRoutes looks up the node's CDI distance-vector table: the
	// unexpired (neighbor, hop) rows for one chunk, sorted by neighbor.
	CDIRoutes(itemKey string, chunkID int, now time.Duration) []Route
	// OwnedItemKeys lists the item keys of data this node holds payload
	// for, sorted. Advertisement-based strategies flood these.
	OwnedItemKeys() []string
	// Flood broadcasts a strategy-originated query (e.g. a Bloom
	// advertisement) to all neighbors. The node stamps Sender/Origin,
	// registers the query for duplicate suppression and transmits with
	// the usual jitter.
	Flood(q *wire.Query)
	// NewID draws a fresh globally-unique message ID from the node's
	// seeded RNG.
	NewID() uint64
	// TickAt asks the node to call Tick at its first housekeeping instant
	// at or after at, for a need that arises between ticks.
	TickAt(at time.Duration)
}

// RoutingStrategy decides which neighbors a node asks for chunks. One
// instance exists per node; methods are invoked from the node's event
// context only.
type RoutingStrategy interface {
	// Name returns the registry name the strategy was built under.
	Name() string
	// SelectRoutes returns the candidate next hops for one chunk query
	// about to be sent, to be filtered (self/excluded/blacklisted) and
	// fed to the assignment balancer; a strategy counts the routes it
	// offers here. The default implementation returns CDIRoutes verbatim.
	SelectRoutes(itemKey string, chunkID int, now time.Duration) []Route
	// HasRoute reports whether SelectRoutes would offer any next hop for
	// the chunk, counting nothing: a retrieval's phase-1 checks ask it.
	HasRoute(itemKey string, chunkID int, now time.Duration) bool
	// ObserveAdvert processes a received content advertisement. q is
	// frozen: implementations must not mutate it (retaining q.Bloom for
	// read-only lookups is allowed).
	ObserveAdvert(q *wire.Query, now time.Duration)
	// OnPublish notes that this node now holds payload for itemKey.
	OnPublish(itemKey string, now time.Duration)
	// OnNeighborDown drops state learned via a neighbor the node has
	// declared dead (mirrors the CDI table's DropNeighborAll).
	OnNeighborDown(neighbor wire.NodeID)
	// Tick runs the maintenance due at now (decay, re-advertisement,
	// expiry) and returns the next instant it wants to run, clock.Never
	// for none. The node calls it only at housekeeping instants — whole
	// seconds since its birth or restart — that something asked for.
	Tick(now time.Duration) time.Duration
	// Reset drops all volatile state (node crash/restart).
	Reset()
	// Counters returns a snapshot of the strategy's bookkeeping: the
	// routing fields of the plane's counters, the rest left zero.
	Counters() metrics.StrategyCounters
}

// CacheStrategy decides what a node's payload cache admits. The store
// owns the byte budget and evicts in insertion order. One instance
// exists per node store.
type CacheStrategy interface {
	// Name returns the registry name the strategy was built under.
	Name() string
	// Admit reports whether a cacheable payload should be stored at
	// all. Declining is free diversity: other copies still exist
	// elsewhere on the reverse path. The default always admits.
	Admit(key string) bool
	// Counters returns a snapshot of the strategy's bookkeeping: the
	// caching fields of the plane's counters, the rest left zero.
	Counters() metrics.StrategyCounters
}
