// Package strategy holds the two alternatives to the paper's routing
// and caching decisions that separate from them on some `pds-bench
// compare` cell: a BFR content-advert table that offers routes when the
// CDI distance-vector table has none (bfr.go), and an opportunistic
// admission gate that caches a per-node half of passing payloads
// (opportunistic.go). The paper's defaults are the absence of either:
// a node routes from its CDI table ("cdi") and its cache admits
// everything ("fifo"), evicting oldest first whichever admits.
//
// Both are concrete types whose methods are no-ops on a nil receiver,
// so a node calls them unconditionally and holds nil for the default.
// Strategies are selected by name through core.Config.Routing /
// core.Config.Caching, `pds-sim -routing/-caching` and the `pds-bench
// compare` A/B matrix.
//
// Determinism contract: both run inside the deterministic simulation,
// so every method is a pure function of the calls it has observed — no
// wall clocks, no unseeded randomness, and no map iteration (the
// package is in pds-lint's determinism strict scope; ordered state
// lives in sorted slices). They observe frozen wire messages and never
// mutate them; retaining a frozen *bloom.Filter pointer for read-only
// lookups is allowed by the wire ownership rules.
package strategy

import (
	"fmt"
	"slices"
	"time"

	"pds/internal/wire"
)

// Default strategy names: the paper's behavior.
const (
	DefaultRouting = "cdi"
	DefaultCaching = "fifo"
)

// The strategy names of each plane, sorted.
var (
	routingNames = []string{"bfr", DefaultRouting}
	cachingNames = []string{DefaultCaching, "opportunistic"}
)

// Check reports an error naming the alternatives when routing or
// caching names no strategy; an empty name is that plane's default.
func Check(routing, caching string) error {
	if routing != "" && !slices.Contains(routingNames, routing) {
		return fmt.Errorf("unknown routing strategy %q (have %v)", routing, routingNames)
	}
	if caching != "" && !slices.Contains(cachingNames, caching) {
		return fmt.Errorf("unknown caching strategy %q (have %v)", caching, cachingNames)
	}
	return nil
}

// RoutingNames lists the routing strategies, sorted.
func RoutingNames() []string { return slices.Clone(routingNames) }

// CachingNames lists the cache strategies, sorted.
func CachingNames() []string { return slices.Clone(cachingNames) }

// RoutingEnv gives the advert table its node-side capabilities. The
// node that core.NewNode builds implements it; its methods must only be
// called from that node's event context.
type RoutingEnv interface {
	// Self is the owning node's ID.
	Self() wire.NodeID
	// OwnedItemKeys lists the item keys of data this node holds payload
	// for, sorted: what an advert floods.
	OwnedItemKeys() []string
	// Flood broadcasts an advert to all neighbors. The node registers
	// the query for duplicate suppression and transmits with the usual
	// jitter.
	Flood(q *wire.Query)
	// NewID draws a fresh globally-unique message ID from the node's
	// seeded RNG.
	NewID() uint64
	// TickAt asks the node to call Tick at its first housekeeping instant
	// at or after at, for a need that arises between ticks.
	TickAt(at time.Duration)
}
