package strategy

import (
	"fmt"
	"slices"

	"pds/internal/clock"
	"pds/internal/wire"
)

// Default strategy names: the paper's behavior.
const (
	DefaultRouting = "cdi"
	DefaultCaching = "fifo"
)

// The strategy tables, sorted by name: listing them never ranges over
// a map (determinism strict scope), and TestRegistryNamesSortedCopies
// holds the order.
var routings = []struct {
	name  string
	build func(*RoutingEnv) RoutingStrategy
}{
	{"bfr", func(env *RoutingEnv) RoutingStrategy {
		return &bfrRouting{env: env, nextAdvert: clock.Never}
	}},
	{DefaultRouting, func(env *RoutingEnv) RoutingStrategy { return &cdiRouting{env: env} }},
	{"qfreq", func(env *RoutingEnv) RoutingStrategy {
		env.TickAt(qfreqDecayInterval)
		return &qfreqRouting{env: env}
	}},
}

var cachings = []struct {
	name  string
	build func(self wire.NodeID) CacheStrategy
}{
	{DefaultCaching, func(wire.NodeID) CacheStrategy { return fifoCache{} }},
	{"lfu", func(wire.NodeID) CacheStrategy { return &accessCache{name: "lfu"} }},
	{"lru", func(wire.NodeID) CacheStrategy { return &accessCache{name: "lru", byRecency: true} }},
	{"opportunistic", func(self wire.NodeID) CacheStrategy {
		return &opportunisticCache{
			accessCache: accessCache{name: "opportunistic", byRecency: true},
			self:        self,
		}
	}},
}

// NewRouting builds the named routing strategy bound to env. The empty
// name selects the default (CDI pass-through).
func NewRouting(name string, env *RoutingEnv) (RoutingStrategy, error) {
	if name == "" {
		name = DefaultRouting
	}
	for _, r := range routings {
		if r.name == name {
			return r.build(env), nil
		}
	}
	return nil, Check(name, "")
}

// NewCaching builds the named cache strategy for the node self. The
// empty name selects the default (FIFO, always admit).
func NewCaching(name string, self wire.NodeID) (CacheStrategy, error) {
	if name == "" {
		name = DefaultCaching
	}
	for _, c := range cachings {
		if c.name == name {
			return c.build(self), nil
		}
	}
	return nil, Check("", name)
}

// Check reports an error naming the registered alternatives when
// routing or caching names no registered strategy; an empty name is
// that plane's default.
func Check(routing, caching string) error {
	if routing != "" && !slices.Contains(RoutingNames(), routing) {
		return fmt.Errorf("unknown routing strategy %q (have %v)", routing, RoutingNames())
	}
	if caching != "" && !slices.Contains(CachingNames(), caching) {
		return fmt.Errorf("unknown caching strategy %q (have %v)", caching, CachingNames())
	}
	return nil
}

// RoutingNames lists the routing strategies, sorted.
func RoutingNames() []string {
	names := make([]string, len(routings))
	for i, r := range routings {
		names[i] = r.name
	}
	return names
}

// CachingNames lists the cache strategies, sorted.
func CachingNames() []string {
	names := make([]string, len(cachings))
	for i, c := range cachings {
		names[i] = c.name
	}
	return names
}
