package strategy

import (
	"fmt"
	"sort"

	"pds/internal/wire"
)

// Default strategy names: the paper's behavior.
const (
	DefaultRouting = "cdi"
	DefaultCaching = "fifo"
)

// The registries pair a lookup map with a sorted name slice so listing
// never iterates a map (determinism strict scope). Registration happens
// in init funcs only; no locking is needed.
var (
	routingFactories = map[string]func(*RoutingEnv) RoutingStrategy{}
	routingNames     []string

	cachingFactories = map[string]func(self wire.NodeID) CacheStrategy{}
	cachingNames     []string
)

// RegisterRouting adds a routing strategy factory under name. It
// panics on a duplicate name (registration is programmer error
// territory, caught at init).
func RegisterRouting(name string, factory func(*RoutingEnv) RoutingStrategy) {
	if _, dup := routingFactories[name]; dup {
		panic(fmt.Sprintf("strategy: duplicate routing strategy %q", name))
	}
	routingFactories[name] = factory
	routingNames = insertSorted(routingNames, name)
}

// RegisterCaching adds a cache strategy factory under name; panics on
// a duplicate.
func RegisterCaching(name string, factory func(self wire.NodeID) CacheStrategy) {
	if _, dup := cachingFactories[name]; dup {
		panic(fmt.Sprintf("strategy: duplicate cache strategy %q", name))
	}
	cachingFactories[name] = factory
	cachingNames = insertSorted(cachingNames, name)
}

func insertSorted(names []string, name string) []string {
	i := sort.SearchStrings(names, name)
	names = append(names, "")
	copy(names[i+1:], names[i:])
	names[i] = name
	return names
}

// NewRouting builds the named routing strategy bound to env. The empty
// name selects the default (CDI pass-through).
func NewRouting(name string, env *RoutingEnv) (RoutingStrategy, error) {
	if name == "" {
		name = DefaultRouting
	}
	if err := Check(name, ""); err != nil {
		return nil, err
	}
	return routingFactories[name](env), nil
}

// NewCaching builds the named cache strategy for the node self. The
// empty name selects the default (FIFO, always admit).
func NewCaching(name string, self wire.NodeID) (CacheStrategy, error) {
	if name == "" {
		name = DefaultCaching
	}
	if err := Check("", name); err != nil {
		return nil, err
	}
	return cachingFactories[name](self), nil
}

// Check reports an error naming the registered alternatives when
// routing or caching names no registered strategy; an empty name is
// that plane's default.
func Check(routing, caching string) error {
	if _, ok := routingFactories[routing]; routing != "" && !ok {
		return fmt.Errorf("unknown routing strategy %q (have %v)", routing, RoutingNames())
	}
	if _, ok := cachingFactories[caching]; caching != "" && !ok {
		return fmt.Errorf("unknown caching strategy %q (have %v)", caching, CachingNames())
	}
	return nil
}

// RoutingNames lists the registered routing strategies, sorted.
func RoutingNames() []string { return append([]string(nil), routingNames...) }

// CachingNames lists the registered cache strategies, sorted.
func CachingNames() []string { return append([]string(nil), cachingNames...) }
