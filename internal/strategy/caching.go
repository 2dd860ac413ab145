package strategy

import (
	"pds/internal/metrics"
	"pds/internal/wire"
)

// fifoCache is the seed's default: admit everything. It keeps no
// state at all.
type fifoCache struct{}

func (fifoCache) Name() string                       { return DefaultCaching }
func (fifoCache) Admit(string) bool                  { return true }
func (fifoCache) Counters() metrics.StrategyCounters { return metrics.StrategyCounters{} }

// opportunisticCache is the cache-placement variant: each node admits
// only a pseudorandom half of cacheable payloads, keyed by its own ID,
// so neighboring nodes keep *different* halves of the passing traffic
// and the neighborhood as a whole caches more distinct chunks than N
// identical caches would.
type opportunisticCache struct {
	self  wire.NodeID
	skips uint64
}

func (c *opportunisticCache) Name() string { return "opportunistic" }

func (c *opportunisticCache) Admit(key string) bool {
	// FNV-1a over the key, perturbed by the node ID: deterministic,
	// uniform, and different per node.
	h := uint64(14695981039346656037)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= 1099511628211
	}
	// Fold the node ID in and run a splitmix64 finalizer. The finisher
	// must be nonlinear in self: with a plain XOR-in, the decision-bit
	// difference between two nodes would be a constant, making their
	// admission sets either identical or exactly complementary.
	h ^= uint64(c.self) * 0x9e3779b97f4a7c15
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	if h&1 == 0 {
		return true
	}
	c.skips++
	return false
}

func (c *opportunisticCache) Counters() metrics.StrategyCounters {
	return metrics.StrategyCounters{CacheAdmitSkips: c.skips}
}
