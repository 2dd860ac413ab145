package strategy

import (
	"pds/internal/metrics"
	"pds/internal/wire"
)

func init() {
	RegisterCaching("fifo", func(wire.NodeID) CacheStrategy { return fifoCache{} })
	RegisterCaching("lru", func(wire.NodeID) CacheStrategy {
		return &accessCache{name: "lru", byRecency: true}
	})
	RegisterCaching("lfu", func(wire.NodeID) CacheStrategy {
		return &accessCache{name: "lfu"}
	})
	RegisterCaching("opportunistic", func(self wire.NodeID) CacheStrategy {
		return &opportunisticCache{
			accessCache: accessCache{name: "opportunistic", byRecency: true},
			self:        self,
		}
	})
}

// fifoCache is the seed's default: admit everything, evict the oldest
// insertion. It keeps no per-key state at all.
type fifoCache struct{}

func (fifoCache) Name() string                       { return "fifo" }
func (fifoCache) Admit(string) bool                  { return true }
func (fifoCache) Touch(string)                       {}
func (fifoCache) Victim([]string) int                { return 0 }
func (fifoCache) Forget(string)                      {}
func (fifoCache) Reset()                             {}
func (fifoCache) Counters() metrics.StrategyCounters { return metrics.StrategyCounters{} }

// accessCache reproduces the pre-strategy LRU/LFU accounting exactly:
// one logical clock, last-access and access-count maps both updated on
// every touch, victims scanned over the store's insertion order with
// never-accessed keys (map zero value) evicting first and ties won by
// the earliest insertion index.
type accessCache struct {
	name        string
	byRecency   bool // true: LRU (min last access); false: LFU (min count)
	clock       uint64
	lastAccess  map[string]uint64
	accessCount map[string]uint64
}

func (c *accessCache) Name() string      { return c.name }
func (c *accessCache) Admit(string) bool { return true }

func (c *accessCache) Touch(key string) {
	c.clock++
	if c.lastAccess == nil {
		c.lastAccess = make(map[string]uint64)
		c.accessCount = make(map[string]uint64)
	}
	c.lastAccess[key] = c.clock
	c.accessCount[key]++
}

func (c *accessCache) Victim(order []string) int {
	best, bestVal := 0, ^uint64(0)
	for i, key := range order {
		var v uint64
		if c.byRecency {
			v = c.lastAccess[key] // zero (never accessed) evicts first
		} else {
			v = c.accessCount[key]
		}
		if v < bestVal {
			best, bestVal = i, v
		}
	}
	return best
}

func (c *accessCache) Forget(key string) {
	delete(c.lastAccess, key)
	delete(c.accessCount, key)
}

// Reset drops the access maps; the clock deliberately keeps counting,
// matching the pre-strategy WipeCached (which nilled the maps but left
// accessClock alone).
func (c *accessCache) Reset() {
	c.lastAccess, c.accessCount = nil, nil
}

func (c *accessCache) Counters() metrics.StrategyCounters { return metrics.StrategyCounters{} }

// opportunisticCache is the cache-placement variant: each node admits
// only a pseudorandom half of cacheable payloads, keyed by its own ID,
// so neighboring nodes keep *different* halves of the passing traffic
// and the neighborhood as a whole caches more distinct chunks than N
// identical caches would. Admitted payloads are managed LRU.
type opportunisticCache struct {
	accessCache
	self  wire.NodeID
	skips uint64
}

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
