package store

import (
	"fmt"

	"pds/internal/strategy"
)

// The paper leaves chunk caching strategy as future work (§VII: "we
// plan to study proper data chunk caching strategies based on their
// popularity and devices' resource availability"); the candidates are
// the cache strategies registered in internal/strategy, and the store
// only asks the installed one what to admit, touch and evict.

// defaultCacheStrategy builds the registry default (FIFO, always admit).
func defaultCacheStrategy() strategy.CacheStrategy {
	cs, err := strategy.NewCaching("", 0)
	if err != nil {
		panic(fmt.Sprintf("store: default cache strategy missing from registry: %v", err))
	}
	return cs
}

// SetCacheStrategy installs a cache strategy instance (admission +
// eviction; see strategy.CacheStrategy). It only affects future
// insertions and evictions: access state the previous strategy
// accumulated is dropped.
func (s *DataStore) SetCacheStrategy(cs strategy.CacheStrategy) { s.cache = cs }

// CacheStrategyName returns the name of the installed cache strategy.
func (s *DataStore) CacheStrategyName() string { return s.cache.Name() }

// CacheCounters returns the installed cache strategy's bookkeeping.
func (s *DataStore) CacheCounters() strategy.CacheCounters { return s.cache.Counters() }

// touch records an access to a cached payload for LRU/LFU accounting.
func (s *DataStore) touch(key string) { s.cache.Touch(key) }

// victim returns the cache-order index of the payload to evict next
// under the current strategy, or -1 when nothing is evictable.
func (s *DataStore) victim() int {
	if len(s.cacheOrder) == 0 {
		return -1
	}
	return s.cache.Victim(s.cacheOrder)
}

// evictOne removes one cached payload from RAM according to the
// strategy; it reports whether anything was removed. With a backend
// holding a durable copy, the eviction is a spill: the bytes leave RAM
// but the entry keeps serving through disk reads, so the strategy
// decides what leaves memory while the backend decides where bytes
// survive.
func (s *DataStore) evictOne() bool {
	i := s.victim()
	if i < 0 {
		return false
	}
	key := s.cacheOrder[i]
	s.cacheOrder = append(s.cacheOrder[:i], s.cacheOrder[i+1:]...)
	if p, ok := s.payloads[key]; ok && !s.ownedKeys[key] {
		s.cachedBytes -= len(p)
		s.tr.CacheEvict(key, len(p))
		delete(s.payloads, key)
		if s.backend != nil && s.backend.HasPayload(key) {
			s.spilled[key] = true
		} else if e, ok := s.entries[key]; ok {
			s.unindexChunk(e.Desc)
		}
	}
	s.cache.Forget(key)
	return true
}
