package store

import (
	"fmt"

	"pds/internal/metrics"
	"pds/internal/strategy"
)

// The paper leaves chunk caching strategy as future work (§VII: "we
// plan to study proper data chunk caching strategies based on their
// popularity and devices' resource availability"); the candidates are
// the cache strategies registered in internal/strategy, and the store
// only asks the installed one what to admit. It evicts oldest first:
// LRU and LFU victims made no row of any compare cell differ from it.

// defaultCacheStrategy builds the registry default (FIFO, always admit).
func defaultCacheStrategy() strategy.CacheStrategy {
	cs, err := strategy.NewCaching("", 0)
	if err != nil {
		panic(fmt.Sprintf("store: default cache strategy missing from registry: %v", err))
	}
	return cs
}

// SetCacheStrategy installs a cache strategy instance (admission; see
// strategy.CacheStrategy). It only affects future insertions.
func (s *DataStore) SetCacheStrategy(cs strategy.CacheStrategy) { s.cache = cs }

// CacheStrategyName returns the name of the installed cache strategy.
func (s *DataStore) CacheStrategyName() string { return s.cache.Name() }

// CacheCounters returns the installed cache strategy's bookkeeping.
func (s *DataStore) CacheCounters() metrics.StrategyCounters { return s.cache.Counters() }

// evictOne removes the oldest cached payload from RAM; it reports
// whether anything was removed. With a backend holding a durable copy,
// the eviction is a spill: the bytes leave RAM but the entry keeps
// serving through disk reads, so insertion order decides what leaves
// memory while the backend decides where bytes survive.
func (s *DataStore) evictOne() bool {
	if len(s.cacheOrder) == 0 {
		return false
	}
	key := s.cacheOrder[0]
	e := s.entries[key]
	s.tr.CacheEvict(key, len(e.held.bytes))
	if s.backend != nil && s.backend.HasPayload(key) {
		s.hold(e, held{spilled: true})
	} else {
		s.release(e)
	}
	return true
}
