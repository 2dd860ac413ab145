package store

// The paper leaves chunk caching strategy as future work (§VII: "we
// plan to study proper data chunk caching strategies based on their
// popularity and devices' resource availability"); the one alternative
// is the opportunistic admission gate of internal/strategy, which the
// store asks what to admit when it holds one. It evicts oldest first:
// LRU and LFU victims made no row of any compare cell differ from it.

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
