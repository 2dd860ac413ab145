// Package store implements the per-node state of a PDS node: the data
// store of metadata entries and payloads, the chunk-distribution (CDI)
// table, the Lingering Query Table and the recent-response cache.
//
// All methods take the current time explicitly (a time.Duration on the
// node's clock) rather than reading a clock, so the same store runs
// under simulated and real time and is trivially testable.
package store

import (
	"slices"
	"sort"
	"time"

	"pds/internal/attr"
	"pds/internal/clock"
	"pds/internal/strategy"
	"pds/internal/trace"
)

// Entry is one metadata entry in the data store (§II-C): a descriptor
// plus bookkeeping about how it is held.
type Entry struct {
	Desc attr.Descriptor
	// Owned entries describe data this node produced or fully holds;
	// they never expire. Cached entries (received, relayed or overheard
	// without payload) carry an expiry (§II-C).
	Owned    bool
	ExpireAt time.Duration
}

// DataStore holds metadata entries and data payloads (small items and
// chunks), keyed by canonical descriptor key.
type DataStore struct {
	entries map[string]*Entry
	// index holds the records of entries ordered by key, so a serve pass
	// is one walk with nothing to collect or sort. Its one invariant:
	// index is exactly the values of entries, ascending by Desc.Key().
	// Only setEntry, dropEntry, dropEntries and resetEntries write either.
	index []*Entry
	// payloads maps descriptor key to payload bytes for data this node
	// holds (small items, or individual chunks keyed by the chunk
	// descriptor).
	payloads map[string][]byte
	// cacheCap bounds the total bytes of cached (non-owned) payloads;
	// 0 means unlimited. Metadata entries are always cached (§VII).
	cacheCap    int
	cachedBytes int
	ownedKeys   map[string]bool // payload keys this node owns
	// cacheOrder tracks insertion order of cached payload keys for FIFO
	// eviction when cacheCap is exceeded.
	cacheOrder []string
	// chunkIndex maps item key -> chunk id -> chunk descriptor key, for
	// the chunks of each item whose payload this node holds. CDI
	// responses are built from it.
	chunkIndex map[string]map[int]string
	// cache is the admission/eviction strategy (see cachepolicy.go and
	// internal/strategy); never nil — NewDataStore installs FIFO.
	cache strategy.CacheStrategy
	// backend is the optional durable tier (see backend.go); nil keeps
	// the store purely in-memory, byte-for-byte the seed's behavior.
	backend PayloadBackend
	// spilled marks cached payloads whose bytes live only in the
	// backend: evicted from RAM but still served, via a disk read.
	spilled map[string]bool
	// tr records cache insert/evict trace events; nil is free.
	tr *trace.NodeTracer
}

// SetTracer installs a node-bound tracer for cache events and, when a
// backend is attached, its spill/compact/recover events. A nil tracer
// disables them.
func (s *DataStore) SetTracer(tr *trace.NodeTracer) {
	s.tr = tr
	if bt, ok := s.backend.(tracerSettable); ok {
		bt.SetTracer(tr)
	}
}

// NewDataStore returns an empty store. cacheCap bounds cached payload
// bytes (0 = unlimited).
func NewDataStore(cacheCap int) *DataStore {
	return &DataStore{
		entries:    make(map[string]*Entry),
		payloads:   make(map[string][]byte),
		ownedKeys:  make(map[string]bool),
		spilled:    make(map[string]bool),
		cacheCap:   cacheCap,
		chunkIndex: make(map[string]map[int]string),
		cache:      defaultCacheStrategy(),
	}
}

// PutOwned inserts an entry for data this node produced; it never
// expires.
func (s *DataStore) PutOwned(d attr.Descriptor) {
	key := d.Key()
	s.setEntry(Entry{Desc: d, Owned: true})
	if s.backend != nil && !s.ownedKeys[key] {
		if _, hasPayload := s.payloads[key]; !hasPayload && !s.spilled[key] {
			// Entry-only owned fact: persist it so a restart still
			// announces it. Payload-bearing records are written by
			// PutPayloadOwned and must not be superseded here.
			s.backend.PutEntry(d)
		}
	}
}

// PutCached inserts or refreshes a cached entry with the given expiry.
// An existing owned entry is never downgraded. It reports whether the
// entry was new.
func (s *DataStore) PutCached(d attr.Descriptor, expireAt time.Duration) bool {
	key := d.Key()
	if old, ok := s.entries[key]; ok {
		if !old.Owned && expireAt > old.ExpireAt {
			old.ExpireAt = expireAt
		}
		return false
	}
	s.setEntry(Entry{Desc: d, ExpireAt: expireAt})
	s.tr.CacheInsert(key, 0)
	return true
}

// setEntry stores e under its key: in place when the key is held, else
// as a new record (the one allocation an entry costs) at its place in
// the index. Keys that arrive ascending — a producer's series, a
// backend's Restore — append without a search.
func (s *DataStore) setEntry(e Entry) {
	key := e.Desc.Key()
	if old, ok := s.entries[key]; ok {
		*old = e
		return
	}
	rec := &e
	s.entries[key] = rec
	i := len(s.index)
	if i > 0 && s.index[i-1].Desc.Key() > key {
		i = s.indexOf(key)
	}
	s.index = slices.Insert(s.index, i, rec)
}

// dropEntry removes the entry under key, if held.
func (s *DataStore) dropEntry(key string) {
	if _, ok := s.entries[key]; !ok {
		return
	}
	delete(s.entries, key)
	i := s.indexOf(key)
	s.index = slices.Delete(s.index, i, i+1)
}

// dropEntries removes every entry drop picks, compacting the index in
// one ordered pass; drop sees the entries in key order.
func (s *DataStore) dropEntries(drop func(*Entry) bool) {
	s.index = slices.DeleteFunc(s.index, func(e *Entry) bool {
		if !drop(e) {
			return false
		}
		delete(s.entries, e.Desc.Key())
		return true
	})
}

// resetEntries empties the store's entries.
func (s *DataStore) resetEntries() {
	s.entries = make(map[string]*Entry)
	s.index = nil
}

// indexOf returns where key sits, or would be inserted, in the index.
func (s *DataStore) indexOf(key string) int {
	return sort.Search(len(s.index), func(i int) bool { return s.index[i].Desc.Key() >= key })
}

// HasEntry reports whether an unexpired entry exists for the descriptor.
func (s *DataStore) HasEntry(d attr.Descriptor, now time.Duration) bool {
	e, ok := s.entries[d.Key()]
	return ok && s.live(e, now)
}

func (s *DataStore) live(e *Entry, now time.Duration) bool {
	return e.Owned || e.ExpireAt > now
}

// Match returns all unexpired entries whose descriptors satisfy q, in
// deterministic (key-sorted) order.
func (s *DataStore) Match(q attr.Query, now time.Duration) []attr.Descriptor {
	return s.AppendMatch(nil, q, now)
}

// AppendMatch appends to dst what Match returns: one walk of the index,
// which allocates nothing when dst has the room. A serve pass reuses one
// buffer across passes and passes the empty query, leaving the selectors
// to the per-route test it runs anyway.
//
//pds:hotpath
func (s *DataStore) AppendMatch(dst []attr.Descriptor, q attr.Query, now time.Duration) []attr.Descriptor {
	for _, e := range s.index {
		if s.live(e, now) && q.Match(e.Desc) {
			dst = append(dst, e.Desc)
		}
	}
	return dst
}

// PutPayloadOwned stores a payload this node produced, with its metadata
// entry.
func (s *DataStore) PutPayloadOwned(d attr.Descriptor, payload []byte) {
	key := d.Key()
	if !s.ownedKeys[key] {
		if _, cached := s.payloads[key]; cached {
			// Upgrading a cached payload to owned: stop counting it
			// against the cache budget.
			s.cachedBytes -= len(s.payloads[key])
		}
		s.ownedKeys[key] = true
	}
	delete(s.spilled, key) // upgraded copies live in RAM again
	s.payloads[key] = payload
	s.indexChunk(d, key)
	s.PutOwned(d)
	if s.backend != nil {
		s.backend.PutPayload(d, payload, true)
	}
}

// indexChunk records chunk payload possession in the per-item index.
func (s *DataStore) indexChunk(d attr.Descriptor, key string) {
	cid, ok := d.ChunkID()
	if !ok {
		return
	}
	itemKey := d.ItemDescriptor().Key()
	m, ok := s.chunkIndex[itemKey]
	if !ok {
		m = make(map[int]string)
		s.chunkIndex[itemKey] = m
	}
	m[cid] = key
}

func (s *DataStore) unindexChunk(d attr.Descriptor) {
	cid, ok := d.ChunkID()
	if !ok {
		return
	}
	itemKey := d.ItemDescriptor().Key()
	if m, ok := s.chunkIndex[itemKey]; ok {
		delete(m, cid)
		if len(m) == 0 {
			delete(s.chunkIndex, itemKey)
		}
	}
}

// ChunksHeld returns the sorted chunk ids of the item whose payloads
// this node holds.
func (s *DataStore) ChunksHeld(itemKey string) []int {
	m := s.chunkIndex[itemKey]
	out := make([]int, 0, len(m))
	for cid := range m {
		out = append(out, cid)
	}
	sort.Ints(out)
	return out
}

// ChunkPayload returns the payload of one chunk of the item. Access
// counts toward LRU/LFU cache accounting.
func (s *DataStore) ChunkPayload(itemKey string, chunkID int) ([]byte, bool) {
	m := s.chunkIndex[itemKey]
	key, ok := m[chunkID]
	if !ok {
		return nil, false
	}
	return s.payloadByKey(key)
}

// payloadByKey reads a payload from RAM or, for spilled keys, from the
// backend. Either hit counts toward LRU/LFU accounting.
func (s *DataStore) payloadByKey(key string) ([]byte, bool) {
	if p, ok := s.payloads[key]; ok {
		s.touch(key)
		return p, true
	}
	if s.spilled[key] {
		if p, ok := s.backend.GetPayload(key); ok {
			s.touch(key)
			return p, true
		}
	}
	return nil, false
}

// PutPayloadCached stores an overheard or relayed payload, subject to
// the cache budget (policy-driven eviction of other cached payloads).
// Before a live payload is evicted to make room, cached payloads whose
// entry already expired by now are purged — their slots were dead
// weight. The metadata entry is upgraded to non-expiring only in the
// sense that the payload's presence keeps it alive; we keep it cached
// with expiry refreshed by callers. It reports whether the payload was
// stored.
func (s *DataStore) PutPayloadCached(d attr.Descriptor, payload []byte, now, expireAt time.Duration) bool {
	key := d.Key()
	if s.ownedKeys[key] {
		return false // already have a better copy
	}
	if _, ok := s.payloads[key]; ok {
		s.PutCached(d, expireAt)
		return false
	}
	if s.spilled[key] {
		// Bytes already live in the disk tier; just refresh the lease.
		s.PutCached(d, expireAt)
		return false
	}
	if s.cacheCap > 0 && len(payload) > s.cacheCap {
		return false
	}
	if !s.cache.Admit(key) {
		// The admission gate declined the slot (e.g. opportunistic
		// placement caching a per-node half of passing traffic); the
		// payload is simply not cached here.
		return false
	}
	if s.cacheCap > 0 && s.cachedBytes+len(payload) > s.cacheCap {
		s.purgeExpired(now)
	}
	for s.cacheCap > 0 && s.cachedBytes+len(payload) > s.cacheCap {
		if !s.evictOne() {
			break
		}
	}
	s.payloads[key] = payload
	s.cachedBytes += len(payload)
	s.cacheOrder = append(s.cacheOrder, key)
	s.tr.CacheInsert(key, len(payload))
	s.indexChunk(d, key)
	s.PutCached(d, expireAt)
	if s.backend != nil {
		s.backend.PutPayload(d, payload, false)
	}
	return true
}

// purgeExpired frees the cache slots of cached payloads whose metadata
// entry has expired: the payload is dropped (RAM and disk tier), the
// chunk unindexed and the entry removed, so the eviction policy is
// never asked to sacrifice a live payload while an expired one squats
// on the budget.
func (s *DataStore) purgeExpired(now time.Duration) {
	s.dropEntries(func(e *Entry) bool {
		if s.live(e, now) {
			return false
		}
		key := e.Desc.Key()
		p, inRAM := s.payloads[key]
		if !inRAM && !s.spilled[key] {
			return false // no payload to reclaim: Expire's business
		}
		if inRAM {
			s.cachedBytes -= len(p)
			s.tr.CacheEvict(key, len(p))
			delete(s.payloads, key)
		}
		s.unindexChunk(e.Desc)
		s.cache.Forget(key)
		if s.backend != nil {
			s.backend.DeletePayload(key)
		}
		// A spilled payload left cacheOrder when it was evicted from RAM;
		// its disk record was reclaimed just above.
		delete(s.spilled, key)
		return true
	})
	s.cacheOrder = slices.DeleteFunc(s.cacheOrder, func(key string) bool {
		_, inRAM := s.payloads[key]
		return !inRAM
	})
}

// Payload returns the stored payload for the descriptor, if present.
// Access counts toward LRU/LFU cache accounting.
func (s *DataStore) Payload(d attr.Descriptor) ([]byte, bool) {
	return s.payloadByKey(d.Key())
}

// HasPayload reports whether the payload for the descriptor is present
// in RAM or the disk tier.
func (s *DataStore) HasPayload(d attr.Descriptor) bool {
	key := d.Key()
	if _, ok := s.payloads[key]; ok {
		return true
	}
	return s.spilled[key]
}

// MatchPayloads returns descriptors of held payloads (RAM or spilled)
// whose metadata entries are unexpired and satisfy q, in deterministic
// (key-sorted) order.
func (s *DataStore) MatchPayloads(q attr.Query, now time.Duration) []attr.Descriptor {
	return s.AppendMatchPayloads(nil, q, now)
}

// AppendMatchPayloads is AppendMatch over the entries whose payload is
// held.
//
//pds:hotpath
func (s *DataStore) AppendMatchPayloads(dst []attr.Descriptor, q attr.Query, now time.Duration) []attr.Descriptor {
	for _, e := range s.index {
		if s.live(e, now) && q.Match(e.Desc) && s.HasPayload(e.Desc) {
			dst = append(dst, e.Desc)
		}
	}
	return dst
}

// OwnedItemKeys returns the sorted item-level keys of the data this
// node produced or fully holds (chunk keys roll up to their item's
// key) — the content set that advertisement-based routing strategies
// flood.
func (s *DataStore) OwnedItemKeys() []string {
	seen := make(map[string]bool, len(s.ownedKeys))
	keys := make([]string, 0, len(s.ownedKeys))
	for k := range s.ownedKeys {
		e, ok := s.entries[k]
		if !ok {
			continue
		}
		ik := e.Desc.ItemDescriptor().Key()
		if !seen[ik] {
			seen[ik] = true
			keys = append(keys, ik)
		}
	}
	sort.Strings(keys)
	return keys
}

// DeleteOwned removes an owned payload and its entry — the producer
// deleting its data (§II-A "data ... deleted").
func (s *DataStore) DeleteOwned(d attr.Descriptor) {
	key := d.Key()
	delete(s.payloads, key)
	delete(s.ownedKeys, key)
	s.dropEntry(key)
	delete(s.spilled, key)
	s.unindexChunk(d)
	if s.backend != nil {
		s.backend.DeletePayload(key)
	}
}

// WipeCached drops everything volatile — cached entries, cached
// payloads (spilled ones included) and partial chunk buffers — keeping
// only owned data, as when a node crashes and restarts with just its
// persisted store. A backend's owned on-disk records are never touched;
// its cached records follow the same crash semantics unless it was
// opened with a persistent cache tier.
func (s *DataStore) WipeCached() {
	s.dropEntries(func(e *Entry) bool { return !e.Owned })
	for k := range s.payloads {
		if !s.ownedKeys[k] {
			delete(s.payloads, k)
		}
	}
	s.cachedBytes = 0
	s.cacheOrder = nil
	s.cache.Reset()
	s.spilled = make(map[string]bool)
	if s.backend != nil {
		s.backend.WipeCached()
	}
	// Rebuild the chunk index from the surviving (owned) payloads.
	s.chunkIndex = make(map[string]map[int]string)
	for _, e := range s.index {
		key := e.Desc.Key()
		if _, held := s.payloads[key]; held {
			s.indexChunk(e.Desc, key)
		}
	}
}

// PowerOff models the node losing power mid-run. With a durable
// backend attached, every in-memory byte is lost — owned data included
// — and only the backend's records survive; reload them with Recover.
// Without a backend it degrades to WipeCached: the seed's model, where
// owned data is assumed to sit on persistent storage outside this
// process.
func (s *DataStore) PowerOff() {
	s.WipeCached()
	if s.backend == nil {
		return
	}
	s.resetEntries()
	s.payloads = make(map[string][]byte)
	s.ownedKeys = make(map[string]bool)
	s.chunkIndex = make(map[string]map[int]string)
}

// Expire removes entries whose expiry has passed and whose payload is
// absent (§II-C: "upon expiration, the node removes the entry if it does
// not yet have the payload"). It returns the earliest expiry still ahead
// among cached entries, clock.Never when none; payload-bearing ones count
// until they lapse, for an evicted payload leaves its entry to expire.
func (s *DataStore) Expire(now time.Duration) time.Duration {
	next := clock.Never
	s.dropEntries(func(e *Entry) bool {
		if e.Owned {
			return false
		}
		if e.ExpireAt > now {
			next = min(next, e.ExpireAt)
			return false
		}
		return !s.HasPayload(e.Desc)
	})
	return next
}
