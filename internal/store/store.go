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

// Entry is one record of the data store (§II-C): a descriptor, how its
// metadata is held, and what the node holds of its payload.
type Entry struct {
	Desc attr.Descriptor
	// Owned entries describe data this node produced or fully holds;
	// they never expire. Cached entries (received, relayed or overheard
	// without payload) carry an expiry (§II-C).
	Owned    bool
	ExpireAt time.Duration
	// held is the payload (a small item, or one chunk under its chunk
	// descriptor); nil for a metadata-only entry. A payload has no
	// existence apart from its record, so it cannot outlive its entry.
	held *held
}

// held is what a node holds of one payload. Only hold writes one and
// only release takes one away.
type held struct {
	// bytes is the payload in RAM; nil while spilled, so a payload is
	// never in RAM and spilled at once.
	bytes []byte
	// owned payloads (produced or retrieved here) sit outside the cache
	// budget and survive WipeCached; the rest are cached.
	owned bool
	// spilled marks a cached payload whose bytes live only in the
	// backend: evicted from RAM but still served, via a disk read.
	spilled bool
}

// inCache reports whether the payload counts against the cache budget:
// cached, with its bytes in RAM.
func (h *held) inCache() bool { return !h.owned && !h.spilled }

// DataStore holds one record per canonical descriptor key: the metadata
// entry and, on it, the payload if held.
type DataStore struct {
	// entries, like chunkIndex, is nil until its first write.
	entries map[string]*Entry
	// index holds the records of entries ordered by key, so a serve pass
	// is one walk with nothing to collect or sort. Its one invariant:
	// index is exactly the values of entries, ascending by Desc.Key().
	// Only setEntry, dropEntry, dropEntries and reset write either.
	index []*Entry
	// cacheCap bounds the total bytes of cached (non-owned) payloads;
	// 0 means unlimited. Metadata entries are always cached (§VII).
	cacheCap int
	// cachedBytes and cacheOrder are the cache's books: the byte sum and
	// the keys, in insertion order, of exactly the records whose held is
	// inCache. hold and unload keep them so; eviction takes cacheOrder's
	// head.
	cachedBytes int
	cacheOrder  []string
	// chunkIndex maps item key -> chunk id -> record, for exactly the
	// chunk records that hold a payload (RAM or spilled). CDI responses
	// are built from it.
	chunkIndex map[string]map[int]*Entry
	// Gate, when non-nil, decides what the cache admits (see
	// cachepolicy.go); nil, the paper's cache, admits everything.
	Gate *strategy.Opportunistic
	// backend is the optional durable tier (see backend.go); nil keeps
	// the store purely in-memory, byte-for-byte the seed's behavior.
	backend PayloadBackend
	// slab is the chunk new records are cut from, free the dropped ones
	// awaiting reuse, slots the number cut: entries plus free.
	slab  []Entry
	free  []*Entry
	slots int
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
	return &DataStore{cacheCap: cacheCap}
}

// PutOwned inserts an entry for data this node produced; it never
// expires. With a backend attached the owned fact is persisted, so a
// restart still announces it: as an entry when no payload is held, and
// over a cached payload by making its record owned, bytes and all. An
// owned payload's record, written by PutPayloadOwned, stands.
func (s *DataStore) PutOwned(d attr.Descriptor) {
	switch e := s.setEntry(d, true, 0); {
	case s.backend == nil || e.held != nil && e.held.owned:
	case e.held == nil:
		s.backend.PutEntry(d)
	case !e.held.spilled:
		s.backend.PutPayload(d, e.held.bytes, true)
	default:
		if p, ok := s.backend.GetPayload(d.Key()); ok {
			s.backend.PutPayload(d, p, true)
		} else {
			s.backend.PutEntry(d)
		}
	}
}

// PutCached inserts or refreshes a cached entry with the given expiry.
// An existing owned entry is never downgraded. It reports whether the
// entry was new.
func (s *DataStore) PutCached(d attr.Descriptor, expireAt time.Duration) bool {
	_, fresh := s.lease(s.entries[d.Key()], d, expireAt)
	return fresh
}

// lease is PutCached for a caller that already looked up the record
// under d's key (nil when there is none); it returns the record too.
func (s *DataStore) lease(e *Entry, d attr.Descriptor, expireAt time.Duration) (*Entry, bool) {
	if e != nil {
		if !e.Owned && expireAt > e.ExpireAt {
			e.ExpireAt = expireAt
		}
		return e, false
	}
	e = s.setEntry(d, false, expireAt)
	s.tr.CacheInsert(d.Key(), 0)
	return e, true
}

// slabChunk bounds the chunks records are cut from, which start at one
// record and double. 42 48-byte records and the runtime's 8-byte header
// on a pointerful object over 512 bytes fill a 2 KB size class.
const slabChunk = 42

// setEntry sets how d's metadata is held and returns its record: in
// place when the key is held, whatever payload is on it staying, else a
// dropped record off the free list or the current chunk's next slot, at
// its place in the index. Keys that arrive ascending — a producer's
// series, a backend's Restore — append without a search. Reuse is safe
// because a record is reached only through entries, index and
// chunkIndex (*Entry never leaves the package), and every drop takes it
// out of all three before freeEntry zeroes it; checkIndex asserts it.
func (s *DataStore) setEntry(d attr.Descriptor, owned bool, expireAt time.Duration) *Entry {
	key := d.Key()
	if e, ok := s.entries[key]; ok {
		e.Owned, e.ExpireAt = owned, expireAt
		return e
	}
	var e *Entry
	if n := len(s.free); n > 0 {
		e, s.free = s.free[n-1], s.free[:n-1]
	} else {
		if len(s.slab) == cap(s.slab) {
			s.slab = make([]Entry, 0, min(max(1, 2*cap(s.slab)), slabChunk))
		}
		s.slab = s.slab[:len(s.slab)+1]
		e = &s.slab[len(s.slab)-1]
		s.slots++
	}
	*e = Entry{Desc: d, Owned: owned, ExpireAt: expireAt}
	if s.entries == nil {
		s.entries = make(map[string]*Entry)
	}
	s.entries[key] = e
	i := len(s.index)
	if i > 0 && s.index[i-1].Desc.Key() > key {
		i = s.indexOf(key)
	}
	s.index = slices.Insert(s.index, i, e)
	return e
}

// dropEntry removes the entry held under key.
func (s *DataStore) dropEntry(key string) {
	delete(s.entries, key)
	i := s.indexOf(key)
	s.freeEntry(s.index[i])
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
		s.freeEntry(e)
		return true
	})
}

// freeEntry zeroes a dropped record, so its descriptor and payload can
// be collected, and keeps it for the next setEntry.
func (s *DataStore) freeEntry(e *Entry) {
	*e = Entry{}
	s.free = append(s.free, e)
}

// reset empties the store: every record, the slab they came from, and
// the books kept over them.
func (s *DataStore) reset() {
	s.entries, s.index, s.chunkIndex = nil, nil, nil
	s.cachedBytes, s.cacheOrder = 0, nil
	s.slab, s.free, s.slots = nil, nil, 0
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
	// Over a cached copy this is an upgrade: hold takes the old bytes
	// off the cache budget, and a spilled copy lives in RAM again.
	s.hold(s.setEntry(d, true, 0), held{bytes: payload, owned: true})
	if s.backend != nil {
		s.backend.PutPayload(d, payload, true)
	}
}

// hold is the one way a payload lands on a record or changes how it is
// held there; it keeps the chunk index and the cache's books in step.
func (s *DataStore) hold(e *Entry, h held) {
	if e.held == nil {
		e.held = new(held)
		s.indexChunk(e)
	} else {
		s.unload(e)
	}
	*e.held = h
	if h.inCache() {
		s.cachedBytes += len(h.bytes)
		s.cacheOrder = append(s.cacheOrder, e.Desc.Key())
	}
}

// unload takes e's payload, if it is in the cache, off the cache's
// books; its caller says at once how the record is held from then on.
func (s *DataStore) unload(e *Entry) {
	if !e.held.inCache() {
		return
	}
	s.cachedBytes -= len(e.held.bytes)
	i := slices.Index(s.cacheOrder, e.Desc.Key())
	s.cacheOrder = slices.Delete(s.cacheOrder, i, i+1)
}

// release is the one way a payload leaves the store: off the cache's
// books and out of the chunk index. The record stays, as a
// metadata-only entry, for its caller to keep or drop.
func (s *DataStore) release(e *Entry) {
	if e.held == nil {
		return
	}
	s.unload(e)
	s.unindexChunk(e)
	e.held = nil
}

// indexChunk records chunk payload possession in the per-item index.
func (s *DataStore) indexChunk(e *Entry) {
	cid, ok := e.Desc.ChunkID()
	if !ok {
		return
	}
	itemKey := e.Desc.ItemKey()
	m, ok := s.chunkIndex[itemKey]
	if !ok {
		if s.chunkIndex == nil {
			s.chunkIndex = make(map[string]map[int]*Entry)
		}
		m = make(map[int]*Entry)
		s.chunkIndex[itemKey] = m
	}
	m[cid] = e
}

func (s *DataStore) unindexChunk(e *Entry) {
	cid, ok := e.Desc.ChunkID()
	if !ok {
		return
	}
	itemKey := e.Desc.ItemKey()
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
	return s.AppendChunksHeld(nil, itemKey)
}

// AppendChunksHeld appends to dst what ChunksHeld returns; it allocates
// nothing when dst has the room.
//
//pds:hotpath
func (s *DataStore) AppendChunksHeld(dst []int, itemKey string) []int {
	n := len(dst)
	for cid := range s.chunkIndex[itemKey] {
		dst = append(dst, cid)
	}
	slices.Sort(dst[n:])
	return dst
}

// HoldsChunk reports whether this node holds the payload of one chunk
// of the item, in RAM or spilled.
//
//pds:hotpath
func (s *DataStore) HoldsChunk(itemKey string, chunkID int) bool {
	_, ok := s.chunkIndex[itemKey][chunkID]
	return ok
}

// ChunkPayload returns the payload of one chunk of the item.
func (s *DataStore) ChunkPayload(itemKey string, chunkID int) ([]byte, bool) {
	return s.read(s.chunkIndex[itemKey][chunkID])
}

// read returns e's payload from RAM or, when spilled, from the backend;
// e may be nil.
func (s *DataStore) read(e *Entry) ([]byte, bool) {
	if e == nil || e.held == nil {
		return nil, false
	}
	if !e.held.spilled {
		return e.held.bytes, true
	}
	return s.backend.GetPayload(e.Desc.Key())
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
	e := s.entries[key]
	if e != nil && e.held != nil {
		if !e.held.owned {
			// A cached copy is held already, in RAM or in the disk tier;
			// just refresh the lease. An owned one is the better copy.
			s.lease(e, d, expireAt)
		}
		return false
	}
	if s.cacheCap > 0 && len(payload) > s.cacheCap {
		return false
	}
	if !s.Gate.Admit(key) {
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
	s.tr.CacheInsert(key, len(payload))
	// Neither pass above touched e: both take payload-bearing records only.
	e, _ = s.lease(e, d, expireAt)
	s.hold(e, held{bytes: payload})
	if s.backend != nil {
		s.backend.PutPayload(d, payload, false)
	}
	return true
}

// purgeExpired frees the cache slots of cached payloads whose metadata
// entry has expired: the payload is released (RAM and disk tier) and the
// entry removed, so the eviction policy is never asked to sacrifice a
// live payload while an expired one squats on the budget.
func (s *DataStore) purgeExpired(now time.Duration) {
	s.dropEntries(func(e *Entry) bool {
		if s.live(e, now) || e.held == nil {
			return false // live, or no payload to reclaim: Expire's business
		}
		key := e.Desc.Key()
		if e.held.inCache() {
			s.tr.CacheEvict(key, len(e.held.bytes))
		}
		s.release(e)
		if s.backend != nil {
			s.backend.DeletePayload(key)
		}
		return true
	})
}

// Payload returns the stored payload for the descriptor, if present.
func (s *DataStore) Payload(d attr.Descriptor) ([]byte, bool) {
	return s.read(s.entries[d.Key()])
}

// HasPayload reports whether the payload for the descriptor is present
// in RAM or the disk tier.
func (s *DataStore) HasPayload(d attr.Descriptor) bool {
	e, ok := s.entries[d.Key()]
	return ok && e.held != nil
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
		if e.held != nil && s.live(e, now) && q.Match(e.Desc) {
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
	seen := make(map[string]bool)
	var keys []string
	for _, e := range s.index {
		if e.held == nil || !e.held.owned {
			continue
		}
		ik := e.Desc.ItemKey()
		if !seen[ik] {
			seen[ik] = true
			keys = append(keys, ik)
		}
	}
	sort.Strings(keys)
	return keys
}

// DeleteOwned removes a payload, however it is held, and its entry —
// the producer deleting its data (§II-A "data ... deleted").
func (s *DataStore) DeleteOwned(d attr.Descriptor) {
	key := d.Key()
	if e, ok := s.entries[key]; ok {
		s.release(e)
		s.dropEntry(key)
	}
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
	s.dropEntries(func(e *Entry) bool {
		if e.held != nil && !e.held.owned {
			s.release(e)
		}
		return !e.Owned
	})
	if s.backend != nil {
		s.backend.WipeCached()
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
	if s.backend != nil {
		s.reset()
	}
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
		return e.held == nil
	})
	return next
}
