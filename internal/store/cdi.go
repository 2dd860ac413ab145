package store

import (
	"cmp"
	"slices"
	"time"

	"pds/internal/assign"
	"pds/internal/clock"
	"pds/internal/wire"
)

// CDIEntry is one chunk routing entry (§IV-A): the chunk can be
// retrieved via Neighbor at HopCount hops. HopCount 0 with Neighbor ==
// self means the chunk is local.
type CDIEntry struct {
	ChunkID  int
	HopCount int
	Neighbor wire.NodeID
	ExpireAt time.Duration
}

// CDITable holds chunk distribution information per data item, keyed by
// the item descriptor's canonical key. For each chunk it keeps every
// least-hop-count neighbor (the paper creates one entry per neighbor
// when several tie, §IV-A). The zero value is an empty table.
type CDITable struct {
	// items[itemKey][chunkID] -> entries with the same minimal hop
	// count, one per neighbor; nil until the first Update.
	items map[string]map[int][]CDIEntry
}

// Update merges a new observation: chunkID of the item reachable via
// neighbor at hopCount. Smaller hop counts replace larger ones; equal
// hop counts via new neighbors accumulate (§IV-A). It reports whether
// the table changed.
func (t *CDITable) Update(itemKey string, e CDIEntry) bool {
	chunks, ok := t.items[itemKey]
	if !ok {
		if t.items == nil {
			t.items = make(map[string]map[int][]CDIEntry)
		}
		chunks = make(map[int][]CDIEntry)
		t.items[itemKey] = chunks
	}
	cur := chunks[e.ChunkID]
	if len(cur) == 0 || e.HopCount < cur[0].HopCount {
		chunks[e.ChunkID] = []CDIEntry{e}
		return true
	}
	if e.HopCount > cur[0].HopCount {
		return false
	}
	for i, old := range cur {
		if old.Neighbor == e.Neighbor {
			if e.ExpireAt > old.ExpireAt {
				cur[i].ExpireAt = e.ExpireAt
				return true
			}
			return false
		}
	}
	chunks[e.ChunkID] = append(cur, e)
	return true
}

// Lookup returns the unexpired least-hop routes for one chunk, sorted
// by neighbor id for determinism: the chunk's assignment options.
func (t *CDITable) Lookup(itemKey string, chunkID int, now time.Duration) []assign.Option {
	var out []assign.Option
	for _, e := range t.items[itemKey][chunkID] {
		if e.ExpireAt > now {
			out = append(out, assign.Option{Neighbor: e.Neighbor, Hop: e.HopCount})
		}
	}
	// Update keeps one entry per neighbor and chunk, so no two keys tie
	// and an unstable sort has one possible outcome.
	slices.SortFunc(out, func(a, b assign.Option) int { return cmp.Compare(a.Neighbor, b.Neighbor) })
	return out
}

// Has reports whether Lookup would return any entry, allocating
// nothing: PDR phase 1's coverage checks ask it.
//
//pds:hotpath
func (t *CDITable) Has(itemKey string, chunkID int, now time.Duration) bool {
	for _, e := range t.items[itemKey][chunkID] {
		if e.ExpireAt > now {
			return true
		}
	}
	return false
}

// AppendPairs appends to dst one ChunkID-HopCount pair per chunk of the
// item with an unexpired entry, sorted by chunk id — the routed part of
// a CDI response (§IV-A). It allocates nothing when dst has the room.
//
//pds:hotpath
func (t *CDITable) AppendPairs(dst []wire.CDIPair, itemKey string, now time.Duration) []wire.CDIPair {
	n := len(dst)
	for cid, entries := range t.items[itemKey] {
		for _, e := range entries {
			if e.ExpireAt > now {
				dst = append(dst, wire.CDIPair{ChunkID: cid, HopCount: e.HopCount})
				break
			}
		}
	}
	// One pair per key of the chunks map: chunk ids cannot tie.
	slices.SortFunc(dst[n:], func(a, b wire.CDIPair) int { return cmp.Compare(a.ChunkID, b.ChunkID) })
	return dst
}

// prune drops the entries keep rejects from one item's rows, and the
// item once nothing is left; it returns the number dropped.
func (t *CDITable) prune(itemKey string, keep func(CDIEntry) bool) int {
	chunks, n := t.items[itemKey], 0
	for cid, entries := range chunks {
		kept := entries[:0]
		for _, e := range entries {
			if keep(e) {
				kept = append(kept, e)
			} else {
				n++
			}
		}
		if len(kept) == 0 {
			delete(chunks, cid)
		} else {
			chunks[cid] = kept
		}
	}
	if len(chunks) == 0 {
		delete(t.items, itemKey)
	}
	return n
}

// DropNeighbor removes all entries via the given neighbor (used when a
// retrieval via that neighbor times out, so the next attempt re-routes).
func (t *CDITable) DropNeighbor(itemKey string, neighbor wire.NodeID) {
	t.prune(itemKey, func(e CDIEntry) bool { return e.Neighbor != neighbor })
}

// pruneAll is prune over every item.
func (t *CDITable) pruneAll(keep func(CDIEntry) bool) int {
	n := 0
	for itemKey := range t.items {
		n += t.prune(itemKey, keep)
	}
	return n
}

// DropNeighborAll removes every entry via the given neighbor across all
// items — the neighbor has been declared dead by the health tracker and
// no chunk should be routed through it. It returns the number removed.
func (t *CDITable) DropNeighborAll(neighbor wire.NodeID) int {
	return t.pruneAll(func(e CDIEntry) bool { return e.Neighbor != neighbor })
}

// Expire removes expired entries; obsolete CDI does not live forever
// (§IV-A). It returns the earliest expiry still held, clock.Never when
// none.
func (t *CDITable) Expire(now time.Duration) time.Duration {
	next := clock.Never
	t.pruneAll(func(e CDIEntry) bool {
		if e.ExpireAt <= now {
			return false
		}
		next = min(next, e.ExpireAt)
		return true
	})
	return next
}
