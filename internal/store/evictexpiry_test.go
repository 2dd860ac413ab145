package store

import (
	"testing"
	"time"
)

// Eviction↔expiry interplay: when the cache is over budget, expired
// cached chunks must be purged first — unindexed from the chunk index
// and their capacity slot freed — before anything that is still live is
// evicted. The expired chunk is arranged to NOT be the oldest
// insertion, so a surviving "keeper" proves the purge ran.
func TestExpiredChunkFreedBeforeEvictionFIFO(t *testing.T) {
	s := withPolicy(t, 8, "fifo")
	item := entry(1)
	expiring := item.WithChunk(0)
	keeper := entry(2)

	// keeper first: eviction takes the oldest insertion.
	if !s.PutPayloadCached(keeper, []byte{2, 0, 0, 0}, 0, time.Hour) {
		t.Fatal("keeper insert refused")
	}
	if !s.PutPayloadCached(expiring, []byte{1, 0, 0, 0}, 0, 10*time.Second) {
		t.Fatal("expiring insert refused")
	}
	// Cache is full (8/8). At t=20s the chunk's lease has lapsed; the
	// insert below must reclaim its slot rather than evict keeper.
	now := 20 * time.Second
	if !s.PutPayloadCached(entry(3), []byte{3, 0, 0, 0}, now, now+time.Hour) {
		t.Fatal("insert refused despite an expired slot")
	}
	if s.HasPayload(expiring) {
		t.Fatal("expired chunk still cached")
	}
	if !s.HasPayload(keeper) {
		t.Fatal("live payload evicted while an expired chunk held a slot")
	}
	if _, ok := s.ChunkPayload(item.Key(), 0); ok {
		t.Fatal("expired chunk still resolvable through the chunk index")
	}
	if s.HasEntry(expiring, now) {
		t.Fatal("expired chunk entry survived the purge")
	}
}

// A still-live payload must never be purged by the expiry sweep.
func TestPurgeKeepsLiveUnderPressure(t *testing.T) {
	s := NewDataStore(8)
	a, b := entry(1), entry(2)
	s.PutPayloadCached(a, []byte{1, 0, 0, 0}, 0, time.Hour)
	s.PutPayloadCached(b, []byte{2, 0, 0, 0}, 0, time.Hour)
	// Over budget with nothing expired: normal eviction (FIFO → a).
	if !s.PutPayloadCached(entry(3), []byte{3, 0, 0, 0}, time.Second, time.Hour) {
		t.Fatal("insert refused")
	}
	if s.HasPayload(a) {
		t.Fatal("FIFO victim survived")
	}
	if !s.HasPayload(b) {
		t.Fatal("live payload purged while unexpired")
	}
}
