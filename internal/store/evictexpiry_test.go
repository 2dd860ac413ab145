package store

import (
	"testing"
	"time"
)

// Eviction↔expiry interplay: when the cache is over budget, expired
// cached chunks must be purged first — unindexed from the chunk index
// and their capacity slot freed — before the policy evicts anything
// that is still live. The expired chunk is arranged to NOT be the
// policy's victim, so a surviving "keeper" proves the purge ran.
func testExpiredChunkFreedBeforeEviction(t *testing.T, policy string) {
	t.Helper()
	s := withPolicy(t, 8, policy)
	item := entry(1)
	expiring := item.WithChunk(0)
	keeper := entry(2)

	// keeper first: FIFO's victim is the oldest insertion.
	if !s.PutPayloadCached(keeper, []byte{2, 0, 0, 0}, 0, time.Hour) {
		t.Fatal("keeper insert refused")
	}
	if !s.PutPayloadCached(expiring, []byte{1, 0, 0, 0}, 0, 10*time.Second) {
		t.Fatal("expiring insert refused")
	}
	// Touch the expiring chunk twice: LRU's and LFU's victim is keeper.
	s.ChunkPayload(item.Key(), 0)
	s.ChunkPayload(item.Key(), 0)

	// Cache is full (8/8). At t=20s the chunk's lease has lapsed; the
	// insert below must reclaim its slot rather than evict keeper.
	now := 20 * time.Second
	if !s.PutPayloadCached(entry(3), []byte{3, 0, 0, 0}, now, now+time.Hour) {
		t.Fatal("insert refused despite an expired slot")
	}
	if s.HasPayload(expiring) {
		t.Fatalf("[%s] expired chunk still cached", policy)
	}
	if !s.HasPayload(keeper) {
		t.Fatalf("[%s] live payload evicted while an expired chunk held a slot", policy)
	}
	if _, ok := s.ChunkPayload(item.Key(), 0); ok {
		t.Fatalf("[%s] expired chunk still resolvable through the chunk index", policy)
	}
	if s.HasEntry(expiring, now) {
		t.Fatalf("[%s] expired chunk entry survived the purge", policy)
	}
}

func TestExpiredChunkFreedBeforeEvictionFIFO(t *testing.T) {
	testExpiredChunkFreedBeforeEviction(t, "fifo")
}

func TestExpiredChunkFreedBeforeEvictionLRU(t *testing.T) {
	testExpiredChunkFreedBeforeEviction(t, "lru")
}

func TestExpiredChunkFreedBeforeEvictionLFU(t *testing.T) {
	testExpiredChunkFreedBeforeEviction(t, "lfu")
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
