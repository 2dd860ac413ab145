package store

import (
	"testing"
	"time"

	"pds/internal/strategy"
)

// withPolicy returns a store with the given cache budget evicting by
// the named registry strategy.
func withPolicy(t *testing.T, cacheCap int, policy string) *DataStore {
	t.Helper()
	cs, err := strategy.NewCaching(policy, 0)
	if err != nil {
		t.Fatal(err)
	}
	s := NewDataStore(cacheCap)
	s.SetCacheStrategy(cs)
	return s
}

// fillCache inserts three cached 4-byte payloads a, b, c in order into
// a 12-byte cache.
func fillCache(t *testing.T, policy string) *DataStore {
	t.Helper()
	s := withPolicy(t, 12, policy)
	for i := 0; i < 3; i++ {
		if !s.PutPayloadCached(entry(i), []byte{byte(i), 0, 0, 0}, 0, time.Hour) {
			t.Fatalf("insert %d refused", i)
		}
	}
	return s
}

func TestPolicyFIFO(t *testing.T) {
	s := fillCache(t, "fifo")
	// Access patterns are irrelevant to FIFO.
	s.Payload(entry(0))
	s.Payload(entry(0))
	s.PutPayloadCached(entry(9), []byte{9, 0, 0, 0}, 0, time.Hour)
	if s.HasPayload(entry(0)) {
		t.Fatal("FIFO kept the oldest")
	}
	if !s.HasPayload(entry(1)) || !s.HasPayload(entry(2)) {
		t.Fatal("FIFO evicted the wrong payload")
	}
}

func TestPolicyLRU(t *testing.T) {
	s := fillCache(t, "lru")
	// Touch 0 and 2; 1 becomes least recently used.
	s.Payload(entry(0))
	s.Payload(entry(2))
	s.PutPayloadCached(entry(9), []byte{9, 0, 0, 0}, 0, time.Hour)
	if s.HasPayload(entry(1)) {
		t.Fatal("LRU kept the least recently used")
	}
	if !s.HasPayload(entry(0)) || !s.HasPayload(entry(2)) {
		t.Fatal("LRU evicted a recently used payload")
	}
}

func TestPolicyLFU(t *testing.T) {
	s := fillCache(t, "lfu")
	// 0 accessed twice, 1 once, 2 never: 2 is least popular.
	s.Payload(entry(0))
	s.Payload(entry(0))
	s.Payload(entry(1))
	s.PutPayloadCached(entry(9), []byte{9, 0, 0, 0}, 0, time.Hour)
	if s.HasPayload(entry(2)) {
		t.Fatal("LFU kept the least popular")
	}
	if !s.HasPayload(entry(0)) || !s.HasPayload(entry(1)) {
		t.Fatal("LFU evicted a popular payload")
	}
}

func TestChunkAccessCountsForLFU(t *testing.T) {
	s := withPolicy(t, 12, "lfu")
	item := entry(1)
	for c := 0; c < 3; c++ {
		s.PutPayloadCached(item.WithChunk(c), []byte{byte(c), 0, 0, 0}, 0, time.Hour)
	}
	itemKey := item.Key()
	s.ChunkPayload(itemKey, 0)
	s.ChunkPayload(itemKey, 1)
	s.PutPayloadCached(entry(9), []byte{9, 0, 0, 0}, 0, time.Hour)
	if _, ok := s.ChunkPayload(itemKey, 2); ok {
		t.Fatal("LFU kept the never-served chunk")
	}
}

func TestPolicyString(t *testing.T) {
	if got := NewDataStore(0).CacheStrategyName(); got != strategy.DefaultCaching {
		t.Fatalf("default store evicts by %q, want %q", got, strategy.DefaultCaching)
	}
	for _, want := range []string{"fifo", "lru", "lfu"} {
		if got := withPolicy(t, 0, want).CacheStrategyName(); got != want {
			t.Fatalf("installed %q, store reports %q", want, got)
		}
	}
}
