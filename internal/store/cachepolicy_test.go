package store

import (
	"slices"
	"testing"
	"time"

	"pds/internal/attr"
	"pds/internal/strategy"
)

// withPolicy returns a store with the given cache budget admitting as a
// node running the named caching does: through an opportunistic gate,
// or with none.
func withPolicy(t *testing.T, cacheCap int, policy string) *DataStore {
	t.Helper()
	if err := strategy.Check("", policy); err != nil {
		t.Fatal(err)
	}
	s := NewDataStore(cacheCap)
	if policy == "opportunistic" {
		s.Gate = strategy.NewOpportunistic(0)
	}
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

// TestPolicyString: a store asks its gate, and only its gate, what to
// admit — a new store holds none — and the gate counts what it declines.
func TestPolicyString(t *testing.T) {
	if NewDataStore(0).Gate != nil {
		t.Fatal("a new store holds an admission gate")
	}
	s, oracle := withPolicy(t, 0, "opportunistic"), strategy.NewOpportunistic(0)
	declined := uint64(0)
	for i := 0; i < 40; i++ {
		want := oracle.Admit(entry(i).Key())
		if got := s.PutPayloadCached(entry(i), []byte{1}, 0, time.Hour); got != want {
			t.Fatalf("store admitted %s: %v, its gate says %v", entry(i).Key(), got, want)
		}
		if !want {
			declined++
		}
	}
	if got := s.Gate.Counters().CacheAdmitSkips; declined == 0 || got != declined {
		t.Fatalf("gate counted %d skips, declined %d", got, declined)
	}
}

// Unpublishing a payload the node merely cached gives its bytes back to
// the budget: the cache then holds b and c side by side instead of
// evicting the live b against a budget that still counts a.
func TestUnpublishCachedSettlesBudget(t *testing.T) {
	s := NewDataStore(1000)
	a, b, c := entry(1), entry(2), entry(3)
	s.PutPayloadCached(a, make([]byte, 600), 0, time.Hour)
	s.DeleteOwned(a)
	checkIndex(t, s, 0, "unpublish of cached a")
	s.PutPayloadCached(b, make([]byte, 600), 0, time.Hour)
	if !s.PutPayloadCached(c, make([]byte, 300), 0, time.Hour) {
		t.Fatal("c refused")
	}
	if !s.HasPayload(b) {
		t.Fatal("live b evicted to admit c under a budget that fits both")
	}
	if s.cachedBytes != 900 {
		t.Fatalf("cachedBytes %d, want 900", s.cachedBytes)
	}
	checkIndex(t, s, 0, "b and c cached")
}

// A cached payload upgraded to owned — from RAM, or from the disk tier it
// was spilled to — leaves the cache's books whole: no eviction after it
// reports success having freed nothing, and an insert over the full cache
// costs exactly one live payload.
func TestUpgradeLeavesNoStaleVictim(t *testing.T) {
	for _, spilled := range []bool{false, true} {
		s := NewDataStore(8)
		if spilled {
			s.SetBackend(&memBackend{recs: map[string]memRecord{}})
		}
		a, b, c, d := entry(0), entry(1), entry(2), entry(3)
		put := func(x attr.Descriptor) { s.PutPayloadCached(x, []byte{1, 2, 3, 4}, 0, time.Hour) }
		put(a)
		put(b)
		if spilled {
			put(c) // evicts a, to the disk tier
		}
		s.PutPayloadOwned(a, []byte{5, 6, 7, 8})
		checkIndex(t, s, 0, "upgrade")
		put(c) // the cache is b and c now, and full
		if !s.evictOne() || s.cachedBytes != 4 {
			t.Fatalf("spilled=%v: evictOne left %d of 8 bytes cached", spilled, s.cachedBytes)
		}
		put(d)
		if want := []string{c.Key(), d.Key()}; !slices.Equal(s.cacheOrder, want) || s.cachedBytes != 8 {
			t.Fatalf("spilled=%v: cache holds %q in %d bytes, want %q in 8", spilled, s.cacheOrder, s.cachedBytes, want)
		}
		if p, ok := s.Payload(a); !ok || p[0] != 5 {
			t.Fatalf("spilled=%v: the owned copy did not survive", spilled)
		}
		checkIndex(t, s, 0, "insert over a full cache")
	}
}
