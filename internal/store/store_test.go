package store

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"pds/internal/attr"
	"pds/internal/clock"
)

func entry(i int) attr.Descriptor {
	return attr.NewDescriptor().
		Set(attr.AttrNamespace, attr.String("env")).
		Set(attr.AttrName, attr.String(fmt.Sprintf("e%d", i)))
}

func selAll() attr.Query {
	return attr.NewQuery(attr.Eq(attr.AttrNamespace, attr.String("env")))
}

func TestOwnedEntriesNeverExpire(t *testing.T) {
	s := NewDataStore(0)
	s.PutOwned(entry(1))
	if s.Expire(time.Hour) != clock.Never {
		t.Fatal("owned entry carries a deadline")
	}
	if !s.HasEntry(entry(1), time.Hour) {
		t.Fatal("owned entry missing")
	}
}

func TestCachedEntryExpiry(t *testing.T) {
	s := NewDataStore(0)
	s.PutCached(entry(1), 10*time.Second)
	if !s.HasEntry(entry(1), 5*time.Second) {
		t.Fatal("entry missing before expiry")
	}
	if s.HasEntry(entry(1), 11*time.Second) {
		t.Fatal("entry visible after expiry")
	}
	if next := s.Expire(5 * time.Second); next != 10*time.Second {
		t.Fatalf("Expire before expiry: next %v", next)
	}
	if next := s.Expire(11 * time.Second); next != clock.Never {
		t.Fatalf("Expire left a deadline at %v", next)
	}
	// An expired-then-removed entry never resurfaces.
	if s.HasEntry(entry(1), time.Second) {
		t.Fatal("expired entry resurfaced")
	}
}

func TestPutCachedExtendsExpiry(t *testing.T) {
	s := NewDataStore(0)
	s.PutCached(entry(1), 10*time.Second)
	if s.PutCached(entry(1), 20*time.Second) {
		t.Fatal("refresh reported as new")
	}
	if !s.HasEntry(entry(1), 15*time.Second) {
		t.Fatal("expiry not extended")
	}
	// Shorter expiry never shortens.
	s.PutCached(entry(1), 5*time.Second)
	if !s.HasEntry(entry(1), 15*time.Second) {
		t.Fatal("expiry shortened by later insert")
	}
}

func TestCachedNeverDowngradesOwned(t *testing.T) {
	s := NewDataStore(0)
	s.PutOwned(entry(1))
	s.PutCached(entry(1), time.Millisecond)
	if !s.HasEntry(entry(1), time.Hour) {
		t.Fatal("owned entry downgraded by cached insert")
	}
}

func TestExpireKeepsEntriesWithPayload(t *testing.T) {
	s := NewDataStore(0)
	s.PutPayloadCached(entry(1), []byte("x"), 0, 10*time.Second)
	// §II-C: upon expiration the entry is removed only when the payload
	// is absent.
	// While the lease runs its deadline counts (the payload may yet be
	// evicted); once lapsed the entry is no longer Expire's to remove and
	// must not keep a sweep armed.
	if next := s.Expire(5 * time.Second); next != 10*time.Second {
		t.Fatalf("Expire during lease: next %v", next)
	}
	if next := s.Expire(time.Hour); next != clock.Never {
		t.Fatalf("lapsed payload-bearing entry still reports a deadline %v", next)
	}
	if !s.HasPayload(entry(1)) || !s.HasEntry(entry(1), 0) {
		t.Fatal("entry with payload removed")
	}
}

func TestMatchDeterministicOrder(t *testing.T) {
	s := NewDataStore(0)
	for i := 9; i >= 0; i-- {
		s.PutOwned(entry(i))
	}
	got := s.Match(selAll(), 0)
	if len(got) != 10 {
		t.Fatalf("matched %d", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i-1].Key() >= got[i].Key() {
			t.Fatal("Match output not key-sorted")
		}
	}
}

func TestPayloadOwnership(t *testing.T) {
	s := NewDataStore(0)
	d := entry(1)
	s.PutPayloadOwned(d, []byte("mine"))
	if !s.PutPayloadCached(d, []byte("theirs"), 0, time.Hour) {
		// Cached insert over owned must be refused.
	} else {
		t.Fatal("cached payload replaced owned")
	}
	p, _ := s.Payload(d)
	if string(p) != "mine" {
		t.Fatalf("payload = %q", p)
	}
	s.DeleteOwned(d)
	if s.HasPayload(d) || s.HasEntry(d, 0) {
		t.Fatal("DeleteOwned left state behind")
	}
}

func TestCacheEviction(t *testing.T) {
	s := NewDataStore(10) // tiny cache: 10 bytes
	a, b, c := entry(1), entry(2), entry(3)
	if !s.PutPayloadCached(a, []byte("aaaaa"), 0, time.Hour) {
		t.Fatal("first insert refused")
	}
	if !s.PutPayloadCached(b, []byte("bbbbb"), 0, time.Hour) {
		t.Fatal("second insert refused")
	}
	// Third insert evicts the oldest (FIFO).
	if !s.PutPayloadCached(c, []byte("ccccc"), 0, time.Hour) {
		t.Fatal("third insert refused")
	}
	if s.HasPayload(a) {
		t.Fatal("oldest cached payload not evicted")
	}
	if !s.HasPayload(b) || !s.HasPayload(c) {
		t.Fatal("newer payloads evicted")
	}
	// Payloads larger than the cache are refused outright.
	if s.PutPayloadCached(entry(4), make([]byte, 100), 0, time.Hour) {
		t.Fatal("oversized payload cached")
	}
	// Owned payloads are never evicted and do not count.
	s2 := NewDataStore(10)
	s2.PutPayloadOwned(a, []byte("ownedownedowned"))
	if !s2.PutPayloadCached(b, []byte("bbbbb"), 0, time.Hour) {
		t.Fatal("cached insert refused despite owned-only usage")
	}
	if !s2.HasPayload(a) {
		t.Fatal("owned payload evicted")
	}
}

func TestChunkIndex(t *testing.T) {
	s := NewDataStore(0)
	item := entry(1).Set(attr.AttrTotalChunks, attr.Int(3))
	itemKey := item.Key()
	for c := 0; c < 3; c++ {
		s.PutPayloadOwned(item.WithChunk(c), []byte{byte(c)})
	}
	held := s.ChunksHeld(itemKey)
	if len(held) != 3 || held[0] != 0 || held[2] != 2 {
		t.Fatalf("ChunksHeld = %v", held)
	}
	p, ok := s.ChunkPayload(itemKey, 1)
	if !ok || p[0] != 1 {
		t.Fatalf("ChunkPayload = %v %v", p, ok)
	}
	s.DeleteOwned(item.WithChunk(1))
	if got := s.ChunksHeld(itemKey); len(got) != 2 {
		t.Fatalf("after delete ChunksHeld = %v", got)
	}
	if _, ok := s.ChunkPayload(itemKey, 1); ok {
		t.Fatal("deleted chunk still indexed")
	}
}

func TestChunkIndexEviction(t *testing.T) {
	s := NewDataStore(4)
	item := entry(1).Set(attr.AttrTotalChunks, attr.Int(2))
	s.PutPayloadCached(item.WithChunk(0), []byte("aaaa"), 0, time.Hour)
	s.PutPayloadCached(item.WithChunk(1), []byte("bbbb"), 0, time.Hour) // evicts chunk 0
	held := s.ChunksHeld(item.Key())
	if len(held) != 1 || held[0] != 1 {
		t.Fatalf("ChunksHeld after eviction = %v", held)
	}
}

// TestPutOwnedOverCachedPayloadIsDurable: an entry published over a
// cached payload, in RAM or spilled, survives a power cycle on a
// volatile backend with its bytes; without a backend the payload stays
// cached.
func TestPutOwnedOverCachedPayloadIsDurable(t *testing.T) {
	d := entry(1)
	for _, spilled := range []bool{false, true} {
		s := NewDataStore(4)
		s.SetBackend(&memBackend{recs: map[string]memRecord{}})
		s.PutPayloadCached(d, []byte("aaaa"), 0, time.Hour)
		if spilled {
			s.PutPayloadCached(entry(2), []byte("bbbb"), 0, time.Hour) // evicts d to the backend
		}
		s.PutOwned(d)
		s.PowerOff()
		s.Recover(0, time.Hour)
		if !s.HasEntry(d, 2*time.Hour) {
			t.Fatalf("spilled %v: the owned entry did not survive a power cycle", spilled)
		}
		if p, ok := s.Payload(d); !ok || string(p) != "aaaa" {
			t.Fatalf("spilled %v: payload after the power cycle = %q, %v", spilled, p, ok)
		}
		checkIndex(t, s, 2*time.Hour, fmt.Sprintf("spilled %v", spilled))
	}
	s := NewDataStore(0)
	s.PutPayloadCached(d, []byte("aaaa"), 0, time.Hour)
	s.PutOwned(d)
	if s.cachedBytes != 4 || !s.HasEntry(d, 2*time.Hour) {
		t.Fatalf("without a backend: cached bytes %d, owned entry held %v", s.cachedBytes, s.HasEntry(d, 2*time.Hour))
	}
}

func TestMatchPayloads(t *testing.T) {
	s := NewDataStore(0)
	s.PutOwned(entry(1)) // entry only, no payload
	s.PutPayloadOwned(entry(2), []byte("x"))
	got := s.MatchPayloads(selAll(), 0)
	if len(got) != 1 || !got[0].Equal(entry(2)) {
		t.Fatalf("MatchPayloads = %v", got)
	}
}

// TestQuickExpiryMonotone property-tests: once an entry is gone at time
// t, it is gone at every t' > t (absent re-insertion).
func TestQuickExpiryMonotone(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := NewDataStore(0)
		n := 1 + rng.Intn(20)
		exp := make([]time.Duration, n)
		for i := 0; i < n; i++ {
			exp[i] = time.Duration(rng.Intn(100)) * time.Second
			s.PutCached(entry(i), exp[i])
		}
		for probe := 0; probe < 20; probe++ {
			at := time.Duration(rng.Intn(120)) * time.Second
			for i := 0; i < n; i++ {
				if s.HasEntry(entry(i), at) != (exp[i] > at) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
