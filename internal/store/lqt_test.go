package store

import (
	"slices"
	"testing"
	"time"

	"pds/internal/attr"
	"pds/internal/bloom"
	"pds/internal/clock"
	"pds/internal/trace"
	"pds/internal/wire"
)

func metaQuery(id uint64, sender wire.NodeID, sel attr.Query) *wire.Query {
	return &wire.Query{ID: id, Kind: wire.KindMetadata, Sender: sender, Sel: sel}
}

func TestLQTInsertExistsExpire(t *testing.T) {
	lqt := new(LQT)
	q := metaQuery(1, 9, attr.NewQuery())
	lqt.Insert(q, 10*time.Second)
	if !lqt.Exists(1, 5*time.Second) {
		t.Fatal("fresh query missing")
	}
	if lqt.Exists(1, 10*time.Second) {
		t.Fatal("expired query reported present")
	}
	if lqt.Exists(2, 0) {
		t.Fatal("unknown id reported present")
	}
	if next := lqt.Expire(5 * time.Second); next != 10*time.Second || lqt.Len() != 1 {
		t.Fatalf("Expire before expiry: next %v, Len %d", next, lqt.Len())
	}
	if next := lqt.Expire(11 * time.Second); next != clock.Never {
		t.Fatalf("Expire left a deadline at %v", next)
	}
	if lqt.Len() != 0 {
		t.Fatalf("Len = %d", lqt.Len())
	}
}

func TestLQTGetAndRemove(t *testing.T) {
	lqt := new(LQT)
	q := metaQuery(1, 9, attr.NewQuery())
	lqt.Insert(q, 10*time.Second)
	lq, ok := lqt.Get(1, 0)
	if !ok || lq.Query.Sender != 9 {
		t.Fatalf("Get = %+v %v", lq, ok)
	}
	if _, ok := lqt.Get(1, 11*time.Second); ok {
		t.Fatal("Get returned expired query")
	}
	lqt.Expire(11 * time.Second)
	if _, ok := lqt.Get(1, 0); ok {
		t.Fatal("Get after the query expired out of the table")
	}
}

func TestLQTOfferFilters(t *testing.T) {
	lqt := new(LQT)
	selA := attr.NewQuery(attr.Eq("ns", attr.String("a")))
	selB := attr.NewQuery(attr.Eq("ns", attr.String("b")))
	lqA := lqt.Insert(metaQuery(1, 10, selA), time.Minute)
	lqB := lqt.Insert(metaQuery(2, 11, selB), time.Minute)
	lqt.Insert(&wire.Query{ID: 3, Kind: wire.KindData, Sender: 12, Sel: selA}, time.Minute)

	dA := attr.NewDescriptor().Set("ns", attr.String("a"))
	if v := lqB.Offer(dA, dA.Key()); v != Unmatched {
		t.Fatalf("selector mismatch: verdict %d", v)
	}
	if v := lqA.Offer(dA, dA.Key()); v != Fresh {
		t.Fatalf("first offer: verdict %d", v)
	}
	// The exact forwarded set answers before the (absent) Bloom filter.
	if v := lqA.Offer(dA, dA.Key()); v != AlreadySent {
		t.Fatalf("second offer: verdict %d", v)
	}
	// Kind filter: the data query with the same selector is a route
	// only on its own plane.
	if got := lqt.AllOfKind(nil, wire.KindData, 0); len(got) != 1 || got[0].Query.ID != 3 {
		t.Fatalf("kind filtering broken: %d", len(got))
	}
}

func TestLQTOfferBloomPruning(t *testing.T) {
	lqt := new(LQT)
	d := attr.NewDescriptor().Set("ns", attr.String("a"))
	f := bloom.NewForCapacity(16, 0.01, 1)
	f.Add(d.Key())
	q := metaQuery(1, 10, attr.NewQuery())
	q.Bloom = f
	lq := lqt.Insert(q, time.Minute)
	if v := lq.Offer(d, d.Key()); v != Suppressed || lq.Bloom != f {
		t.Fatalf("entry in bloom: verdict %d; the filter is shared until something is forwarded: %v", v, lq.Bloom == f)
	}
	other := attr.NewDescriptor().Set("ns", attr.String("b"))
	if v := lq.Offer(other, other.Key()); v != Fresh {
		t.Fatalf("entry outside bloom: verdict %d", v)
	}
	// Rewriting lands in a private clone the first Fresh makes, never in
	// the filter of the shared, frozen query.
	if lq.Bloom == f || !lq.Bloom.Contains(other.Key()) || !lq.Bloom.Contains(d.Key()) || f.Contains(other.Key()) {
		t.Fatal("Fresh verdict must rewrite the private filter only")
	}
}

func TestLQTMatchItem(t *testing.T) {
	lqt := new(LQT)
	item := attr.NewDescriptor().Set("name", attr.String("v"))
	q := &wire.Query{ID: 1, Kind: wire.KindCDI, Sender: 5, Item: item}
	lqt.Insert(q, time.Minute)
	if got := lqt.MatchItem(nil, wire.KindCDI, item.Key(), 0); len(got) != 1 {
		t.Fatalf("MatchItem = %d", len(got))
	}
	if got := lqt.MatchItem(nil, wire.KindChunk, item.Key(), 0); len(got) != 0 {
		t.Fatal("kind not filtered")
	}
	if got := lqt.MatchItem(nil, wire.KindCDI, "other", 0); len(got) != 0 {
		t.Fatal("item key not filtered")
	}
}

func TestLQTAllOfKindSorted(t *testing.T) {
	lqt := new(LQT)
	for _, id := range []uint64{5, 2, 9} {
		lqt.Insert(metaQuery(id, 1, attr.NewQuery()), time.Minute)
	}
	lqt.Insert(metaQuery(7, 1, attr.NewQuery()), -time.Second) // expired
	got := lqt.AllOfKind(nil, wire.KindMetadata, 0)
	if len(got) != 3 {
		t.Fatalf("AllOfKind = %d", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i-1].Query.ID >= got[i].Query.ID {
			t.Fatal("not sorted by id")
		}
	}
}

func TestRecentResponses(t *testing.T) {
	rr := NewRecentResponses(10 * time.Second)
	if rr.Seen(1, 0) {
		t.Fatal("first sighting reported seen")
	}
	if !rr.Seen(1, 5*time.Second) {
		t.Fatal("second sighting within retention not seen")
	}
	// Beyond retention the id counts as fresh again.
	if rr.Seen(1, 20*time.Second) {
		t.Fatal("sighting after retention reported seen")
	}
	rr.Seen(2, 21*time.Second)
	if next := rr.Prune(30 * time.Second); next != 31*time.Second || rr.Len() != 1 {
		t.Fatalf("Prune at 30s: next %v, Len %d; want id 2 to age out at 31s", next, rr.Len())
	}
	if next := rr.Prune(40 * time.Second); next != clock.Never || rr.Len() != 0 {
		t.Fatalf("Prune at 40s: next %v, Len %d", next, rr.Len())
	}
}

// TestLQTInsertClonesChunkWanted pins the frozen-message fix for the
// chunk relay plane: the wanted set the relay consumes is the LQT's
// private clone, so draining it never writes through to the delivered
// query's ChunkIDs (DESIGN.md §8; enforced by the frozenmsg analyzer).
func TestLQTInsertClonesChunkWanted(t *testing.T) {
	lqt := new(LQT)
	q := &wire.Query{ID: 7, Kind: wire.KindChunk, Sender: 3, ChunkIDs: []int{0, 1, 2}}
	lq := lqt.Insert(q, time.Minute)
	if !slices.Equal(lq.Wanted, []int{0, 1, 2}) {
		t.Fatalf("Wanted = %v, want a clone of ChunkIDs", lq.Wanted)
	}
	// Consume a chunk and scribble on the remainder, as the relay does.
	lq.Wanted = append(lq.Wanted[:1], lq.Wanted[2:]...)
	lq.Wanted[0] = 99
	if !slices.Equal(q.ChunkIDs, []int{0, 1, 2}) {
		t.Fatalf("delivered query's ChunkIDs mutated to %v; it must stay frozen", q.ChunkIDs)
	}
}

// TestLQTExpireEmitsSortedIDs pins the determinism fix in Expire: the
// LQTExpire trace events must come out in query-id order, not map
// iteration order, so same-seed trace exports stay byte-identical.
func TestLQTExpireEmitsSortedIDs(t *testing.T) {
	tr := trace.New(func() time.Duration { return 0 }, 64)
	lqt := new(LQT)
	lqt.SetTracer(tr.ForNode(1))
	ids := []uint64{9, 3, 7, 1, 5, 8, 2, 6, 4, 12, 10, 11}
	for _, id := range ids {
		lqt.Insert(&wire.Query{ID: id, Kind: wire.KindMetadata}, time.Second)
	}
	lqt.Expire(2 * time.Second)
	if lqt.Len() != 0 {
		t.Fatalf("Len after Expire = %d", lqt.Len())
	}
	var got []uint64
	for _, e := range tr.Events() {
		if e.Kind == trace.LQTExpire {
			got = append(got, e.Msg)
		}
	}
	if len(got) != len(ids) {
		t.Fatalf("LQTExpire events = %d, want %d", len(got), len(ids))
	}
	if !slices.IsSorted(got) {
		t.Fatalf("LQTExpire ids not sorted: %v", got)
	}
}
