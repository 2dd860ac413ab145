package store

import (
	"testing"
	"time"

	"pds/internal/attr"
	"pds/internal/clock"
	"pds/internal/wire"
)

// TestZeroTablesAreEmpty: a node holds its tables by value and their maps
// come with the first write, so a zero LQT, CDITable and RecentResponses
// must answer every read, expiry and prune as empty tables do, and then
// take a first write.
func TestZeroTablesAreEmpty(t *testing.T) {
	var lqt LQT
	if lqt.Exists(1, 0) || lqt.Len() != 0 {
		t.Fatal("a zero LQT holds a query")
	}
	if lq, ok := lqt.Get(1, 0); ok || lq != nil {
		t.Fatalf("a zero LQT returned %+v", lq)
	}
	if got := lqt.AllOfKind(nil, wire.KindMetadata, 0); len(got) != 0 {
		t.Fatalf("a zero LQT listed %d queries", len(got))
	}
	if got := lqt.MatchItem(nil, wire.KindCDI, "item", 0); len(got) != 0 {
		t.Fatalf("a zero LQT matched %d queries", len(got))
	}
	if next := lqt.Expire(time.Second); next != clock.Never {
		t.Fatalf("a zero LQT expires next at %v", next)
	}
	lqt.Insert(metaQuery(1, 9, attr.NewQuery()), 10*time.Second)
	if !lqt.Exists(1, 0) || lqt.Len() != 1 {
		t.Fatal("the first insert into a zero LQT is missing")
	}

	var cdi CDITable
	if got := cdi.Lookup("item", 0, 0); len(got) != 0 {
		t.Fatalf("a zero CDITable routes %+v", got)
	}
	if got := cdi.AppendPairs(nil, "item", 0); len(got) != 0 {
		t.Fatalf("a zero CDITable has pairs %+v", got)
	}
	cdi.DropNeighbor("item", 2)
	if n := cdi.DropNeighborAll(2); n != 0 {
		t.Fatalf("a zero CDITable dropped %d entries", n)
	}
	if next := cdi.Expire(time.Second); next != clock.Never {
		t.Fatalf("a zero CDITable expires next at %v", next)
	}
	if !cdi.Update("item", CDIEntry{ChunkID: 0, HopCount: 1, Neighbor: 2, ExpireAt: time.Hour}) {
		t.Fatal("the first update of a zero CDITable changed nothing")
	}
	if got := cdi.Lookup("item", 0, 0); len(got) != 1 || got[0].Neighbor != 2 {
		t.Fatalf("after the first update a zero CDITable routes %+v", got)
	}

	var rr RecentResponses
	if next := rr.Prune(time.Second); next != clock.Never || rr.Len() != 0 {
		t.Fatalf("a zero RecentResponses prunes next at %v, holds %d", next, rr.Len())
	}
	if rr.Seen(7, 0) || rr.Len() != 1 {
		t.Fatal("the first id a zero RecentResponses sees is a duplicate, or not kept")
	}
}
