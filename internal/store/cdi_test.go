package store

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"pds/internal/clock"
	"pds/internal/wire"
)

func TestCDIKeepsMinimum(t *testing.T) {
	tbl := new(CDITable)
	exp := time.Hour
	if !tbl.Update("item", CDIEntry{ChunkID: 0, HopCount: 3, Neighbor: 1, ExpireAt: exp}) {
		t.Fatal("first insert not new")
	}
	if !tbl.Update("item", CDIEntry{ChunkID: 0, HopCount: 1, Neighbor: 2, ExpireAt: exp}) {
		t.Fatal("better route rejected")
	}
	if tbl.Update("item", CDIEntry{ChunkID: 0, HopCount: 5, Neighbor: 3, ExpireAt: exp}) {
		t.Fatal("worse route accepted")
	}
	got := tbl.Lookup("item", 0, 0)
	if len(got) != 1 || got[0].Neighbor != 2 || got[0].Hop != 1 {
		t.Fatalf("Lookup = %+v", got)
	}
}

func TestCDITiesAccumulate(t *testing.T) {
	tbl := new(CDITable)
	exp := time.Hour
	tbl.Update("item", CDIEntry{ChunkID: 0, HopCount: 2, Neighbor: 5, ExpireAt: exp})
	tbl.Update("item", CDIEntry{ChunkID: 0, HopCount: 2, Neighbor: 3, ExpireAt: exp})
	got := tbl.Lookup("item", 0, 0)
	if len(got) != 2 {
		t.Fatalf("ties not accumulated: %+v", got)
	}
	// Sorted by neighbor for determinism.
	if got[0].Neighbor != 3 || got[1].Neighbor != 5 {
		t.Fatalf("not sorted: %+v", got)
	}
	// Same neighbor refreshes expiry rather than duplicating.
	if !tbl.Update("item", CDIEntry{ChunkID: 0, HopCount: 2, Neighbor: 3, ExpireAt: 2 * time.Hour}) {
		t.Fatal("expiry refresh not reported as change")
	}
	if got := tbl.Lookup("item", 0, 0); len(got) != 2 {
		t.Fatalf("duplicate neighbor entry: %+v", got)
	}
}

func TestCDIExpiry(t *testing.T) {
	tbl := new(CDITable)
	tbl.Update("item", CDIEntry{ChunkID: 0, HopCount: 1, Neighbor: 1, ExpireAt: 10 * time.Second})
	if got := tbl.Lookup("item", 0, 11*time.Second); len(got) != 0 {
		t.Fatalf("expired entry returned: %+v", got)
	}
	tbl.Update("item", CDIEntry{ChunkID: 1, HopCount: 1, Neighbor: 1, ExpireAt: 20 * time.Second})
	if next := tbl.Expire(11 * time.Second); next != 20*time.Second {
		t.Fatalf("Expire: next %v, want the surviving entry's 20s", next)
	}
	if got := tbl.AppendPairs(nil, "item", 0); len(got) != 1 || got[0].ChunkID != 1 {
		t.Fatalf("AppendPairs after first expire = %v", got)
	}
	if next := tbl.Expire(20 * time.Second); next != clock.Never {
		t.Fatalf("Expire left a deadline at %v", next)
	}
	if got := tbl.AppendPairs(nil, "item", 0); len(got) != 0 {
		t.Fatalf("AppendPairs after expire = %v", got)
	}
}

func TestCDIPairs(t *testing.T) {
	tbl := new(CDITable)
	exp := time.Hour
	tbl.Update("item", CDIEntry{ChunkID: 2, HopCount: 1, Neighbor: 1, ExpireAt: exp})
	tbl.Update("item", CDIEntry{ChunkID: 0, HopCount: 3, Neighbor: 2, ExpireAt: exp})
	pairs := tbl.AppendPairs(nil, "item", 0)
	if len(pairs) != 2 || pairs[0].ChunkID != 0 || pairs[1].ChunkID != 2 {
		t.Fatalf("AppendPairs = %+v", pairs)
	}
	if pairs[0].HopCount != 3 || pairs[1].HopCount != 1 {
		t.Fatalf("hop counts wrong: %+v", pairs)
	}
}

func TestCDIDropNeighbor(t *testing.T) {
	tbl := new(CDITable)
	exp := time.Hour
	tbl.Update("item", CDIEntry{ChunkID: 0, HopCount: 1, Neighbor: 1, ExpireAt: exp})
	tbl.Update("item", CDIEntry{ChunkID: 1, HopCount: 1, Neighbor: 1, ExpireAt: exp})
	tbl.Update("item", CDIEntry{ChunkID: 1, HopCount: 1, Neighbor: 2, ExpireAt: exp})
	tbl.DropNeighbor("item", 1)
	if got := tbl.Lookup("item", 0, 0); len(got) != 0 {
		t.Fatalf("chunk 0 still routed: %+v", got)
	}
	got := tbl.Lookup("item", 1, 0)
	if len(got) != 1 || got[0].Neighbor != 2 {
		t.Fatalf("chunk 1 routes = %+v", got)
	}
}

// TestQuickCDIMinimal property-tests that Lookup always returns entries
// with the minimal hop count ever offered (among unexpired ones with no
// intervening better offer).
func TestQuickCDIMinimal(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tbl := new(CDITable)
		minHop := map[int]int{}
		for i := 0; i < 50; i++ {
			cid := rng.Intn(4)
			hop := 1 + rng.Intn(6)
			tbl.Update("it", CDIEntry{
				ChunkID:  cid,
				HopCount: hop,
				Neighbor: wire.NodeID(1 + rng.Intn(5)),
				ExpireAt: time.Hour,
			})
			if old, ok := minHop[cid]; !ok || hop < old {
				minHop[cid] = hop
			}
		}
		for cid, want := range minHop {
			got := tbl.Lookup("it", cid, 0)
			if len(got) == 0 {
				return false
			}
			for _, e := range got {
				if e.Hop != want {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
