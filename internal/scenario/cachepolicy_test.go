package scenario

import (
	"testing"
	"time"

	"pds/internal/core"
	"pds/internal/wire"
)

// TestBoundedCacheRetrievalCompletes: with tiny relay caches that admit
// only half of what passes a large retrieval must still deliver every
// chunk to the consumer (whose own copy is exempt from the cache budget).
func TestBoundedCacheRetrievalCompletes(t *testing.T) {
	c := core.DefaultConfig()
	c.CacheCap = 300 << 10 // roughly one chunk
	c.Caching = "opportunistic"
	d := Grid(5, 5, GridSpacing, Options{Seed: 61, Core: c})
	consumer := CenterID(5, 5)
	item := ItemDescriptor("clip", 2<<20, DefaultChunkSize)
	item = d.DistributeChunks(item, DefaultChunkSize, 1, consumer)
	results, done := d.Retrieve([]wire.NodeID{consumer}, item, false, 300*time.Second)
	res := results[0]
	if !done || !res.Complete {
		t.Fatalf("done=%v complete=%v chunks=%d/%d", done, res.Complete, len(res.Chunks), item.TotalChunks())
	}
	if _, ok := res.Assemble(); !ok {
		t.Fatal("assemble failed")
	}
}
