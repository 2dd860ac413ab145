package scenario

import (
	"testing"
	"time"

	"pds/internal/core"
	"pds/internal/wire"
)

// TestCachePolicyAblationRuns smoke-tests the §VII cache-policy
// comparison: every policy must still complete the retrievals, and the
// series must be well-formed.
func TestCachePolicyAblationRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("long")
	}
	series := CachePolicyAblation(1, 51, 1) // 1MB items keep this quick
	if len(series) != 3 {
		t.Fatalf("series = %d, want 3 policies", len(series))
	}
	for _, s := range series {
		if len(s.Points) != 1 {
			t.Fatalf("%s has %d points", s.Name, len(s.Points))
		}
		if s.Points[0].Sample.Recall < 0.99 {
			t.Fatalf("%s recall %.3f", s.Name, s.Points[0].Sample.Recall)
		}
	}
}

// TestBoundedCacheRetrievalCompletes: with tiny relay caches a large
// retrieval must still deliver every chunk to the consumer (whose own
// copy is exempt from the cache budget).
func TestBoundedCacheRetrievalCompletes(t *testing.T) {
	c := core.DefaultConfig()
	c.CacheCap = 300 << 10 // roughly one chunk
	c.Caching = "lru"
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
