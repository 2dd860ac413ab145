package scenario

import (
	"testing"
	"time"

	"pds/internal/wire"
)

// TestPDR20MBStubbornSeeds retrieves the paper's largest item on the
// seeds that historically exposed hub-contention livelocks; both must
// complete. (The full 1-20MB sweep runs via `pds-bench fig11`.)
func TestPDR20MBStubbornSeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("long")
	}
	for _, seed := range []int64{1, 102} {
		d := Grid(10, 10, GridSpacing, Options{Seed: seed})
		consumer := CenterID(10, 10)
		item := ItemDescriptor("clip", 20<<20, DefaultChunkSize)
		item = d.DistributeChunks(item, DefaultChunkSize, 1, consumer)
		results, done := d.Retrieve([]wire.NodeID{consumer}, item, false, 900*time.Second)
		res := results[0]
		t.Logf("seed=%d latency=%.0fs rounds=%d overheadMB=%.1f",
			seed, res.Latency.Seconds(), res.Rounds, float64(d.Medium.Stats().TxBytes)/1e6)
		if !done || !res.Complete {
			t.Fatalf("seed %d: done=%v complete=%v chunks=%d/80", seed, done, res.Complete, len(res.Chunks))
		}
	}
}
