package scenario

import (
	"testing"
	"time"

	"pds/internal/core"
	"pds/internal/wire"
)

// TestPDDSmallGrid runs one consumer discovery on a 5x5 grid with 200
// entries and expects near-total recall within the deadline.
func TestPDDSmallGrid(t *testing.T) {
	d := Grid(5, 5, GridSpacing, Options{Seed: 1})
	d.DistributeEntries(200, 1)
	consumer := CenterID(5, 5)
	results, done := d.Discover([]wire.NodeID{consumer}, EntrySelector(), core.DiscoverOptions{}, 60*time.Second)
	res := results[0]
	if !done {
		t.Fatalf("discovery did not complete; entries=%d", len(res.Entries))
	}
	recall := float64(len(res.Entries)) / 200
	t.Logf("recall=%.3f latency=%v rounds=%d overhead=%d", recall, res.Latency, res.Rounds, d.Medium.Stats().TxBytes)
	if recall < 0.95 {
		t.Fatalf("recall %.3f < 0.95", recall)
	}
}

// TestPDRSmallGrid retrieves a 1MB item on a 5x5 grid.
func TestPDRSmallGrid(t *testing.T) {
	d := Grid(5, 5, GridSpacing, Options{Seed: 2})
	consumer := CenterID(5, 5)
	item := ItemDescriptor("clip", 1<<20, DefaultChunkSize)
	item = d.DistributeChunks(item, DefaultChunkSize, 1, consumer)
	results, done := d.Retrieve([]wire.NodeID{consumer}, item, false, 120*time.Second)
	res := results[0]
	if !done {
		t.Fatalf("retrieval did not complete; chunks=%d/%d", len(res.Chunks), item.TotalChunks())
	}
	if !res.Complete {
		t.Fatalf("incomplete: %d/%d chunks", len(res.Chunks), item.TotalChunks())
	}
	if _, ok := res.Assemble(); !ok {
		t.Fatal("assemble failed")
	}
	t.Logf("latency=%v cdi=%v rounds=%d overhead=%d", res.Latency, res.CDILatency, res.Rounds, d.Medium.Stats().TxBytes)
}
