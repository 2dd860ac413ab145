package scenario

import (
	"testing"
	"time"

	"pds/internal/core"
	"pds/internal/mobility"
	"pds/internal/wire"
)

// TestScalePDD runs the paper's headline PDD scenario: 10×10 grid,
// 5 000 metadata entries, one consumer at the center. Gated by -short.
func TestScalePDD(t *testing.T) {
	if testing.Short() {
		t.Skip("long")
	}
	d := Grid(10, 10, GridSpacing, Options{Seed: 42})
	d.DistributeEntries(5000, 1)
	results, done := d.Discover([]wire.NodeID{CenterID(10, 10)}, EntrySelector(), core.DiscoverOptions{}, 120*time.Second)
	res := results[0]
	if !done {
		t.Fatal("discovery did not finish")
	}
	recall := float64(len(res.Entries)) / 5000
	t.Logf("recall=%.3f latency=%v rounds=%d overheadMB=%.2f",
		recall, res.Latency, res.Rounds, float64(d.Medium.Stats().TxBytes)/1e6)
	if recall < 0.99 {
		t.Fatalf("recall %.3f < 0.99", recall)
	}
	if res.Latency > 60*time.Second {
		t.Fatalf("latency %v implausibly high", res.Latency)
	}
}

// TestScalePDR5MB retrieves a 5 MB item on the paper's grid (a 20 MB
// run is exercised by the Figure 11 bench; 5 MB keeps tests quick).
func TestScalePDR5MB(t *testing.T) {
	if testing.Short() {
		t.Skip("long")
	}
	d := Grid(10, 10, GridSpacing, Options{Seed: 43})
	consumer := CenterID(10, 10)
	item := ItemDescriptor("video", 5<<20, DefaultChunkSize)
	item = d.DistributeChunks(item, DefaultChunkSize, 1, consumer)
	results, done := d.Retrieve([]wire.NodeID{consumer}, item, false, 600*time.Second)
	res := results[0]
	if !done || !res.Complete {
		t.Fatalf("done=%v complete=%v chunks=%d/%d", done, res.Complete, len(res.Chunks), item.TotalChunks())
	}
	if _, ok := res.Assemble(); !ok {
		t.Fatal("assemble failed")
	}
	overhead := float64(d.Medium.Stats().TxBytes) / 1e6
	t.Logf("latency=%v cdi=%v rounds=%d overheadMB=%.2f", res.Latency, res.CDILatency, res.Rounds, overhead)
	// §VI-B.3: overhead is a small multiple of the item size (chunks
	// travel several hops). A blowup signals retransmission storms.
	if overhead > 8*5 {
		t.Fatalf("overhead %.1fMB > 8x item size", overhead)
	}
}

// TestScaleMDR checks the baseline completes and costs more than PDR.
func TestScaleMDR(t *testing.T) {
	if testing.Short() {
		t.Skip("long")
	}
	d := Grid(10, 10, GridSpacing, Options{Seed: 44})
	consumer := CenterID(10, 10)
	item := ItemDescriptor("video", 2<<20, DefaultChunkSize)
	item = d.DistributeChunks(item, DefaultChunkSize, 1, consumer)
	results, done := d.Retrieve([]wire.NodeID{consumer}, item, true, 600*time.Second)
	res := results[0]
	if !done || !res.Complete {
		t.Fatalf("done=%v complete=%v chunks=%d/%d", done, res.Complete, len(res.Chunks), item.TotalChunks())
	}
	t.Logf("MDR latency=%v rounds=%d overheadMB=%.2f", res.Latency, res.Rounds, float64(d.Medium.Stats().TxBytes)/1e6)
}

// TestMobilityPDD checks near-full recall under the Student Center
// trace at observed rates.
func TestMobilityPDD(t *testing.T) {
	if testing.Short() {
		t.Skip("long")
	}
	d, ids := MobileArea(mobility.StudentCenter(), 10*time.Minute, Options{Seed: 9})
	distributeOn(d, ids, 1000)
	d.Eng.Run(20 * time.Second)
	consumer := ids[len(ids)/2]
	results, done := d.Discover([]wire.NodeID{consumer}, EntrySelector(), core.DiscoverOptions{}, 120*time.Second)
	res := results[0]
	if !done {
		t.Fatal("discovery did not finish")
	}
	recall := float64(len(res.Entries)) / 1000
	t.Logf("mobility recall=%.3f latency=%v", recall, res.Latency)
	if recall < 0.9 {
		t.Fatalf("recall %.3f under mobility < 0.9", recall)
	}
}

// TestSequentialConsumersCachingEffect asserts Figure 7's qualitative
// claim: a later consumer is faster than the first.
func TestSequentialConsumersCachingEffect(t *testing.T) {
	if testing.Short() {
		t.Skip("long")
	}
	d := Grid(8, 8, GridSpacing, Options{Seed: 10})
	d.DistributeEntries(2000, 1)
	var ids []wire.NodeID
	for _, idx := range mobility.CenterSubgridIndices(8, 8, 4)[:3] {
		ids = append(ids, wire.NodeID(idx+1))
	}
	var latencies []time.Duration
	for _, c := range ids {
		results, done := d.Discover([]wire.NodeID{c}, EntrySelector(), core.DiscoverOptions{}, 120*time.Second)
		res := results[0]
		if !done {
			t.Fatal("discovery did not finish")
		}
		latencies = append(latencies, res.Latency)
		if recall := float64(len(res.Entries)) / 2000; recall < 0.95 {
			t.Fatalf("consumer recall %.3f", recall)
		}
	}
	t.Logf("sequential latencies: %v", latencies)
	if latencies[2] >= latencies[0] {
		t.Fatalf("third consumer (%v) not faster than first (%v)", latencies[2], latencies[0])
	}
}
