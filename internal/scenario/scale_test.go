package scenario

import (
	"math"
	"runtime"
	"testing"
	"time"

	"pds/internal/core"
	"pds/internal/mobility"
	"pds/internal/radio"
	"pds/internal/wire"
)

// addPeers attaches n peers to d, ids from first on, 100 to a row at
// twice the grid spacing.
func addPeers(d *Deployment, first wire.NodeID, n int) {
	for id := first; id < first+wire.NodeID(n); id++ {
		d.AddPeer(id, radio.Pos{X: float64(id%100) * 2 * GridSpacing, Y: float64(id/100) * 2 * GridSpacing})
	}
}

// TestIdlePeerCost: an attached peer that has heard nothing costs what
// it holds — its tables, maps and timers come with their first use — so
// adding 1 000 peers to a deployment of 100 costs at most 12 objects and
// 2 100 bytes a peer.
func TestIdlePeerCost(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	// MemStats are the process's: another goroutine can add to a reading,
	// never take from it, so the least of three is the closest.
	objects, bytes := math.Inf(1), math.Inf(1)
	for range 3 {
		d := New(Options{Seed: 1})
		addPeers(d, 1, 100)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		addPeers(d, 101, 1000)
		runtime.ReadMemStats(&after)
		objects = min(objects, float64(after.Mallocs-before.Mallocs)/1000)
		bytes = min(bytes, float64(after.TotalAlloc-before.TotalAlloc)/1000)
	}
	t.Logf("%.2f objects, %.0f B a peer", objects, bytes)
	if objects > 12 || bytes > 2100 {
		t.Fatalf("a peer costs %.2f objects and %.0f B, want <= 12 and <= 2100", objects, bytes)
	}
}

// BenchmarkAddPeer attaches 1 000 peers an op to a deployment that holds
// 100 already.
func BenchmarkAddPeer(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		d := New(Options{Seed: 1})
		addPeers(d, 1, 100)
		b.StartTimer()
		addPeers(d, 101, 1000)
	}
}

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

// TestScaleMDR checks that the MDR baseline retrieves a 2 MB item held
// at one copy to completion. It asserts no cost: at one copy MDR is the
// cheaper method, in the paper and in the ledger's
// fig13/one-copy-mdr-ahead claim.
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

// TestSequentialConsumersCachingEffect asserts Figure 7's caching
// effect: every consumer discovers everything, and later ones are faster
// than the first.
func TestSequentialConsumersCachingEffect(t *testing.T) {
	requireClaims(t, "fig7/recall-1", "fig7/later-consumers-faster")
}
