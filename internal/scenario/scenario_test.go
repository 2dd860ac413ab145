package scenario

import (
	"math/rand"
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

// TestSilentDeploymentExecutesNoEvents: a thousand attached nodes that
// say nothing and hold no soft state cost the engine nothing, however
// long they sit there — no layer keeps a periodic timer.
func TestSilentDeploymentExecutesNoEvents(t *testing.T) {
	d := Grid(25, 40, GridSpacing, Options{Seed: 1})
	d.DistributeEntries(500, 1) // owned data is not soft state
	d.Eng.Run(10 * time.Minute)
	if d.Eng.Processed() != 0 || d.Eng.Pending() != 0 {
		t.Fatalf("%d silent nodes ran %d events in 10 simulated minutes and hold %d timers",
			len(d.Peers), d.Eng.Processed(), d.Eng.Pending())
	}
}

// TestLazySourceIsTheEagerStream: deferring a peer's generator to its
// first draw changes no draw, whichever way the stream is consumed.
func TestLazySourceIsTheEagerStream(t *testing.T) {
	for _, seed := range []int64{0, 1, -7, 0x5851f42d4c957f2d} {
		eager, lazy := rand.New(rand.NewSource(seed)), rand.New(&lazySource{seed: seed})
		for i := 0; i < 1000; i++ {
			if eager.Uint64() != lazy.Uint64() || eager.Int63n(1e9) != lazy.Int63n(1e9) ||
				eager.Intn(97) != lazy.Intn(97) || eager.Float64() != lazy.Float64() {
				t.Fatalf("seed %d: streams diverge at draw %d", seed, i)
			}
		}
	}
}
