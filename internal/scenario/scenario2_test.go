package scenario

import (
	"testing"
	"time"

	"pds/internal/core"
	"pds/internal/radio"
	"pds/internal/wire"
)

func radioPos(x, y float64) radio.Pos { return radio.Pos{X: x, Y: y} }

// TestDeterminism: the same seed reproduces the experiment bit for bit;
// different seeds diverge.
func TestDeterminism(t *testing.T) {
	run := func(seed int64) (int, time.Duration, uint64) {
		d := Grid(5, 5, GridSpacing, Options{Seed: seed})
		d.DistributeEntries(300, 1)
		results, _ := d.Discover([]wire.NodeID{CenterID(5, 5)}, EntrySelector(), core.DiscoverOptions{}, 60*time.Second)
		res := results[0]
		return len(res.Entries), res.Latency, d.Medium.Stats().TxBytes
	}
	e1, l1, o1 := run(7)
	e2, l2, o2 := run(7)
	if e1 != e2 || l1 != l2 || o1 != o2 {
		t.Fatalf("same seed diverged: (%d,%v,%d) vs (%d,%v,%d)", e1, l1, o1, e2, l2, o2)
	}
	_, l3, o3 := run(8)
	if l1 == l3 && o1 == o3 {
		t.Fatal("different seeds produced identical traces (suspicious)")
	}
}

// TestSingleHopReceptionShape asserts Figure 3 from the ledger's rows:
// raw UDP collapses to ≈14 % and falls with senders, the leaky bucket
// recovers part of it and ack/retransmission more, to 85 % and above.
func TestSingleHopReceptionShape(t *testing.T) {
	requireClaims(t, "fig3/raw-udp-collapses", "fig3/modes-ordered", "fig3/ack-85pct")
}

// TestSingleHopModes asserts the order of the three link modes at every
// sender count of Figure 3, and logs the bucket's gap.
func TestSingleHopModes(t *testing.T) {
	requireClaims(t, "fig3/modes-ordered", "fig3/bucket-40-90pct")
}

// TestLeakyBucketSweetSpot asserts the §V-2 finding: reception is high
// below the channel rate and drops when the leaking rate exceeds it.
func TestLeakyBucketSweetSpot(t *testing.T) {
	if testing.Short() {
		t.Skip("long")
	}
	at := func(mbps float64) float64 {
		cfg := DefaultReception(1)
		cfg.Link.PaceEnabled = true
		cfg.Link.LeakRate = mbps * 1e6 / 8
		return SingleHopReception(cfg, 3).ReceptionRate
	}
	low, high := at(4.5), at(12)
	t.Logf("reception at 4.5Mbps=%.3f, at 12Mbps=%.3f", low, high)
	if low < 0.95 {
		t.Fatalf("reception at 4.5Mbps = %.3f, want ~1", low)
	}
	if high > low-0.05 {
		t.Fatalf("reception did not drop past the channel rate: %.3f vs %.3f", high, low)
	}
}

// TestAblationsHurt asserts that the discovery mechanisms earn their
// keep on the ablation figure's rows: the baseline finds every entry,
// and one-shot interests or no Bloom rewriting cost more.
func TestAblationsHurt(t *testing.T) {
	requireClaims(t, "ablation/baseline-recall-1", "ablation/lingering-pays", "ablation/bloom-pays")
}

// TestPDRBeatsMDRAtRedundancy asserts Figures 13/14's crossover: both
// methods complete, and from two copies on PDR's overhead is below MDR's.
func TestPDRBeatsMDRAtRedundancy(t *testing.T) {
	requireClaims(t, "fig13/recall-1", "fig13/pdr-cheaper-from-2-copies")
}

// TestNodeChurnDuringDiscovery exercises leave events mid-discovery:
// recall over surviving copies must stay high and nothing may panic.
func TestNodeChurnDuringDiscovery(t *testing.T) {
	d := Grid(6, 6, GridSpacing, Options{Seed: 31})
	d.DistributeEntries(500, 2) // two copies so leavers rarely take the only one
	consumer := CenterID(6, 6)
	// Remove three non-consumer nodes shortly after the query starts.
	for i, id := range []wire.NodeID{2, 9, 30} {
		id := id
		d.Eng.Schedule(time.Duration(i+1)*300*time.Millisecond, func() {
			d.Depart(id)
		})
	}
	results, done := d.Discover([]wire.NodeID{consumer}, EntrySelector(), core.DiscoverOptions{}, 120*time.Second)
	res := results[0]
	if !done {
		t.Fatal("discovery did not finish under churn")
	}
	recall := float64(len(res.Entries)) / 500
	t.Logf("churn recall=%.3f", recall)
	if recall < 0.9 {
		t.Fatalf("recall %.3f under churn", recall)
	}
}

// TestConsumerMovesDuringRetrieval keeps a retrieval alive while the
// consumer walks across the grid.
func TestConsumerMovesDuringRetrieval(t *testing.T) {
	if testing.Short() {
		t.Skip("long")
	}
	d := Grid(6, 6, GridSpacing, Options{Seed: 33})
	consumer := CenterID(6, 6)
	item := ItemDescriptor("clip", 1<<20, DefaultChunkSize)
	item = d.DistributeChunks(item, DefaultChunkSize, 2, consumer)
	pos, _ := d.Medium.Position(consumer)
	for i := 1; i <= 5; i++ {
		i := i
		d.Eng.Schedule(time.Duration(i)*2*time.Second, func() {
			d.Medium.SetPosition(consumer, radioPos(pos.X+float64(i)*5, pos.Y))
		})
	}
	results, done := d.Retrieve([]wire.NodeID{consumer}, item, false, 600*time.Second)
	res := results[0]
	if !done || !res.Complete {
		t.Fatalf("moving consumer: done=%v complete=%v chunks=%d", done, res.Complete, len(res.Chunks))
	}
}
