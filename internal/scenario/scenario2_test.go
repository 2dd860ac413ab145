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

// TestSingleHopReceptionShape asserts the Figure 3 ordering: raw UDP
// collapses, the leaky bucket recovers, ack/retransmission recovers
// more, and raw reception degrades with sender count.
func TestSingleHopReceptionShape(t *testing.T) {
	if testing.Short() {
		t.Skip("long")
	}
	raw4 := DefaultReception(4)
	raw4.Pace, raw4.Ack = false, false
	bucket4 := DefaultReception(4)
	bucket4.Pace = true
	ack4 := DefaultReception(4)
	ack4.Pace, ack4.Ack = true, true

	r := SingleHopReception(raw4, 3).ReceptionRate
	bkt := SingleHopReception(bucket4, 3).ReceptionRate
	ak := SingleHopReception(ack4, 3).ReceptionRate
	t.Logf("4 senders: raw=%.3f bucket=%.3f ack=%.3f", r, bkt, ak)
	if !(r < bkt && bkt < ak) {
		t.Fatalf("ordering violated: raw=%.3f bucket=%.3f ack=%.3f", r, bkt, ak)
	}
	if r > 0.3 {
		t.Fatalf("raw reception %.3f too high; buffer overflow not modeled?", r)
	}
	if ak < 0.8 {
		t.Fatalf("ack reception %.3f too low", ak)
	}

	raw1 := DefaultReception(1)
	raw1.Pace, raw1.Ack = false, false
	r1 := SingleHopReception(raw1, 3).ReceptionRate
	if r1 < r {
		t.Fatalf("raw reception should degrade with senders: 1snd=%.3f 4snd=%.3f", r1, r)
	}
}

// TestLeakyBucketSweetSpot asserts the §V-2 finding: reception is high
// below the channel rate and drops when the leaking rate exceeds it.
func TestLeakyBucketSweetSpot(t *testing.T) {
	if testing.Short() {
		t.Skip("long")
	}
	at := func(mbps float64) float64 {
		cfg := DefaultReception(1)
		cfg.Pace = true
		cfg.LeakRateBps = mbps * 1e6
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

// TestAblationsHurt asserts the headline mechanism earns its keep:
// disabling Bloom rewriting increases overhead. (The full four-variant
// comparison runs via `pds-bench ablation`; this test keeps the load
// small enough for the default go-test timeout.)
func TestAblationsHurt(t *testing.T) {
	if testing.Short() {
		t.Skip("long")
	}
	const entries = 800
	base := averagePDD(8, 8, entries, 1, Options{Seed: 3}, 1)
	c := core.DefaultConfig()
	c.BloomEnabled = false
	noBloom := averagePDD(8, 8, entries, 1, Options{Seed: 3, Core: c}, 1)
	t.Logf("baseline: recall=%.3f ovh=%dB; no-bloom: recall=%.3f ovh=%dB",
		base.Recall, base.OverheadBytes, noBloom.Recall, noBloom.OverheadBytes)
	if base.Recall < 0.99 {
		t.Fatalf("baseline recall %.3f", base.Recall)
	}
	if noBloom.OverheadBytes <= base.OverheadBytes {
		t.Fatalf("removing Bloom rewriting did not increase overhead (%d vs %d)",
			noBloom.OverheadBytes, base.OverheadBytes)
	}
}

// TestPDRBeatsMDRAtRedundancy asserts Figures 13/14's crossover: at
// redundancy 3+, PDR's overhead is lower than MDR's.
func TestPDRBeatsMDRAtRedundancy(t *testing.T) {
	if testing.Short() {
		t.Skip("long")
	}
	const sizeMB = 1
	run := func(method string) uint64 {
		d := Grid(10, 10, GridSpacing, Options{Seed: 21})
		consumer := CenterID(10, 10)
		item := ItemDescriptor("clip", sizeMB<<20, DefaultChunkSize)
		item = d.DistributeChunks(item, DefaultChunkSize, 3, consumer)
		res, done := d.Retrieve([]wire.NodeID{consumer}, item, method == "mdr", 600*time.Second)
		if !done || !res[0].Complete {
			t.Fatalf("%s failed: done=%v complete=%v", method, done, res[0].Complete)
		}
		return d.Medium.Stats().TxBytes
	}
	pdr := run("pdr")
	mdr := run("mdr")
	t.Logf("redundancy 3: PDR=%.2fMB MDR=%.2fMB", float64(pdr)/1e6, float64(mdr)/1e6)
	if pdr >= mdr {
		t.Fatalf("PDR overhead (%d) not below MDR (%d) at redundancy 3", pdr, mdr)
	}
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
