package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"pds/internal/attr"
	"pds/internal/clock"
	"pds/internal/sim"
	"pds/internal/trace"
	"pds/internal/wire"
)

// scheduleHousekeeping is the unconditional 1 Hz poll that arm/sweep
// replaced, kept as the reference model: every node, every second, state
// or no state. A node driven by it has its own sweep disabled (newSoftNode).
func (n *Node) scheduleHousekeeping() {
	if n.stopped || n.crashed {
		return
	}
	epoch := n.epoch
	n.clk.Schedule(time.Second, func() {
		if n.stopped || n.crashed || n.epoch != epoch {
			return
		}
		now := n.clk.Now()
		n.ds.Expire(now)
		n.cdi.Expire(now)
		n.lqt.Expire(now)
		n.rr.Prune(now)
		n.routing.Tick(now)
		n.scheduleHousekeeping()
	})
}

// softNode is one node of the equivalence test with what it emitted.
type softNode struct {
	n     *Node
	tr    *trace.Tracer
	sends int
}

func newSoftNode(eng *sim.Engine, cfg Config, poll bool) *softNode {
	s := &softNode{tr: trace.New(eng.Now, 1<<16)}
	s.n = NewNode(1, eng, rand.New(rand.NewSource(7)), func(*wire.Message) { s.sends++ }, cfg)
	s.n.SetTracer(s.tr.ForNode(1))
	if poll {
		if s.n.sweepTimer != nil { // armed already by a strategy's first TickAt
			s.n.sweepTimer.Stop() // the poll below does the work instead
		}
		s.n.sweepTimer = clock.NewTimer(eng, func() {})
		s.n.scheduleHousekeeping()
	}
	return s
}

func (s *softNode) restart(poll bool) {
	s.n.Restart()
	if poll {
		s.n.scheduleHousekeeping()
	}
}

// snapshot is everything observable about the node's soft state,
// expired-but-unremoved entries included: the store and CDI readers
// filter on expiry, so they are asked with now = -1, before any expiry.
func (s *softNode) snapshot() string {
	n := s.n
	rows := 0
	for _, item := range []attr.Descriptor{softItem(0), softItem(1)} {
		for c := 0; c < 4; c++ {
			rows += len(n.cdi.Lookup(item.Key(), c, -1))
		}
	}
	return fmt.Sprintf("entries=%d payloads=%d cdi=%d lqt=%d rr=%d sends=%d stats=%+v strategy=%+v",
		len(n.ds.Match(attr.NewQuery(), -1)), len(n.ds.MatchPayloads(attr.NewQuery(), -1)),
		rows, n.LQTLen(), n.rr.Len(), s.sends, n.Stats(), n.StrategyCounters())
}

func softItem(i int) attr.Descriptor {
	return testEntry(100+i).Set(attr.AttrTotalChunks, attr.Int(4))
}

// softOp builds one random input for a node: a call the driver makes on
// both nodes with the same (frozen, shareable) message.
func softOp(rng *rand.Rand) func(*Node) {
	sender := wire.NodeID(2 + rng.Intn(3))
	ttl := time.Duration(1+rng.Intn(4)) * time.Second
	item := softItem(rng.Intn(2))
	chunk := rng.Intn(4)
	id := uint64(1 + rng.Intn(40)) // small id space: repeats refresh
	var entries []attr.Descriptor
	for i := rng.Intn(4); i >= 0; i-- {
		entries = append(entries, testEntry(rng.Intn(12)))
	}
	payload := make([]byte, 600)
	msg := func(m wire.Message) func(*Node) {
		return func(n *Node) { n.HandleMessage(&m) }
	}
	switch rng.Intn(10) {
	case 0:
		return msg(wire.Message{Type: wire.TypeQuery, Query: &wire.Query{
			ID: 1000 + id, Kind: wire.KindMetadata, TTL: ttl, Sender: sender, Origin: 9, Sel: testSel()}})
	case 1:
		return msg(wire.Message{Type: wire.TypeQuery, Query: &wire.Query{
			ID: 2000 + id, Kind: wire.KindCDI, TTL: ttl, Sender: sender, Origin: 9, Item: item}})
	case 2:
		return msg(wire.Message{Type: wire.TypeQuery, Query: &wire.Query{
			ID: 3000 + id, Kind: wire.KindChunk, TTL: ttl, Sender: sender, Origin: 9,
			Receivers: []wire.NodeID{1}, Item: item, ChunkIDs: []int{chunk, (chunk + 1) % 4}}})
	case 3, 4:
		return msg(wire.Message{Type: wire.TypeResponse, Response: &wire.Response{
			ID: 4000 + id, Kind: wire.KindMetadata, Sender: sender, Receivers: []wire.NodeID{1},
			Serves: []wire.Serve{{Node: 1, QueryID: 1000 + id}}, Entries: entries}})
	case 5, 6:
		return msg(wire.Message{Type: wire.TypeResponse, Response: &wire.Response{
			ID: 5000 + id, Kind: wire.KindCDI, Sender: sender, Receivers: []wire.NodeID{1}, Item: item,
			CDI: []wire.CDIPair{{ChunkID: chunk, HopCount: rng.Intn(3)}, {ChunkID: (chunk + 2) % 4, HopCount: 1}}}})
	case 7:
		return msg(wire.Message{Type: wire.TypeResponse, Response: &wire.Response{
			ID: 6000 + id, Kind: wire.KindChunk, Sender: sender, Receivers: []wire.NodeID{1}, Item: item,
			Blobs: []wire.Blob{{Desc: item.WithChunk(chunk), Payload: payload}}}})
	case 8:
		return func(n *Node) { n.InjectChunk(item, chunk, payload) }
	default:
		if rng.Intn(2) == 0 {
			return func(n *Node) { n.Discover(testSel(), DiscoverOptions{MaxRounds: 2}, func(DiscoveryResult) {}) }
		}
		return func(n *Node) { n.Retrieve(item, func(RetrievalResult) {}) }
	}
}

// softConfig shortens every TTL so the tables turn over many times in a
// minute, and caps the payload cache at two of softOp's chunks.
func softConfig(routing string) Config {
	cfg := DefaultConfig()
	cfg.Routing = routing
	cfg.QueryTTL, cfg.EntryTTL, cfg.CDITTL = 4*time.Second, 7*time.Second, 5*time.Second
	cfg.RecentRespRetention, cfg.ChunkRetry = 3*time.Second, 3*time.Second
	cfg.CacheCap = 1500
	cfg.RetrievalDeadline = 6 * time.Second
	return cfg
}

// comparePolled runs a node and the reference model — the same node under
// the old 1 Hz poll — through one schedule and requires them to be
// indistinguishable every 10 ms until `until`: table sizes (counting what
// has expired but not been removed), Stats, strategy counters, what was
// sent, and at the end the whole trace, LQTExpire instants included.
// plan schedules inputs for both nodes (both) or for each its own way
// (each, told whether it is the polled one). It returns the trace.
func comparePolled(t *testing.T, cfg Config, seed int64, birth, until time.Duration,
	plan func(both func(at time.Duration, op func(*Node)), each func(at time.Duration, op func(s *softNode, poll bool)))) []trace.Event {
	t.Helper()
	const step = 10 * time.Millisecond
	eng := sim.NewEngine(seed)
	var sweep, poll *softNode
	eng.Schedule(birth, func() {
		sweep, poll = newSoftNode(eng, cfg, false), newSoftNode(eng, cfg, true)
	})
	each := func(at time.Duration, op func(*softNode, bool)) {
		eng.Schedule(at, func() { op(sweep, false); op(poll, true) })
	}
	plan(func(at time.Duration, op func(*Node)) {
		each(at, func(s *softNode, _ bool) { op(s.n) })
	}, each)
	for now := birth / step * step; now <= until; now += step {
		eng.Run(now)
		if a, b := sweep.snapshot(), poll.snapshot(); a != b {
			t.Fatalf("at %v (birth %v)\nsweep: %s\npoll:  %s", now, birth, a, b)
		}
	}
	a, b := sweep.tr.Events(), poll.tr.Events()
	for i := range a {
		a[i].Seq = 0 // one tracer each: sequence numbers are not comparable
	}
	for i := range b {
		b[i].Seq = 0
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("traces differ: %d vs %d events", len(a), len(b))
	}
	return a
}

// TestSweepMatchesPerSecondPoll: seeded random schedules of inserts,
// refreshes, cache evictions, crash/restart and stop, born off the whole
// seconds so the grid is the node's own. Half the seeds run a sparse
// schedule, where no deadline rides on a sweep armed for another.
func TestSweepMatchesPerSecondPoll(t *testing.T) {
	const span = 70 * time.Second
	for _, routing := range []string{"cdi", "bfr"} {
		for seed := int64(1); seed <= 6; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", routing, seed), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				birth := time.Duration(1+rng.Intn(99)) * 10 * time.Millisecond
				ops := 400 // a sweep most seconds
				if seed > 3 {
					ops = 12 // sweeps are rare
				}
				events := comparePolled(t, softConfig(routing), seed, birth, span+10*time.Second, func(both func(time.Duration, func(*Node)), each func(time.Duration, func(*softNode, bool))) {
					if routing == "bfr" {
						both(birth, func(n *Node) { n.PublishChunk(softItem(0), 0, []byte("x")) })
					}
					for i := 0; i < ops; i++ {
						at := birth + time.Duration(rng.Int63n(int64(span-birth)))
						switch rng.Intn(5) {
						case 0:
							at = birth + (at-birth)/time.Second*time.Second // on the node's grid
						case 1:
							at = at / time.Second * time.Second // on the whole second
						}
						both(max(at, birth), softOp(rng))
					}
					crashAt := birth + time.Duration(1000+rng.Intn(2000))*10*time.Millisecond
					both(crashAt, func(n *Node) { n.Crash() })
					each(crashAt+time.Duration(1+rng.Intn(500))*10*time.Millisecond, (*softNode).restart)
					if seed%2 == 0 {
						both(55*time.Second, func(n *Node) { n.Stop() })
					}
				})
				expired := 0
				for _, e := range events {
					if e.Kind == trace.LQTExpire {
						expired++
					}
				}
				if expired == 0 && ops > 100 {
					t.Fatal("schedule expired no lingering query; the test compared nothing")
				}
			})
		}
	}
}

// TestSweepReclaimsEntryOfEvictedPayload: an entry whose cached payload
// is evicted is left to expire on its own lease, which may be earlier
// than anything the node has been told about since — here a sweep in
// between has already recomputed the deadlines, and the injected chunk
// that evicts it expires later.
func TestSweepReclaimsEntryOfEvictedPayload(t *testing.T) {
	item, payload := softItem(0), make([]byte, 600)
	for _, withSweepBetween := range []bool{false, true} {
		comparePolled(t, softConfig(""), 1, 370*time.Millisecond, 20*time.Second, func(both func(time.Duration, func(*Node)), _ func(time.Duration, func(*softNode, bool))) {
			both(1000*time.Millisecond, func(n *Node) { n.InjectChunk(item, 0, payload) })
			both(1200*time.Millisecond, func(n *Node) { n.InjectChunk(item, 1, payload) })
			if withSweepBetween {
				both(1300*time.Millisecond, func(n *Node) {
					n.HandleMessage(&wire.Message{Type: wire.TypeQuery, Query: &wire.Query{
						ID: 5, Kind: wire.KindMetadata, TTL: time.Second, Sender: 2, Origin: 2, Sel: testSel()}})
				})
			}
			both(3500*time.Millisecond, func(n *Node) { n.InjectChunk(item, 2, payload) }) // evicts chunk 0
		})
	}
}

// TestNodeHoldsATimerOnlyWhileItHoldsState: a silent node schedules
// nothing; one that took in soft state holds exactly one timer, lets go
// of it after its last deadline, and loses it at once on Stop and Crash.
func TestNodeHoldsATimerOnlyWhileItHoldsState(t *testing.T) {
	clk := sim.NewEngine(1) // the node is its only user: what is pending is the node's
	cfg := DefaultConfig()
	cfg.ForwardJitterMax, cfg.ResponseJitterMax = 0, 0
	n := NewNode(1, clk, rand.New(rand.NewSource(1)), func(*wire.Message) {}, cfg)
	clk.Run(10 * time.Minute)
	if clk.Processed() != 0 || clk.Pending() != 0 {
		t.Fatalf("silent node: %d events run, %d timers pending", clk.Processed(), clk.Pending())
	}
	feed := func() {
		n.HandleMessage(&wire.Message{Type: wire.TypeQuery, Query: &wire.Query{
			ID: n.newID(), Kind: wire.KindCDI, TTL: time.Minute, Sender: 2, Origin: 2, Item: testItem()}})
		n.HandleMessage(&wire.Message{Type: wire.TypeResponse, Response: &wire.Response{
			ID: n.newID(), Kind: wire.KindMetadata, Sender: 2, Entries: []attr.Descriptor{testEntry(1)}}})
	}
	feed()
	if clk.Pending() != 1 {
		t.Fatalf("%d timers pending after a query and a response, want the one sweep", clk.Pending())
	}
	start := clk.Processed()
	clk.Run(clk.Now() + cfg.EntryTTL + time.Second)
	if clk.Pending() != 0 || n.LQTLen() != 0 || n.rr.Len() != 0 || n.next != clock.Never {
		t.Fatalf("after the last deadline: %d timers, lqt %d, rr %d, next %v", clk.Pending(), n.LQTLen(), n.rr.Len(), n.next)
	}
	// Three deadlines (response id 30 s, query 60 s, entry 5 min): three sweeps.
	if got := clk.Processed() - start; got != 3 {
		t.Fatalf("%d sweeps for three deadlines", got)
	}
	// Active sessions hold timers too — a check each, which a retrieval's
	// deadline shares — and Crash and Stop end them without calling back.
	startSessions := func() {
		n.RetrieveWithOptions(testItem(), RetrieveOptions{Deadline: time.Minute}, func(RetrievalResult) {
			t.Error("aborted retrieval called back")
		})
		n.Discover(testSel(), DiscoverOptions{}, func(DiscoveryResult) {
			t.Error("aborted discovery called back")
		})
		if clk.Pending() != 3 {
			t.Fatalf("%d timers pending with a deadline retrieval and a discovery active, want sweep and two checks", clk.Pending())
		}
	}
	feed()
	startSessions()
	n.Crash()
	if clk.Pending() != 0 {
		t.Fatalf("%d timers pending after Crash", clk.Pending())
	}
	n.Restart()
	feed()
	startSessions()
	n.Stop()
	if clk.Pending() != 0 {
		t.Fatalf("%d timers pending after Stop", clk.Pending())
	}
	feed()
	if clk.Pending() != 0 {
		t.Fatalf("stopped node armed %d timers", clk.Pending())
	}
	start = clk.Processed()
	clk.Run(clk.Now() + 2*time.Minute)
	if got := clk.Processed() - start; got != 0 {
		t.Fatalf("%d events ran on a stopped node past its sessions' deadlines", got)
	}
}

// TestArmAllocatesOnlyForAnEarlierDeadline pins the common case of the
// hot path: state that expires no earlier than the armed sweep costs no
// allocation and no timer.
func TestArmAllocatesOnlyForAnEarlierDeadline(t *testing.T) {
	eng := sim.NewEngine(1)
	n := NewNode(1, eng, rand.New(rand.NewSource(1)), func(*wire.Message) {}, DefaultConfig())
	n.arm(10 * time.Second)
	at := 10 * time.Second
	if allocs := testing.AllocsPerRun(100, func() { at += time.Millisecond; n.arm(at) }); allocs != 0 {
		t.Fatalf("arm for a later deadline allocates %.0f times", allocs)
	}
	if eng.Pending() != 1 {
		t.Fatalf("%d timers pending, want 1", eng.Pending())
	}
}

// BenchmarkIdleNodeSecond is the idle tick's price: 10 000 nodes that
// hold nothing, one simulated minute per op. Both metrics are zero.
func BenchmarkIdleNodeSecond(b *testing.B) {
	eng := sim.NewEngine(1)
	for i := 1; i <= 10000; i++ {
		NewNode(wire.NodeID(i), eng, rand.New(rand.NewSource(int64(i))), func(*wire.Message) {}, DefaultConfig())
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Run(eng.Now() + time.Minute)
	}
	b.ReportMetric(float64(eng.Processed())/float64(b.N), "events/op")
}

// BenchmarkSweepArm is arm's two paths: a deadline the armed sweep
// already covers, and one that moves the timer earlier.
func BenchmarkSweepArm(b *testing.B) {
	newNode := func() *Node {
		return NewNode(1, sim.NewEngine(1), rand.New(rand.NewSource(1)), func(*wire.Message) {}, DefaultConfig())
	}
	b.Run("covered", func(b *testing.B) {
		n := newNode()
		n.arm(time.Second)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			n.arm(time.Hour)
		}
	})
	b.Run("earlier", func(b *testing.B) {
		n := newNode()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			n.next = clock.Never
			n.arm(time.Duration(b.N-i) * time.Second)
		}
	})
}
