package core

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"pds/internal/attr"
	"pds/internal/sim"
	"pds/internal/wire"
)

// harness wires nodes through a perfect instant broadcast: every
// message a node sends is delivered to every other node (cloned), with
// no loss, no airtime and no link layer. It isolates protocol logic
// from the medium.
type harness struct {
	t     *testing.T
	eng   *sim.Engine
	nodes map[wire.NodeID]*Node
	// topology restricts delivery: if set, from->to must be allowed.
	links map[[2]wire.NodeID]bool
	// taps observe every delivered message.
	taps []func(from, to wire.NodeID, msg *wire.Message)
	// drop, if set, loses the messages it reports true for.
	drop func(from, to wire.NodeID, msg *wire.Message) bool
}

func newHarness(t *testing.T, cfg Config, ids ...wire.NodeID) *harness {
	t.Helper()
	h := &harness{t: t, eng: sim.NewEngine(1), nodes: make(map[wire.NodeID]*Node)}
	for _, id := range ids {
		id := id
		h.nodes[id] = NewNode(id, h.eng, rand.New(rand.NewSource(int64(id))), func(msg *wire.Message) {
			h.broadcast(id, msg)
		}, cfg)
	}
	return h
}

// line restricts topology to a chain: ids[0] - ids[1] - ... - ids[n-1].
func (h *harness) line(ids ...wire.NodeID) {
	h.links = make(map[[2]wire.NodeID]bool)
	for i := 0; i+1 < len(ids); i++ {
		h.links[[2]wire.NodeID{ids[i], ids[i+1]}] = true
		h.links[[2]wire.NodeID{ids[i+1], ids[i]}] = true
	}
}

func (h *harness) broadcast(from wire.NodeID, msg *wire.Message) {
	// Deliver on the next event so handling is never reentrant.
	h.eng.Schedule(time.Microsecond, func() {
		for id, n := range h.nodes {
			if id == from {
				continue
			}
			if h.links != nil && !h.links[[2]wire.NodeID{from, id}] ||
				h.drop != nil && h.drop(from, id, msg) {
				continue
			}
			m := msg.Clone()
			for _, tap := range h.taps {
				tap(from, id, m)
			}
			n.HandleMessage(m)
		}
	})
}

func (h *harness) run(d time.Duration) { h.eng.Run(d) }

func testEntry(i int) attr.Descriptor {
	return attr.NewDescriptor().
		Set(attr.AttrNamespace, attr.String("env")).
		Set(attr.AttrDataType, attr.String("nox")).
		Set(attr.AttrName, attr.String(fmt.Sprintf("e%03d", i)))
}

func testSel() attr.Query {
	return attr.NewQuery(attr.Eq(attr.AttrNamespace, attr.String("env")))
}

func TestDiscoveryFindsAllEntries(t *testing.T) {
	h := newHarness(t, DefaultConfig(), 1, 2, 3, 4)
	h.line(1, 2, 3, 4)
	for i := 0; i < 30; i++ {
		h.nodes[wire.NodeID(2+i%3)].PublishEntry(testEntry(i))
	}
	var res DiscoveryResult
	done := false
	h.nodes[1].Discover(testSel(), DiscoverOptions{}, func(r DiscoveryResult) {
		res = r
		done = true
	})
	h.run(2 * time.Minute)
	if !done {
		t.Fatal("discovery never finished")
	}
	if len(res.Entries) != 30 {
		t.Fatalf("entries = %d, want 30", len(res.Entries))
	}
	if res.Rounds < 1 {
		t.Fatalf("rounds = %d", res.Rounds)
	}
}

// TestNoDuplicateEntriesDelivered asserts the mixedcast+bloom invariant
// from DESIGN.md: with a perfect channel, one round delivers every
// entry to the consumer at most once over each link.
func TestNoDuplicateEntryTransmissions(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxRounds = 1
	h := newHarness(t, cfg, 1, 2, 3)
	h.line(1, 2, 3)
	for i := 0; i < 20; i++ {
		h.nodes[3].PublishEntry(testEntry(i))
		h.nodes[2].PublishEntry(testEntry(i)) // same entries cached at 2
	}
	// Count metadata entries crossing the 2->1 link.
	seen := map[string]int{}
	h.taps = append(h.taps, func(from, to wire.NodeID, msg *wire.Message) {
		if from == 2 && to == 1 && msg.Type == wire.TypeResponse && msg.Response.Kind == wire.KindMetadata {
			if containsID(msg.Response.Receivers, 1) {
				for _, d := range msg.Response.Entries {
					seen[d.Key()]++
				}
			}
		}
	})
	done := false
	h.nodes[1].Discover(testSel(), DiscoverOptions{}, func(DiscoveryResult) { done = true })
	h.run(2 * time.Minute)
	if !done {
		t.Fatal("discovery never finished")
	}
	for k, c := range seen {
		if c > 1 {
			t.Fatalf("entry %x crossed the last hop %d times", k, c)
		}
	}
	if len(seen) != 20 {
		t.Fatalf("consumer link saw %d distinct entries, want 20", len(seen))
	}
}

func TestLingeringQueryServesLateResponses(t *testing.T) {
	// Node 3's entries arrive after node 2 already answered: the
	// lingering query at node 2 must still route them back. We emulate
	// lateness by publishing at node 3 after the query flood passes.
	cfg := DefaultConfig()
	h := newHarness(t, cfg, 1, 2, 3)
	h.line(1, 2, 3)
	h.nodes[2].PublishEntry(testEntry(0))
	var res DiscoveryResult
	done := false
	h.nodes[1].Discover(testSel(), DiscoverOptions{}, func(r DiscoveryResult) {
		res = r
		done = true
	})
	h.eng.Schedule(300*time.Millisecond, func() {
		// Late data: a fresh response from 3 toward the lingering
		// query left at 2 and 3.
		h.nodes[3].PublishEntry(testEntry(1))
		// Trigger node 3 to serve it as if a second copy of the round's
		// query arrived — in PDS the entry returns in the next round,
		// via the still-lingering query when a response passes by, or
		// on the consumer's next round; here the multi-round controller
		// picks it up.
	})
	h.run(2 * time.Minute)
	if !done {
		t.Fatal("discovery never finished")
	}
	if len(res.Entries) != 2 {
		t.Fatalf("entries = %d, want 2 (late entry found in later round)", len(res.Entries))
	}
}

func TestOneShotAblationRemovesQuery(t *testing.T) {
	cfg := DefaultConfig()
	cfg.LingeringEnabled = false
	h := newHarness(t, cfg, 1, 2)
	h.line(1, 2)
	h.nodes[2].PublishEntry(testEntry(0))
	done := false
	h.nodes[1].Discover(testSel(), DiscoverOptions{}, func(DiscoveryResult) { done = true })
	h.run(30 * time.Second)
	if !done {
		t.Fatal("discovery never finished")
	}
	// After serving once, node 2's LQT entry must be gone.
	if h.nodes[2].LQTLen() != 0 {
		t.Fatalf("one-shot ablation left %d lingering queries", h.nodes[2].LQTLen())
	}
}

func TestCDIDistanceVector(t *testing.T) {
	cfg := DefaultConfig()
	h := newHarness(t, cfg, 1, 2, 3)
	h.line(1, 2, 3)
	item := attr.NewDescriptor().
		Set(attr.AttrNamespace, attr.String("media")).
		Set(attr.AttrName, attr.String("v")).
		Set(attr.AttrTotalChunks, attr.Int(2))
	h.nodes[3].PublishChunk(item, 0, []byte("aa"))
	h.nodes[3].PublishChunk(item, 1, []byte("bb"))

	var res RetrievalResult
	done := false
	h.nodes[1].Retrieve(item, func(r RetrievalResult) {
		res = r
		done = true
	})
	h.run(2 * time.Minute)
	if !done {
		t.Fatal("retrieval never finished")
	}
	if !res.Complete {
		t.Fatalf("incomplete: %d/2", len(res.Chunks))
	}
	if string(res.Chunks[0]) != "aa" || string(res.Chunks[1]) != "bb" {
		t.Fatal("chunk payloads wrong")
	}
	// Node 2 (the relay) must have learned hop-1 routes via node 3 and
	// node 1 hop-2 routes via node 2.
	now := h.eng.Now()
	e2 := h.nodes[2].CDI().Lookup(item.Key(), 0, now)
	if len(e2) == 0 || e2[0].HopCount != 1 || e2[0].Neighbor != 3 {
		t.Fatalf("node 2 CDI = %+v", e2)
	}
	// The relay also cached the chunks it carried (opportunistic
	// caching), so node 1's CDI may legitimately point at node 2 with
	// hop 1 after the transfer. Check the consumer got *some* route.
	e1 := h.nodes[1].CDI().Lookup(item.Key(), 0, now)
	if len(e1) == 0 {
		t.Fatal("consumer has no CDI route")
	}
	// Assembled payload must reconstruct.
	buf, ok := res.Assemble()
	if !ok || string(buf) != "aabb" {
		t.Fatalf("Assemble = %q %v", buf, ok)
	}
}

func TestRelayCachesChunks(t *testing.T) {
	cfg := DefaultConfig()
	h := newHarness(t, cfg, 1, 2, 3)
	h.line(1, 2, 3)
	item := attr.NewDescriptor().
		Set(attr.AttrName, attr.String("v")).
		Set(attr.AttrTotalChunks, attr.Int(1))
	h.nodes[3].PublishChunk(item, 0, []byte("payload"))
	done := false
	h.nodes[1].Retrieve(item, func(RetrievalResult) { done = true })
	h.run(2 * time.Minute)
	if !done {
		t.Fatal("retrieval never finished")
	}
	if !h.nodes[2].Store().HasPayload(item.WithChunk(0)) {
		t.Fatal("relay did not cache the chunk it carried")
	}
}

func TestMDRRetrievesAll(t *testing.T) {
	cfg := DefaultConfig()
	h := newHarness(t, cfg, 1, 2, 3)
	h.line(1, 2, 3)
	item := attr.NewDescriptor().
		Set(attr.AttrName, attr.String("v")).
		Set(attr.AttrTotalChunks, attr.Int(3))
	for c := 0; c < 3; c++ {
		h.nodes[3].PublishChunk(item, c, []byte{byte(c)})
	}
	var res RetrievalResult
	done := false
	h.nodes[1].RetrieveMDR(item, func(r RetrievalResult) {
		res = r
		done = true
	})
	h.run(3 * time.Minute)
	if !done {
		t.Fatal("MDR never finished")
	}
	if !res.Complete {
		t.Fatalf("MDR incomplete: %d/3", len(res.Chunks))
	}
}

func TestRetrieveFromLocalCache(t *testing.T) {
	cfg := DefaultConfig()
	h := newHarness(t, cfg, 1)
	item := attr.NewDescriptor().
		Set(attr.AttrName, attr.String("v")).
		Set(attr.AttrTotalChunks, attr.Int(2))
	h.nodes[1].PublishChunk(item, 0, []byte("a"))
	h.nodes[1].PublishChunk(item, 1, []byte("b"))
	done := false
	h.nodes[1].Retrieve(item, func(r RetrievalResult) {
		if !r.Complete {
			t.Error("local retrieval incomplete")
		}
		if r.Latency != 0 {
			t.Errorf("latency %v for local data", r.Latency)
		}
		done = true
	})
	if !done {
		t.Fatal("local retrieval did not complete synchronously")
	}
}

func TestRetrieveMalformedItem(t *testing.T) {
	h := newHarness(t, DefaultConfig(), 1)
	called := false
	h.nodes[1].Retrieve(attr.NewDescriptor(), func(r RetrievalResult) {
		called = true
		if r.Complete {
			t.Error("empty descriptor reported complete")
		}
	})
	if !called {
		t.Fatal("callback not invoked for malformed item")
	}
}

func TestDiscoverPreSeedFromCache(t *testing.T) {
	cfg := DefaultConfig()
	h := newHarness(t, cfg, 1, 2)
	h.line(1, 2)
	// Consumer already has the only entry cached: the session should
	// still terminate quickly and report it.
	h.nodes[1].PublishEntry(testEntry(0))
	var res DiscoveryResult
	done := false
	h.nodes[1].Discover(testSel(), DiscoverOptions{}, func(r DiscoveryResult) {
		res = r
		done = true
	})
	h.run(time.Minute)
	if !done || len(res.Entries) != 1 {
		t.Fatalf("done=%v entries=%d", done, len(res.Entries))
	}
	if res.Latency != 0 {
		t.Fatalf("latency %v for pre-cached entry", res.Latency)
	}
}

func TestSmallDataCollection(t *testing.T) {
	cfg := DefaultConfig()
	h := newHarness(t, cfg, 1, 2, 3)
	h.line(1, 2, 3)
	for i := 0; i < 5; i++ {
		h.nodes[3].PublishSmall(testEntry(i), []byte(fmt.Sprintf("v%d", i)))
	}
	var res DiscoveryResult
	done := false
	h.nodes[1].Discover(testSel(), DiscoverOptions{Kind: wire.KindData, CollectPayloads: true},
		func(r DiscoveryResult) {
			res = r
			done = true
		})
	h.run(2 * time.Minute)
	if !done {
		t.Fatal("collection never finished")
	}
	if len(res.Entries) != 5 || len(res.Payloads) != 5 {
		t.Fatalf("entries=%d payloads=%d", len(res.Entries), len(res.Payloads))
	}
	for _, d := range res.Entries {
		if p, ok := res.Payloads[d.Key()]; !ok || len(p) == 0 {
			t.Fatalf("missing payload for %s", d)
		}
	}
	// The relay cached the small items (opportunistic caching).
	if got := len(h.nodes[2].Store().MatchPayloads(testSel(), h.eng.Now())); got != 5 {
		t.Fatalf("relay cached %d payloads", got)
	}
}

func TestPublishItemSplitsChunks(t *testing.T) {
	h := newHarness(t, DefaultConfig(), 1)
	payload := make([]byte, 2500)
	for i := range payload {
		payload[i] = byte(i)
	}
	item := attr.NewDescriptor().Set(attr.AttrName, attr.String("x"))
	item = h.nodes[1].PublishItem(item, payload, 1000)
	if item.TotalChunks() != 3 {
		t.Fatalf("TotalChunks = %d", item.TotalChunks())
	}
	st := h.nodes[1].Store()
	if got := st.ChunksHeld(item.Key()); len(got) != 3 {
		t.Fatalf("ChunksHeld = %v", got)
	}
	p, _ := st.ChunkPayload(item.Key(), 2)
	if len(p) != 500 {
		t.Fatalf("last chunk size = %d", len(p))
	}
}

func TestUnpublishRemovesData(t *testing.T) {
	h := newHarness(t, DefaultConfig(), 1)
	d := testEntry(0)
	h.nodes[1].PublishSmall(d, []byte("x"))
	h.nodes[1].Unpublish(d)
	if h.nodes[1].Store().HasEntry(d, 0) || h.nodes[1].Store().HasPayload(d) {
		t.Fatal("unpublish left data")
	}
}

// TestAssembleAllocatesOnce: a 7-chunk item assembles into one buffer
// sized up front — one allocation, not a doubling per chunk — and
// byte-identical to its chunks in id order.
func TestAssembleAllocatesOnce(t *testing.T) {
	const chunks, size = 7, 128 << 10
	r := RetrievalResult{
		Item:   attr.NewDescriptor().Set(attr.AttrName, attr.String("clip")).Set(attr.AttrTotalChunks, attr.Int(chunks)),
		Chunks: make(map[int][]byte),
	}
	var want []byte
	for c := 0; c < chunks; c++ {
		p := make([]byte, size-c) // unequal, as an item's last chunk is
		for i := range p {
			p[i] = byte(c + i)
		}
		r.Chunks[c] = p
		want = append(want, p...)
	}
	got, ok := r.Assemble()
	if !ok || string(got) != string(want) {
		t.Fatalf("Assemble: %d bytes, ok %v; want the %d bytes of the chunks in order", len(got), ok, len(want))
	}
	if allocs := testing.AllocsPerRun(20, func() { r.Assemble() }); allocs != 1 {
		t.Fatalf("Assemble of %d chunks costs %v allocations, want 1", chunks, allocs)
	}
	delete(r.Chunks, 3)
	if out, ok := r.Assemble(); ok || out != nil {
		t.Fatalf("Assemble with chunk 3 missing: %d bytes, ok %v", len(out), ok)
	}
}

// TestStrategyCountersFoldBothPlanes: a node's strategy row is its
// routing strategy's counters folded with its cache strategy's, labelled
// with both names.
func TestStrategyCountersFoldBothPlanes(t *testing.T) {
	eng := sim.NewEngine(1)
	cfg := DefaultConfig()
	cfg.Routing, cfg.Caching = "bfr", "opportunistic"
	n := NewNode(1, eng, rand.New(rand.NewSource(1)), func(*wire.Message) {}, cfg)
	n.PublishChunk(testEntry(0).Set(attr.AttrTotalChunks, attr.Int(1)), 0, []byte("x"))
	for i := 1; i <= 16; i++ {
		n.ds.PutPayloadCached(testEntry(i), []byte("p"), 0, time.Hour)
	}
	eng.Run(5 * time.Second)
	c := n.StrategyCounters()
	if c.Routing != "bfr" || c.Caching != "opportunistic" || c.AdvertFloods == 0 || c.CacheAdmitSkips == 0 {
		t.Fatalf("strategy row = %+v, want both names, advert floods and admission skips", c)
	}
}

// TestFallbackRoutesCountOnlySentQueries: a bfr consumer whose CDI
// stays empty retrieves over the advert table alone, and its
// FallbackRoutes counts the routes its chunk queries were offered, not
// the phase-1 checks that asked whether any route exists.
func TestFallbackRoutesCountOnlySentQueries(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Routing = "bfr"
	h := newHarness(t, cfg, 1, 2, 3)
	h.line(1, 2, 3)
	h.drop = func(_, to wire.NodeID, msg *wire.Message) bool {
		return to == 1 && msg.Type == wire.TypeResponse && msg.Response.Kind == wire.KindCDI
	}
	// The consumer's one neighbor is node 2, so every chunk it asks for
	// was offered exactly one route.
	offered := 0
	h.taps = append(h.taps, func(from, _ wire.NodeID, msg *wire.Message) {
		if from == 1 && msg.Type == wire.TypeQuery && msg.Query.Kind == wire.KindChunk {
			offered += len(msg.Query.ChunkIDs)
		}
	})
	item := testEntry(0).Set(attr.AttrTotalChunks, attr.Int(4))
	for c := 0; c < 4; c++ {
		h.nodes[3].PublishChunk(item, c, []byte{byte(c)})
	}
	h.run(3 * time.Second) // node 3's advert reaches node 1
	var res RetrievalResult
	h.nodes[1].Retrieve(item, func(r RetrievalResult) { res = r })
	h.run(time.Minute)
	if !res.Complete {
		t.Fatalf("retrieval over advert routes incomplete: %+v", res)
	}
	if got := h.nodes[1].StrategyCounters().FallbackRoutes; offered == 0 || got != uint64(offered) {
		t.Fatalf("FallbackRoutes = %d, want the %d routes the chunk queries were offered", got, offered)
	}
}

// TestIdleNodeCrashRestartDiscovers: a node that never heard a frame has
// made none of its tables' maps, and Crash sets them back to none; once
// restarted it must still discover like any other node.
func TestIdleNodeCrashRestartDiscovers(t *testing.T) {
	h := newHarness(t, DefaultConfig(), 1, 2)
	for i := 0; i < 5; i++ {
		h.nodes[2].PublishEntry(testEntry(i))
	}
	h.nodes[1].Crash()
	h.nodes[1].Restart()
	var res DiscoveryResult
	done := false
	h.nodes[1].Discover(testSel(), DiscoverOptions{}, func(r DiscoveryResult) {
		res, done = r, true
	})
	h.run(2 * time.Minute)
	if !done || len(res.Entries) != 5 {
		t.Fatalf("discovery after an idle crash: done %v, %d entries, want 5", done, len(res.Entries))
	}
}
