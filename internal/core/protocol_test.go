package core

import (
	"testing"
	"time"

	"pds/internal/attr"
	"pds/internal/store"
	"pds/internal/wire"
)

// TestMixedcastJointResponse: two consumers behind the same relay ask
// for overlapping data; the relay must forward shared entries in single
// messages addressed to both, not duplicate them per consumer.
func TestMixedcastJointResponse(t *testing.T) {
	// Topology: c1(1) and c2(2) both connect to relay(3); producer(4)
	// behind the relay.
	h := newHarness(t, DefaultConfig(), 1, 2, 3, 4)
	h.links = map[[2]wire.NodeID]bool{
		{1, 3}: true, {3, 1}: true,
		{2, 3}: true, {3, 2}: true,
		{3, 4}: true, {4, 3}: true,
	}
	for i := 0; i < 10; i++ {
		h.nodes[4].PublishEntry(testEntry(i))
	}
	// Count entry copies transmitted by the relay toward consumers.
	copies := map[string]int{}
	jointMsgs := 0
	h.taps = append(h.taps, func(from, to wire.NodeID, msg *wire.Message) {
		if from != 3 || msg.Type != wire.TypeResponse || msg.Response.Kind != wire.KindMetadata {
			return
		}
		if to != 1 { // each broadcast is seen by both; count once
			return
		}
		if len(msg.Response.Receivers) == 2 {
			jointMsgs++
		}
		for _, d := range msg.Response.Entries {
			copies[d.Key()]++
		}
	})
	done := 0
	for _, id := range []wire.NodeID{1, 2} {
		h.nodes[id].Discover(testSel(), DiscoverOptions{}, func(DiscoveryResult) { done++ })
	}
	h.run(2 * time.Minute)
	if done != 2 {
		t.Fatal("discoveries did not finish")
	}
	if jointMsgs == 0 {
		t.Fatal("no mixedcast (two-receiver) responses observed")
	}
	for k, c := range copies {
		if c > 1 {
			t.Fatalf("entry %x relayed %d times despite mixedcast", k, c)
		}
	}
}

// TestBloomSuppressesSecondRound: entries delivered in round 1 must not
// be transmitted again in round 2.
func TestBloomSuppressesSecondRound(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxRounds = 3
	h := newHarness(t, cfg, 1, 2)
	h.line(1, 2)
	for i := 0; i < 50; i++ {
		h.nodes[2].PublishEntry(testEntry(i))
	}
	transmissions := map[string]int{}
	h.taps = append(h.taps, func(from, to wire.NodeID, msg *wire.Message) {
		if msg.Type == wire.TypeResponse && msg.Response.Kind == wire.KindMetadata {
			for _, d := range msg.Response.Entries {
				transmissions[d.Key()]++
			}
		}
	})
	done := false
	h.nodes[1].Discover(testSel(), DiscoverOptions{}, func(DiscoveryResult) { done = true })
	h.run(3 * time.Minute)
	if !done {
		t.Fatal("discovery never finished")
	}
	over := 0
	for _, c := range transmissions {
		if c > 1 {
			over++
		}
	}
	// A handful of Bloom false positives re-requested is acceptable;
	// wholesale retransmission is not.
	if over > 5 {
		t.Fatalf("%d of %d entries transmitted more than once", over, len(transmissions))
	}
}

// TestNoBloomAblationRetransmits: with redundancy detection off, later
// rounds re-transmit entries — the waste the mechanism exists to avoid.
func TestNoBloomAblationRetransmits(t *testing.T) {
	cfg := DefaultConfig()
	cfg.BloomEnabled = false
	cfg.MaxRounds = 2
	// Force a second round by keeping T_d at 0 (any new entry in round
	// 1 starts round 2).
	h := newHarness(t, cfg, 1, 2)
	h.line(1, 2)
	for i := 0; i < 20; i++ {
		h.nodes[2].PublishEntry(testEntry(i))
	}
	transmissions := 0
	h.taps = append(h.taps, func(from, to wire.NodeID, msg *wire.Message) {
		if msg.Type == wire.TypeResponse && msg.Response.Kind == wire.KindMetadata {
			transmissions += len(msg.Response.Entries)
		}
	})
	done := false
	h.nodes[1].Discover(testSel(), DiscoverOptions{}, func(DiscoveryResult) { done = true })
	h.run(3 * time.Minute)
	if !done {
		t.Fatal("discovery never finished")
	}
	if transmissions < 40 {
		t.Fatalf("expected duplicated transmissions without Bloom, got %d for 20 entries", transmissions)
	}
}

// TestCDIHopCountsIncrement: CDI entries must record hop+1 relative to
// the responder at each relay.
func TestCDIHopCountsIncrement(t *testing.T) {
	h := newHarness(t, DefaultConfig(), 1, 2, 3, 4)
	h.line(1, 2, 3, 4)
	item := attr.NewDescriptor().
		Set(attr.AttrName, attr.String("v")).
		Set(attr.AttrTotalChunks, attr.Int(1))
	h.nodes[4].PublishChunk(item, 0, []byte("x"))

	done := false
	h.nodes[1].Retrieve(item, func(RetrievalResult) { done = true })
	h.run(2 * time.Minute)
	if !done {
		t.Fatal("retrieval never finished")
	}
	now := h.eng.Now()
	// Node 3 is adjacent to the holder: hop 1 via node 4.
	e3 := h.nodes[3].CDI().Lookup(item.Key(), 0, now)
	if len(e3) == 0 || e3[0].Hop != 1 || e3[0].Neighbor != 4 {
		t.Fatalf("node 3 CDI = %+v", e3)
	}
	// Node 2 learned hop 2 via node 3 during phase 1 (before the chunk
	// was cached closer).
	e2 := h.nodes[2].CDI().Lookup(item.Key(), 0, now)
	if len(e2) == 0 {
		t.Fatal("node 2 has no CDI")
	}
	if e2[0].Hop > 2 {
		t.Fatalf("node 2 hop count %d, want <= 2", e2[0].Hop)
	}
}

// TestChunkQueryCycleDamping: a relay receiving a second chunk query
// for chunks already in flight for the same origin must not spawn a
// duplicate sub-query chain.
func TestChunkQueryCycleDamping(t *testing.T) {
	h := newHarness(t, DefaultConfig(), 2, 3, 4)
	h.line(2, 3, 4)
	item := attr.NewDescriptor().
		Set(attr.AttrName, attr.String("v")).
		Set(attr.AttrTotalChunks, attr.Int(1))
	h.nodes[4].PublishChunk(item, 0, []byte("x"))
	// Seed CDI at node 3 so it can route.
	h.nodes[3].CDI().Update(item.Key(), cdiEntry(0, 1, 4, h.eng.Now()+time.Minute))

	subQueries := 0
	h.taps = append(h.taps, func(from, to wire.NodeID, msg *wire.Message) {
		if from == 3 && to == 4 && msg.Type == wire.TypeQuery && msg.Query.Kind == wire.KindChunk {
			subQueries++
		}
	})
	q1 := &wire.Query{
		ID: 101, Kind: wire.KindChunk, TTL: time.Minute,
		Sender: 2, Receivers: []wire.NodeID{3}, Origin: 9,
		Item: item, ChunkIDs: []int{0},
	}
	q2 := &wire.Query{
		ID: 102, Kind: wire.KindChunk, TTL: time.Minute,
		Sender: 2, Receivers: []wire.NodeID{3}, Origin: 9,
		Item: item, ChunkIDs: []int{0},
	}
	h.nodes[3].HandleMessage(&wire.Message{Type: wire.TypeQuery, Query: q1})
	h.nodes[3].HandleMessage(&wire.Message{Type: wire.TypeQuery, Query: q2})
	h.run(10 * time.Second)
	// Each delivery to node 4 counts once per tap call; node 3 should
	// have forwarded the request exactly once.
	if subQueries != 1 {
		t.Fatalf("relay sent %d sub-queries for duplicated request, want 1", subQueries)
	}
}

// TestOnSendFailureDropsRoute: reporting an unreachable neighbor must
// remove its CDI routes so the next balance avoids it.
func TestOnSendFailureDropsRoute(t *testing.T) {
	h := newHarness(t, DefaultConfig(), 1)
	n := h.nodes[1]
	item := attr.NewDescriptor().
		Set(attr.AttrName, attr.String("v")).
		Set(attr.AttrTotalChunks, attr.Int(2))
	now := h.eng.Now()
	n.CDI().Update(item.Key(), cdiEntry(0, 1, 7, now+time.Minute))
	n.CDI().Update(item.Key(), cdiEntry(1, 1, 7, now+time.Minute))
	// Equal-hop alternative via neighbor 8 (the CDI table keeps all
	// least-hop routes, §IV-A).
	n.CDI().Update(item.Key(), cdiEntry(1, 1, 8, now+time.Minute))

	failed := &wire.Message{
		Type: wire.TypeQuery,
		Query: &wire.Query{
			Kind: wire.KindChunk, Item: item, Receivers: []wire.NodeID{7},
		},
	}
	n.OnSendFailure(failed, []wire.NodeID{7})
	if got := n.CDI().Lookup(item.Key(), 0, now); len(got) != 0 {
		t.Fatalf("chunk 0 still routed via dead neighbor: %+v", got)
	}
	got := n.CDI().Lookup(item.Key(), 1, now)
	if len(got) != 1 || got[0].Neighbor != 8 {
		t.Fatalf("chunk 1 routes = %+v", got)
	}
	// Non-chunk give-ups are ignored.
	n.OnSendFailure(&wire.Message{Type: wire.TypeResponse, Response: &wire.Response{}}, []wire.NodeID{8})
	if got := n.CDI().Lookup(item.Key(), 1, now); len(got) != 1 {
		t.Fatal("response give-up modified CDI")
	}
}

// TestQueryTTLExpiresLingering: after the TTL, lingering queries stop
// steering responses.
func TestQueryTTLExpiresLingering(t *testing.T) {
	cfg := DefaultConfig()
	cfg.QueryTTL = 2 * time.Second
	h := newHarness(t, cfg, 1, 2)
	h.line(1, 2)
	done := false
	h.nodes[1].Discover(testSel(), DiscoverOptions{}, func(DiscoveryResult) { done = true })
	h.run(30 * time.Second) // the sweep armed for the query's expiry has run
	if !done {
		t.Fatal("discovery never finished")
	}
	if got := h.nodes[2].LQTLen(); got != 0 {
		t.Fatalf("%d lingering queries survive past TTL", got)
	}
}

// TestSimultaneousSessionsIndependent: two concurrent discoveries with
// different selectors each get exactly their own entries.
func TestSimultaneousSessionsIndependent(t *testing.T) {
	h := newHarness(t, DefaultConfig(), 1, 2)
	h.line(1, 2)
	a := attr.NewDescriptor().Set(attr.AttrNamespace, attr.String("a")).Set(attr.AttrName, attr.String("x"))
	b := attr.NewDescriptor().Set(attr.AttrNamespace, attr.String("b")).Set(attr.AttrName, attr.String("y"))
	h.nodes[2].PublishEntry(a)
	h.nodes[2].PublishEntry(b)
	var resA, resB DiscoveryResult
	done := 0
	h.nodes[1].Discover(attr.NewQuery(attr.Eq(attr.AttrNamespace, attr.String("a"))),
		DiscoverOptions{}, func(r DiscoveryResult) { resA = r; done++ })
	h.nodes[1].Discover(attr.NewQuery(attr.Eq(attr.AttrNamespace, attr.String("b"))),
		DiscoverOptions{}, func(r DiscoveryResult) { resB = r; done++ })
	h.run(2 * time.Minute)
	if done != 2 {
		t.Fatal("sessions did not finish")
	}
	if len(resA.Entries) != 1 || !resA.Entries[0].Equal(a) {
		t.Fatalf("session A got %v", resA.Entries)
	}
	if len(resB.Entries) != 1 || !resB.Entries[0].Equal(b) {
		t.Fatalf("session B got %v", resB.Entries)
	}
}

// TestCacheCapRespected: a tiny cache cap must bound cached payload
// bytes at relays without breaking delivery to the consumer.
func TestCacheCapRespected(t *testing.T) {
	cfg := DefaultConfig()
	cfg.CacheCap = 1 << 10 // 1 KB relay cache
	h := newHarness(t, cfg, 1, 2, 3)
	h.line(1, 2, 3)
	item := attr.NewDescriptor().
		Set(attr.AttrName, attr.String("v")).
		Set(attr.AttrTotalChunks, attr.Int(4))
	for c := 0; c < 4; c++ {
		h.nodes[3].PublishChunk(item, c, make([]byte, 4096))
	}
	var res RetrievalResult
	done := false
	h.nodes[1].Retrieve(item, func(r RetrievalResult) { res = r; done = true })
	h.run(3 * time.Minute)
	if !done || !res.Complete {
		t.Fatalf("retrieval with capped relay cache failed: done=%v complete=%v chunks=%d",
			done, res.Complete, len(res.Chunks))
	}
	// The relay can hold at most 0 full chunks in its 1 KB cache.
	held := h.nodes[2].Store().ChunksHeld(item.Key())
	if len(held) != 0 {
		t.Fatalf("relay holds %d chunks beyond its cache cap", len(held))
	}
}

// cdiEntry builds a store CDI entry for seeding tables in tests.
func cdiEntry(chunk, hop int, neighbor wire.NodeID, expire time.Duration) store.CDIEntry {
	return store.CDIEntry{ChunkID: chunk, HopCount: hop, Neighbor: neighbor, ExpireAt: expire}
}
