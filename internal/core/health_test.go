package core

import (
	"math/rand"
	"slices"
	"testing"
	"time"

	"pds/internal/attr"
	"pds/internal/bloom"
	"pds/internal/sim"
	"pds/internal/store"
	"pds/internal/wire"
)

func TestHealthTrackerBackoffAndDecay(t *testing.T) {
	h := new(healthTracker)
	now := time.Duration(0)

	if h.blocked(2, now) {
		t.Fatal("fresh neighbor blocked")
	}
	if got := h.recordFailure(2, now); got != 1 {
		t.Fatalf("fails = %d", got)
	}
	if !h.blocked(2, now+blacklistBase-1) {
		t.Fatal("not blocked inside first backoff")
	}
	if h.blocked(2, now+blacklistBase) {
		t.Fatal("still blocked after first backoff: re-probe must open")
	}

	// Second failure doubles the backoff.
	now += blacklistBase
	h.recordFailure(2, now)
	if !h.blocked(2, now+2*blacklistBase-1) {
		t.Fatal("second backoff shorter than doubled base")
	}

	// Backoff is capped.
	for i := 0; i < 20; i++ {
		now += time.Second
		h.recordFailure(2, now)
	}
	if h.blocked(2, now+blacklistMax+1) {
		t.Fatal("backoff exceeded blacklistMax")
	}

	// Success forgives entirely.
	h.recordSuccess(2)
	if got := h.recordFailure(2, now); got != 1 {
		t.Fatalf("fails after success = %d, want 1", got)
	}

	// A stale streak decays: the next failure counts as the first.
	h.recordFailure(3, now)
	h.recordFailure(3, now+time.Second)
	if got := h.recordFailure(3, now+time.Second+healthDecay); got != 1 {
		t.Fatalf("fails after decay = %d, want 1", got)
	}
}

func testItem() attr.Descriptor {
	return testEntry(0).Set(attr.AttrTotalChunks, attr.Int(4))
}

// TestSendFailureBlacklistRegression is the regression test for the
// no-memory OnSendFailure bug: dropping only the failed item's CDI
// routes let the very next stale CDI response re-install the dead
// neighbor, which the next balance pass re-selected — forever. With the
// health tracker, a failed neighbor is blacklisted (skipped by routing
// even if CDI re-learns it) and declared dead on the second strike.
func TestSendFailureBlacklistRegression(t *testing.T) {
	eng := sim.NewEngine(1)
	var chunkTargets []wire.NodeID
	n := NewNode(1, eng, rand.New(rand.NewSource(1)), func(msg *wire.Message) {
		if msg.Query != nil && msg.Query.Kind == wire.KindChunk {
			chunkTargets = append(chunkTargets, msg.Query.Receivers...)
		}
	}, DefaultConfig())

	item := testItem()
	itemKey := item.Key()
	expire := eng.Now() + 10*time.Minute
	addRoutes := func() {
		n.cdi.Update(itemKey, store.CDIEntry{ChunkID: 0, HopCount: 1, Neighbor: 2, ExpireAt: expire})
		n.cdi.Update(itemKey, store.CDIEntry{ChunkID: 0, HopCount: 1, Neighbor: 3, ExpireAt: expire})
	}
	addRoutes()

	failedMsg := &wire.Message{Type: wire.TypeQuery, Query: &wire.Query{
		Kind: wire.KindChunk, Item: item, ChunkIDs: []int{0},
		Sender: 1, Origin: 1, Receivers: []wire.NodeID{2},
	}}

	// First give-up toward neighbor 2, then CDI re-learns the dead route
	// from a stale relay — the exact sequence that used to ping-pong.
	n.OnSendFailure(failedMsg, []wire.NodeID{2})
	addRoutes()

	chunkTargets = nil
	n.sendChunkQueries(item, []int{0}, 1, 0, 0)
	for _, nb := range chunkTargets {
		if nb == 2 {
			t.Fatal("blacklisted neighbor 2 re-selected after send failure")
		}
	}
	if len(chunkTargets) == 0 || chunkTargets[0] != 3 {
		t.Fatalf("expected fallback route via 3, sent to %v", chunkTargets)
	}
	if n.stats.BlacklistSkips == 0 {
		t.Fatal("BlacklistSkips not counted")
	}

	// Second strike declares the neighbor dead: every CDI route via it,
	// for any item, is invalidated.
	n.OnSendFailure(failedMsg, []wire.NodeID{2})
	if n.stats.NeighborsDead != 1 {
		t.Fatalf("NeighborsDead = %d, want 1", n.stats.NeighborsDead)
	}
	for _, e := range n.cdi.Lookup(itemKey, 0, eng.Now()) {
		if e.Neighbor == 2 {
			t.Fatal("dead neighbor's CDI entry survived DropNeighborAll")
		}
	}

	// Hearing from the neighbor again clears the record (re-probe path).
	n.health.recordSuccess(2)
	if n.health.blocked(2, eng.Now()) {
		t.Fatal("blocked after recordSuccess")
	}
}

func TestCrashWipesVolatileStateRestartRecovers(t *testing.T) {
	eng := sim.NewEngine(1)
	n := NewNode(1, eng, rand.New(rand.NewSource(1)), func(*wire.Message) {}, DefaultConfig())

	owned := testEntry(0)
	n.PublishSmall(owned, []byte("persisted"))
	now := eng.Now()
	cachedEntry := testEntry(1)
	n.ds.PutCached(cachedEntry, now+time.Minute)
	cachedPayload := testEntry(2)
	n.ds.PutPayloadCached(cachedPayload, []byte("volatile"), now, now+time.Minute)
	n.cdi.Update("item", store.CDIEntry{ChunkID: 0, HopCount: 1, Neighbor: 2, ExpireAt: now + time.Minute})
	n.lqt.Insert(&wire.Query{ID: 42, Kind: wire.KindMetadata, TTL: time.Minute, Sender: 2, Origin: 2}, now+time.Minute)
	n.health.recordFailure(9, now)

	n.Crash()
	if !n.Crashed() {
		t.Fatal("Crashed() false after Crash")
	}
	if !n.ds.HasEntry(owned, now) {
		t.Fatal("owned entry lost in crash")
	}
	if _, ok := n.ds.Payload(owned); !ok {
		t.Fatal("owned payload lost in crash")
	}
	if n.ds.HasEntry(cachedEntry, now) {
		t.Fatal("cached entry survived crash")
	}
	if _, ok := n.ds.Payload(cachedPayload); ok {
		t.Fatal("cached payload survived crash")
	}
	if len(n.cdi.Lookup("item", 0, now)) != 0 {
		t.Fatal("CDI table survived crash")
	}
	if n.LQTLen() != 0 {
		t.Fatal("LQT survived crash")
	}
	if n.health.blocked(9, now) {
		t.Fatal("health records survived crash")
	}

	// A crashed node is deaf and mute.
	n.HandleMessage(&wire.Message{Type: wire.TypeQuery, Query: &wire.Query{
		ID: 7, Kind: wire.KindMetadata, TTL: time.Minute, Sender: 2, Origin: 2,
	}})
	if n.LQTLen() != 0 {
		t.Fatal("crashed node processed a query")
	}

	n.Restart()
	if n.Crashed() {
		t.Fatal("Crashed() true after Restart")
	}
	n.HandleMessage(&wire.Message{Type: wire.TypeQuery, Query: &wire.Query{
		ID: 8, Kind: wire.KindMetadata, TTL: time.Minute, Sender: 2, Origin: 2,
	}})
	if n.LQTLen() != 1 {
		t.Fatal("restarted node did not process a query")
	}
	// Once the forward and serve jitters have fired, the restarted node
	// holds exactly one timer: the sweep armed for the query's expiry, on
	// the grid of whole seconds since the restart.
	restartedAt := eng.Now()
	eng.Run(restartedAt + 5*time.Second)
	if eng.Pending() != 1 || n.sweepAt != restartedAt+time.Minute {
		t.Fatalf("%d timers pending, sweep armed for %v; want one sweep at %v",
			eng.Pending(), n.sweepAt, restartedAt+time.Minute)
	}
}

// TestRetrievalDeadlinePartialResult: with no routes to any chunk and a
// deadline configured, the session must return a partial result at the
// deadline with every missing chunk enumerated — never hang. A deadline
// off the RoundCheck grid still ends the session at its own instant.
func TestRetrievalDeadlinePartialResult(t *testing.T) {
	for _, deadline := range []time.Duration{3 * time.Second, 3050 * time.Millisecond} {
		eng := sim.NewEngine(1)
		cfg := DefaultConfig()
		cfg.RetrievalDeadline = deadline
		cfg.RetrievalRounds = 1000 // deadline, not the round budget, must end it
		n := NewNode(1, eng, rand.New(rand.NewSource(1)), func(*wire.Message) {}, cfg)

		var res RetrievalResult
		done := false
		n.Retrieve(testItem(), func(r RetrievalResult) { res = r; done = true })
		eng.Run(time.Minute)
		if !done {
			t.Fatalf("deadline %v: retrieval hung past it", deadline)
		}
		if res.Complete || !res.Deadline {
			t.Fatalf("deadline %v: result %+v, want incomplete deadline result", deadline, res)
		}
		if !slices.Equal(res.Missing, []int{0, 1, 2, 3}) {
			t.Fatalf("deadline %v: Missing = %v, want [0 1 2 3]", deadline, res.Missing)
		}
		if res.Duration != deadline {
			t.Fatalf("Duration = %v, want the deadline %v", res.Duration, deadline)
		}
	}
}

// TestFacePeerDeathDropsAdvertRoutes: a neighbor a face's circuit breaker
// strikes dead loses every route through it, the routing strategy's
// included — a bfr node stops offering the advert it learned via it,
// as it does when the link layer gives up on it.
func TestFacePeerDeathDropsAdvertRoutes(t *testing.T) {
	eng := sim.NewEngine(1)
	cfg := DefaultConfig()
	cfg.Routing = "bfr"
	n := NewNode(1, eng, rand.New(rand.NewSource(1)), func(*wire.Message) {}, cfg)
	key := testItem().Key()
	f := bloom.NewForCapacity(1, 0.01, 7)
	f.Add(key)
	n.HandleMessage(&wire.Message{Type: wire.TypeQuery, Query: &wire.Query{
		ID: 1, Kind: wire.KindAdvert, TTL: time.Minute, Sender: 2, Origin: 3, Bloom: f}})
	if !n.routing.HasRoute(key, 0, eng.Now()) {
		t.Fatal("the advert heard via node 2 offers no route")
	}
	n.NotePeerFailure(2)
	if !n.routing.HasRoute(key, 0, eng.Now()) {
		t.Fatal("one strike dropped the route; only a dead neighbor loses its routes")
	}
	n.NotePeerFailure(2)
	if n.routing.HasRoute(key, 0, eng.Now()) {
		t.Fatal("node 2 is dead, but its advert still offers a route")
	}
}
