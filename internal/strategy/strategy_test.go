package strategy_test

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"

	"pds/internal/assign"
	"pds/internal/attr"
	"pds/internal/bloom"
	"pds/internal/clock"
	"pds/internal/core"
	"pds/internal/metrics"
	"pds/internal/sim"
	"pds/internal/store"
	"pds/internal/strategy"
	"pds/internal/wire"
)

// scriptedEnv is a deterministic RoutingEnv: a fixed owned-key list, a
// flood recorder, a counting ID source and the earliest Tick the table
// has asked for through TickAt (clock.Never: none).
type scriptedEnv struct {
	self   wire.NodeID
	owned  []string
	nextID uint64
	floods []*wire.Query
	tickAt time.Duration
}

// newScriptedEnv is node 7 owning two items.
func newScriptedEnv() *scriptedEnv {
	return &scriptedEnv{self: 7, owned: []string{"item/a", "item/b"}, nextID: 100, tickAt: clock.Never}
}

func (se *scriptedEnv) Self() wire.NodeID       { return se.self }
func (se *scriptedEnv) OwnedItemKeys() []string { return se.owned }
func (se *scriptedEnv) Flood(q *wire.Query)     { se.floods = append(se.floods, q) }
func (se *scriptedEnv) NewID() uint64           { se.nextID++; return se.nextID }
func (se *scriptedEnv) TickAt(at time.Duration) { se.tickAt = min(se.tickAt, at) }

// newRouting is what a node running the named routing holds: an advert
// table for "bfr", nil for "cdi".
func newRouting(name string, env strategy.RoutingEnv) *strategy.BFR {
	if name == "bfr" {
		return strategy.NewBFR(env)
	}
	return nil
}

// newCaching is what node 3's store running the named caching holds: a
// gate for "opportunistic", nil for "fifo".
func newCaching(name string) *strategy.Opportunistic {
	if name == "opportunistic" {
		return strategy.NewOpportunistic(3)
	}
	return nil
}

// advert builds a frozen content advertisement as the node would
// deliver it: Sender is the relaying hop, Origin the producer, Round
// the hop distance travelled so far.
func advert(origin, sender wire.NodeID, round uint32, keys ...string) *wire.Query {
	f := bloom.NewForCapacity(uint64(len(keys)), strategy.AdvertFPR, 42)
	for _, k := range keys {
		f.Add(k)
	}
	return &wire.Query{
		ID:       9000 + uint64(origin),
		Kind:     wire.KindAdvert,
		TTL:      strategy.AdvertLifetime,
		Sender:   sender,
		Origin:   origin,
		Round:    round,
		HopsLeft: strategy.AdvertScope,
		Bloom:    f,
	}
}

// newNode builds node 1 running the named strategies on a fresh engine;
// sent sees every message it transmits.
func newNode(routing, caching string, sent func(*wire.Message)) (*core.Node, *sim.Engine) {
	eng := sim.NewEngine(1)
	cfg := core.DefaultConfig()
	cfg.Routing, cfg.Caching = routing, caching
	return core.NewNode(1, eng, rand.New(rand.NewSource(1)), sent, cfg), eng
}

// retrieveOverCDI gives node 1, running routing, CDI rows for both
// chunks of an item via neighbor 2 and an advert of the item relayed by
// neighbor 5, retrieves the item for a few seconds and returns the node
// and the receivers of every chunk query it sent.
func retrieveOverCDI(routing string) (*core.Node, []wire.NodeID) {
	var asked []wire.NodeID
	n, eng := newNode(routing, "", func(m *wire.Message) {
		if m.Type == wire.TypeQuery && m.Query.Kind == wire.KindChunk {
			asked = append(asked, m.Query.Receivers...)
		}
	})
	item := attr.NewDescriptor().Set(attr.AttrName, attr.String("clip")).Set(attr.AttrTotalChunks, attr.Int(2))
	n.HandleMessage(&wire.Message{Type: wire.TypeQuery, Query: advert(11, 5, 0, item.Key())})
	for c := 0; c < 2; c++ {
		n.CDI().Update(item.Key(), store.CDIEntry{ChunkID: c, HopCount: 1, Neighbor: 2, ExpireAt: time.Hour})
	}
	n.Retrieve(item, func(core.RetrievalResult) {})
	eng.Run(3 * time.Second)
	return n, asked
}

// askedCDIOnly fails unless retrieveOverCDI's chunk queries went to the
// CDI's neighbor, 2, and nobody else.
func askedCDIOnly(t *testing.T, routing string, asked []wire.NodeID) {
	t.Helper()
	if len(asked) == 0 || slices.ContainsFunc(asked, func(id wire.NodeID) bool { return id != 2 }) {
		t.Fatalf("%s node asked %v for chunks its CDI routes via 2", routing, asked)
	}
}

func TestRegistryDefaultsAndErrors(t *testing.T) {
	if err := strategy.Check("bogus", ""); err == nil ||
		!strings.Contains(err.Error(), "bogus") || !strings.Contains(err.Error(), strategy.DefaultRouting) {
		t.Fatalf("unknown routing error = %v; want name and alternatives", err)
	}
	if err := strategy.Check("", "bogus"); err == nil ||
		!strings.Contains(err.Error(), "bogus") || !strings.Contains(err.Error(), strategy.DefaultCaching) {
		t.Fatalf("unknown caching error = %v; want name and alternatives", err)
	}
	if err := strategy.Check("", ""); err != nil {
		t.Fatalf("Check of the defaults = %v", err)
	}
	if err := strategy.Check(strategy.DefaultRouting, strategy.DefaultCaching); err != nil {
		t.Fatalf("Check(%q, %q) = %v", strategy.DefaultRouting, strategy.DefaultCaching, err)
	}
	if err := strategy.Check(strategy.DefaultCaching, strategy.DefaultRouting); err == nil {
		t.Fatal("Check accepted each plane's default name for the other plane")
	}
}

func TestRegistryNamesSortedCopies(t *testing.T) {
	for _, names := range [][]string{strategy.RoutingNames(), strategy.CachingNames()} {
		if len(names) == 0 {
			t.Fatal("empty registry")
		}
		for i := 1; i < len(names); i++ {
			if names[i-1] >= names[i] {
				t.Fatalf("names not strictly sorted: %v", names)
			}
		}
	}
	// The returned slices are copies: scribbling on one must not leak
	// into the registry.
	strategy.RoutingNames()[0] = "zzz"
	if strategy.RoutingNames()[0] == "zzz" {
		t.Fatal("RoutingNames returned the registry's own slice")
	}
}

// TestEveryStrategyAnswersItsName pins the agreement between the names
// a node is configured with and the labels of its counters, which the
// compare rows and bench labels rely on; the empty name is the default.
func TestEveryStrategyAnswersItsName(t *testing.T) {
	for _, name := range append(strategy.RoutingNames(), "") {
		n, _ := newNode(name, "", func(*wire.Message) {})
		if got := n.StrategyCounters().Routing; got != name && (name != "" || got != strategy.DefaultRouting) {
			t.Fatalf("routing %q labels its counters %q", name, got)
		}
	}
	for _, name := range append(strategy.CachingNames(), "") {
		n, _ := newNode("", name, func(*wire.Message) {})
		if got := n.StrategyCounters().Caching; got != name && (name != "" || got != strategy.DefaultCaching) {
			t.Fatalf("caching %q labels its counters %q", name, got)
		}
	}
}

// routingTranscript drives what a node running one routing holds
// through a fixed op sequence and serializes everything observable —
// routes, counters, floods — so two instances can be compared byte for
// byte.
func routingTranscript(s *strategy.BFR, se *scriptedEnv) string {
	var b strings.Builder
	logRoutes := func(tag string, routes []assign.Option) {
		fmt.Fprintf(&b, "%s:%v\n", tag, routes)
	}
	s.OnPublish()
	s.Tick(1 * time.Second)
	logRoutes("miss", s.Routes("nohit", 10*time.Second))
	s.ObserveAdvert(advert(11, 2, 1, "nohit"), 11*time.Second)
	fmt.Fprintf(&b, "has:%v\n", s.Has("nohit", 12*time.Second))
	logRoutes("adv", s.Routes("nohit", 12*time.Second))
	s.OnNeighborDown(2)
	logRoutes("down", s.Routes("nohit", 13*time.Second))
	s.Tick(40 * time.Second)
	s.Tick(70 * time.Second)
	fmt.Fprintf(&b, "counters:%+v floods:%d\n", s.Counters(), len(se.floods))
	s.Reset()
	fmt.Fprintf(&b, "reset:%+v\n", s.Counters())
	return b.String()
}

// TestRoutingDeterminism is the conformance gate every routing must
// pass: two instances fed the identical call sequence produce identical
// routes, counters and flood counts. Any wall-clock read, unseeded
// randomness or map iteration shows up here as a transcript mismatch.
func TestRoutingDeterminism(t *testing.T) {
	for _, name := range strategy.RoutingNames() {
		t.Run(name, func(t *testing.T) {
			seA, seB := newScriptedEnv(), newScriptedEnv()
			ta := routingTranscript(newRouting(name, seA), seA)
			tb := routingTranscript(newRouting(name, seB), seB)
			if ta != tb {
				t.Fatalf("transcripts diverge:\n--- a ---\n%s--- b ---\n%s", ta, tb)
			}
		})
	}
}

// TestCDIRoutingIsPassThrough: a node running "cdi" holds no advert
// table — every hook of a nil one is a no-op — and asks the neighbors
// its CDI table names.
func TestCDIRoutingIsPassThrough(t *testing.T) {
	var none *strategy.BFR
	none.OnPublish()
	none.ObserveAdvert(advert(11, 2, 1, "nohit"), time.Second)
	none.OnNeighborDown(2)
	none.Reset()
	if next := none.Tick(time.Minute); next != clock.Never {
		t.Fatalf("a nil advert table asked for a tick at %v", next)
	}
	if none.Has("nohit", time.Second) || none.Routes("nohit", time.Second) != nil {
		t.Fatal("a nil advert table offered a route")
	}
	if c := none.Counters(); c != (metrics.StrategyCounters{}) {
		t.Fatalf("nil advert table counters = %+v, want zero", c)
	}

	// The pass-through must not flood, count, or react to anything:
	// that is the byte-identity contract behind the golden rows ...
	sent := 0
	n, eng := newNode("cdi", "", func(*wire.Message) { sent++ })
	n.PublishChunk(attr.NewDescriptor().Set(attr.AttrTotalChunks, attr.Int(1)), 0, []byte("x"))
	// ... nor ever ask for a tick: an idle cdi node holds no timer.
	if eng.Pending() != 0 {
		t.Fatalf("a publishing cdi node holds %d timers", eng.Pending())
	}
	if eng.Run(time.Minute); sent != 0 {
		t.Fatalf("a publishing cdi node sent %d messages", sent)
	}
	// An advert it hears is tabled nowhere.
	n.HandleMessage(&wire.Message{Type: wire.TypeQuery, Query: advert(11, 2, 1, "nohit")})
	want := metrics.StrategyCounters{Routing: strategy.DefaultRouting, Caching: strategy.DefaultCaching}
	if got := n.StrategyCounters(); got != want {
		t.Fatalf("cdi node counters %+v after an advert, want %+v", got, want)
	}
	_, asked := retrieveOverCDI("cdi")
	askedCDIOnly(t, "cdi", asked)
}

func TestBfrAdvertFlooding(t *testing.T) {
	se := newScriptedEnv()
	s := strategy.NewBFR(se)

	// Nothing published yet: housekeeping stays silent and unasked for.
	if next := s.Tick(1 * time.Second); next != clock.Never || se.tickAt != clock.Never {
		t.Fatalf("idle bfr asked for a tick: Tick returned %v, TickAt %v", next, se.tickAt)
	}
	if len(se.floods) != 0 {
		t.Fatalf("unpublished node flooded %d adverts", len(se.floods))
	}
	// A publish marks the content dirty and asks for the next tick, which
	// floods and asks for the re-advertisement.
	s.OnPublish()
	if se.tickAt > 2*time.Second {
		t.Fatalf("publish asked for a tick at %v, want the next one", se.tickAt)
	}
	if next := s.Tick(3 * time.Second); next != 3*time.Second+strategy.AdvertInterval {
		t.Fatalf("Tick after the flood returned %v", next)
	}
	if len(se.floods) != 1 {
		t.Fatalf("floods after publish+tick = %d, want 1", len(se.floods))
	}
	q := se.floods[0]
	if q.Kind != wire.KindAdvert || q.Sender != 7 || q.Origin != 7 ||
		q.HopsLeft != strategy.AdvertScope || q.Bloom == nil {
		t.Fatalf("advert shape wrong: %+v", q)
	}
	for _, k := range se.OwnedItemKeys() {
		if !q.Bloom.Contains(k) {
			t.Fatalf("advert filter misses owned key %q", k)
		}
	}
	// Steady state: no re-flood inside the interval, one after it.
	s.Tick(10 * time.Second)
	if len(se.floods) != 1 {
		t.Fatalf("re-flooded inside the advert interval: %d", len(se.floods))
	}
	s.Tick(3*time.Second + strategy.AdvertInterval)
	if len(se.floods) != 2 {
		t.Fatalf("floods after interval lapse = %d, want 2", len(se.floods))
	}
	if c := s.Counters(); c.AdvertFloods != 2 {
		t.Fatalf("AdvertFloods = %d, want 2", c.AdvertFloods)
	}
}

func TestBfrFallbackRoutes(t *testing.T) {
	// The CDI table wins: a bfr node whose CDI routes an item asks the
	// CDI's neighbor, never the advert's, and counts no fallback.
	n, asked := retrieveOverCDI("bfr")
	askedCDIOnly(t, "bfr", asked)
	if c := n.StrategyCounters(); c.FallbackRoutes != 0 || c.AdvertsHeld != 1 {
		t.Fatalf("CDI-backed item counted fallbacks: %+v", c)
	}

	se := newScriptedEnv()
	se.owned = nil // pure consumer
	s := strategy.NewBFR(se)
	adv := advert(11, 2, 1, "nohit")
	// Snapshot the frozen advert so mutation is detectable.
	before := fmt.Sprintf("%d/%d/%d/%d/%d/%v", adv.ID, adv.Sender, adv.Origin,
		adv.Round, adv.HopsLeft, adv.Bloom)
	s.ObserveAdvert(adv, 5*time.Second)

	// A key matching the advert filter: a route via the advert sender,
	// hops = advert distance (Round+1).
	got := s.Routes("nohit", 6*time.Second)
	if len(got) != 1 || got[0] != (assign.Option{Neighbor: 2, Hop: 2}) {
		t.Fatalf("fallback routes = %v, want [{2 2}]", got)
	}
	if c := s.Counters(); c.FallbackRoutes != 1 || c.AdvertsHeld != 1 {
		t.Fatalf("counters = %+v, want fallbacks=1 held=1", c)
	}
	// Has sees the same routes and counts none of them.
	if !s.Has("nohit", 6*time.Second) || s.Has("unadvertised", 6*time.Second) {
		t.Fatal("Has disagrees with Routes")
	}
	if c := s.Counters(); c.FallbackRoutes != 1 {
		t.Fatalf("Has counted fallbacks: %+v", c)
	}
	// Non-matching keys miss.
	if got := s.Routes("unadvertised", 6*time.Second); len(got) != 0 {
		t.Fatalf("non-advertised key routed: %v", got)
	}
	// Frozen-message contract: observing and routing left the advert
	// (including its Bloom) untouched.
	after := fmt.Sprintf("%d/%d/%d/%d/%d/%v", adv.ID, adv.Sender, adv.Origin,
		adv.Round, adv.HopsLeft, adv.Bloom)
	if before != after {
		t.Fatalf("advert mutated:\nbefore %s\nafter  %s", before, after)
	}

	// A nearer copy of the same origin replaces the row.
	s.ObserveAdvert(advert(11, 5, 0, "nohit"), 7*time.Second)
	if got := s.Routes("nohit", 8*time.Second); len(got) != 1 || got[0] != (assign.Option{Neighbor: 5, Hop: 1}) {
		t.Fatalf("nearer advert not preferred: %v", got)
	}
	// Losing the via-neighbor drops the row.
	s.OnNeighborDown(5)
	if got := s.Routes("nohit", 9*time.Second); len(got) != 0 {
		t.Fatalf("routes via dead neighbor survived: %v", got)
	}
	if c := s.Counters(); c.AdvertsHeld != 0 {
		t.Fatalf("AdvertsHeld after neighbor down = %d, want 0", c.AdvertsHeld)
	}
}

func TestBfrAdvertExpiry(t *testing.T) {
	se := newScriptedEnv()
	se.owned = nil
	s := strategy.NewBFR(se)
	s.ObserveAdvert(advert(11, 2, 0, "nohit"), 0)
	// The row's expiry is asked for on arrival and again by every Tick
	// that keeps it; once it is gone nothing is.
	if se.tickAt != strategy.AdvertLifetime {
		t.Fatalf("advert row asked for a tick at %v, want its expiry", se.tickAt)
	}
	if next := s.Tick(time.Second); next != strategy.AdvertLifetime {
		t.Fatalf("Tick holding the row returned %v", next)
	}
	if got := s.Routes("nohit", strategy.AdvertLifetime-time.Second); len(got) != 1 {
		t.Fatalf("fresh advert unusable: %v", got)
	}
	if got := s.Routes("nohit", strategy.AdvertLifetime+time.Second); len(got) != 0 {
		t.Fatalf("expired advert still routing: %v", got)
	}
	if next := s.Tick(strategy.AdvertLifetime + time.Second); next != clock.Never {
		t.Fatalf("Tick after the last row expired returned %v", next)
	}
	if c := s.Counters(); c.AdvertsHeld != 0 {
		t.Fatalf("tick kept expired advert: %+v", c)
	}
	// Self-originated adverts (echoes of our own flood) are ignored.
	s.ObserveAdvert(advert(7, 3, 0, "nohit"), 0)
	if c := s.Counters(); c.AdvertsHeld != 0 {
		t.Fatalf("self-advert tabled: %+v", c)
	}
}

// TestFifoCacheSemantics: a store without an admission gate — a "fifo"
// node's — admits every payload, and a nil gate counts nothing.
func TestFifoCacheSemantics(t *testing.T) {
	s := store.NewDataStore(0)
	if s.Gate != nil {
		t.Fatal("a new store holds an admission gate")
	}
	for i, k := range []string{"a", "b", "c"} {
		d := attr.NewDescriptor().Set(attr.AttrName, attr.String(k))
		if !s.PutPayloadCached(d, []byte{byte(i)}, 0, time.Hour) {
			t.Fatalf("gateless store declined %q", k)
		}
	}
	if got := s.Gate.Counters(); got != (metrics.StrategyCounters{}) {
		t.Fatalf("fifo counters = %+v, want zero", got)
	}
}

func TestOpportunisticAdmissionDeterministic(t *testing.T) {
	a, b, other := strategy.NewOpportunistic(5), strategy.NewOpportunistic(5), strategy.NewOpportunistic(6)
	admitted, diverged := 0, false
	const keys = 400
	for i := 0; i < keys; i++ {
		k := fmt.Sprintf("item/%d#%d", i%40, i/40)
		ra, rb := a.Admit(k), b.Admit(k)
		if ra != rb {
			t.Fatalf("same-node admission diverged on %q", k)
		}
		if ra != other.Admit(k) {
			diverged = true
		}
		if ra {
			admitted++
		}
	}
	if !diverged {
		t.Fatal("two nodes admitted identical key sets — no cache diversity")
	}
	// The admission hash splits keys roughly in half.
	if admitted < keys/4 || admitted > keys*3/4 {
		t.Fatalf("admitted %d of %d keys — admission badly skewed", admitted, keys)
	}
	if c := a.Counters(); c.CacheAdmitSkips != uint64(keys-admitted) {
		t.Fatalf("CacheAdmitSkips = %d, want %d", c.CacheAdmitSkips, keys-admitted)
	}
}

// cachingTranscript mirrors routingTranscript for admission gates.
func cachingTranscript(c *strategy.Opportunistic) string {
	var b strings.Builder
	for i := 0; i < 12; i++ {
		k := fmt.Sprintf("k%d", (i*5)%4)
		fmt.Fprintf(&b, "admit(%s):%v\n", k, c.Admit(k))
	}
	fmt.Fprintf(&b, "counters:%+v\n", c.Counters())
	return b.String()
}

func TestCachingDeterminism(t *testing.T) {
	for _, name := range strategy.CachingNames() {
		t.Run(name, func(t *testing.T) {
			ta, tb := cachingTranscript(newCaching(name)), cachingTranscript(newCaching(name))
			if ta != tb {
				t.Fatalf("transcripts diverge:\n--- a ---\n%s--- b ---\n%s", ta, tb)
			}
		})
	}
}
