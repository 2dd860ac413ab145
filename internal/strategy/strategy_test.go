package strategy

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"pds/internal/bloom"
	"pds/internal/clock"
	"pds/internal/metrics"
	"pds/internal/wire"
)

// scriptedEnv is a deterministic stand-in for the node-side closures:
// a synthetic CDI table keyed on the item key prefix, a fixed owned-key
// list, a flood recorder, a counting ID source and the earliest Tick the
// strategy has asked for through TickAt (clock.Never: none).
type scriptedEnv struct {
	env    *RoutingEnv
	floods []*wire.Query
	tickAt time.Duration
}

func newScriptedEnv(self wire.NodeID) *scriptedEnv {
	se := &scriptedEnv{tickAt: clock.Never}
	nextID := uint64(100)
	se.env = &RoutingEnv{
		Self: self,
		CDIRoutes: func(itemKey string, _ int, _ time.Duration) []Route {
			// Fresh slices every call: strategies may prune in place,
			// exactly like the real CDI table's lookup copies.
			switch {
			case strings.HasPrefix(itemKey, "multi"):
				return []Route{{Neighbor: 2, Hop: 3}, {Neighbor: 4, Hop: 1}, {Neighbor: 6, Hop: 3}}
			case strings.HasPrefix(itemKey, "single"):
				return []Route{{Neighbor: 9, Hop: 2}}
			}
			return nil
		},
		OwnedItemKeys: func() []string { return []string{"item/a", "item/b"} },
		Flood:         func(q *wire.Query) { se.floods = append(se.floods, q) },
		NewID:         func() uint64 { nextID++; return nextID },
		TickAt:        func(at time.Duration) { se.tickAt = min(se.tickAt, at) },
	}
	return se
}

// advert builds a frozen content advertisement as the node would
// deliver it: Sender is the relaying hop, Origin the producer, Round
// the hop distance travelled so far.
func advert(origin, sender wire.NodeID, round uint32, keys ...string) *wire.Query {
	f := bloom.NewForCapacity(uint64(len(keys)), bfrAdvertFPR, 42)
	for _, k := range keys {
		f.Add(k)
	}
	return &wire.Query{
		ID:       9000 + uint64(origin),
		Kind:     wire.KindAdvert,
		TTL:      bfrAdvertLifetime,
		Sender:   sender,
		Origin:   origin,
		Round:    round,
		HopsLeft: bfrAdvertScope,
		Bloom:    f,
	}
}

func TestRegistryDefaultsAndErrors(t *testing.T) {
	r, err := NewRouting("", newScriptedEnv(1).env)
	if err != nil || r.Name() != DefaultRouting {
		t.Fatalf("NewRouting(\"\") = %v, %v; want %q", r, err, DefaultRouting)
	}
	c, err := NewCaching("", 1)
	if err != nil || c.Name() != DefaultCaching {
		t.Fatalf("NewCaching(\"\") = %v, %v; want %q", c, err, DefaultCaching)
	}
	if _, err := NewRouting("bogus", newScriptedEnv(1).env); err == nil ||
		!strings.Contains(err.Error(), "bogus") || !strings.Contains(err.Error(), DefaultRouting) {
		t.Fatalf("unknown routing error = %v; want name and alternatives", err)
	}
	if _, err := NewCaching("bogus", 1); err == nil ||
		!strings.Contains(err.Error(), "bogus") || !strings.Contains(err.Error(), DefaultCaching) {
		t.Fatalf("unknown caching error = %v; want name and alternatives", err)
	}
	if err := Check("", ""); err != nil {
		t.Fatalf("Check of the defaults = %v", err)
	}
	if err := Check(DefaultRouting, DefaultCaching); err != nil {
		t.Fatalf("Check(%q, %q) = %v", DefaultRouting, DefaultCaching, err)
	}
	if err := Check(DefaultCaching, DefaultRouting); err == nil {
		t.Fatal("Check accepted each plane's default name for the other plane")
	}
}

func TestRegistryNamesSortedCopies(t *testing.T) {
	for _, names := range [][]string{RoutingNames(), CachingNames()} {
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
	RoutingNames()[0] = "zzz"
	if RoutingNames()[0] == "zzz" {
		t.Fatal("RoutingNames returned the registry's own slice")
	}
}

// TestEveryStrategyAnswersItsName pins the registry-name/Name()
// agreement the counters and bench labels rely on.
func TestEveryStrategyAnswersItsName(t *testing.T) {
	for _, name := range RoutingNames() {
		r, err := NewRouting(name, newScriptedEnv(1).env)
		if err != nil || r.Name() != name {
			t.Fatalf("NewRouting(%q).Name() = %v (err %v)", name, r, err)
		}
	}
	for _, name := range CachingNames() {
		c, err := NewCaching(name, 1)
		if err != nil || c.Name() != name {
			t.Fatalf("NewCaching(%q).Name() = %v (err %v)", name, c, err)
		}
	}
}

// routingTranscript drives one routing strategy through a fixed op
// sequence and serializes everything observable — selected routes,
// counters, floods — so two instances can be compared byte for byte.
func routingTranscript(s RoutingStrategy, se *scriptedEnv) string {
	var b strings.Builder
	logRoutes := func(tag string, routes []Route) {
		fmt.Fprintf(&b, "%s:%v\n", tag, routes)
	}
	s.OnPublish("item/a", 0)
	s.Tick(1 * time.Second)
	for i := 0; i < 5; i++ {
		s.ObserveQuery("multi/hot", 3, time.Duration(i)*time.Second)
	}
	logRoutes("hot", s.SelectRoutes("multi/hot", 0, 10*time.Second))
	logRoutes("cold", s.SelectRoutes("multi/cold", 0, 10*time.Second))
	logRoutes("miss", s.SelectRoutes("nohit", 0, 10*time.Second))
	s.ObserveAdvert(advert(11, 2, 1, "nohit"), 11*time.Second)
	logRoutes("adv", s.SelectRoutes("nohit", 0, 12*time.Second))
	s.OnNeighborDown(2)
	logRoutes("down", s.SelectRoutes("nohit", 0, 13*time.Second))
	s.Tick(40 * time.Second)
	s.Tick(70 * time.Second)
	logRoutes("late", s.SelectRoutes("multi/hot", 0, 75*time.Second))
	fmt.Fprintf(&b, "counters:%+v floods:%d\n", s.Counters(), len(se.floods))
	s.Reset()
	fmt.Fprintf(&b, "reset:%+v\n", s.Counters())
	return b.String()
}

// TestRoutingDeterminism is the conformance gate every registered
// routing strategy must pass: two instances fed the identical call
// sequence produce identical routes, counters and flood counts. Any
// wall-clock read, unseeded randomness or map iteration in a strategy
// shows up here as a transcript mismatch.
func TestRoutingDeterminism(t *testing.T) {
	for _, name := range RoutingNames() {
		name := name
		t.Run(name, func(t *testing.T) {
			seA, seB := newScriptedEnv(7), newScriptedEnv(7)
			a, err := NewRouting(name, seA.env)
			if err != nil {
				t.Fatal(err)
			}
			b, _ := NewRouting(name, seB.env)
			ta, tb := routingTranscript(a, seA), routingTranscript(b, seB)
			if ta != tb {
				t.Fatalf("transcripts diverge:\n--- a ---\n%s--- b ---\n%s", ta, tb)
			}
		})
	}
}

func TestCDIRoutingIsPassThrough(t *testing.T) {
	se := newScriptedEnv(7)
	s, _ := NewRouting("cdi", se.env)
	got := s.SelectRoutes("multi/x", 0, time.Second)
	want := se.env.CDIRoutes("multi/x", 0, time.Second)
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("cdi routes = %v, want CDI table verbatim %v", got, want)
	}
	// The pass-through must not flood, count, or react to anything:
	// that is the byte-identity contract behind the golden rows.
	s.OnPublish("item/a", 0)
	next := s.Tick(time.Minute)
	s.ObserveAdvert(advert(11, 2, 1, "nohit"), time.Second)
	if len(se.floods) != 0 {
		t.Fatalf("cdi flooded %d queries", len(se.floods))
	}
	// ... nor ever ask for a tick: an idle cdi node holds no timer.
	if next != clock.Never || se.tickAt != clock.Never {
		t.Fatalf("cdi asked for a tick: Tick returned %v, TickAt %v", next, se.tickAt)
	}
	if c := s.Counters(); c != (metrics.StrategyCounters{}) {
		t.Fatalf("cdi counters = %+v, want zero", c)
	}
}

func TestQfreqHotPruningAndDecay(t *testing.T) {
	se := newScriptedEnv(7)
	s, _ := NewRouting("qfreq", se.env)

	// Below the hot threshold nothing changes.
	for i := 0; i < qfreqHotThreshold-1; i++ {
		s.ObserveQuery("multi/x", 3, 0)
	}
	if got := s.SelectRoutes("multi/x", 0, time.Second); len(got) != 3 {
		t.Fatalf("cold item pruned to %v", got)
	}
	// At the threshold, routes collapse to the minimum hop count.
	s.ObserveQuery("multi/x", 3, 0)
	got := s.SelectRoutes("multi/x", 0, time.Second)
	if len(got) != 1 || got[0] != (Route{Neighbor: 4, Hop: 1}) {
		t.Fatalf("hot item routes = %v, want the single hop-1 row", got)
	}
	if c := s.Counters(); c.RouteOverrides != 1 || c.FreqEntries != 1 {
		t.Fatalf("counters = %+v, want overrides=1 freq=1", c)
	}
	// Other items are untouched.
	if got := s.SelectRoutes("multi/other", 0, time.Second); len(got) != 3 {
		t.Fatalf("unrelated item pruned to %v", got)
	}

	// Decay halves the count each interval: 4 -> 2 -> 1 -> dropped. The
	// first decay was asked for at construction, each Tick asks for the
	// next, and a Tick that is not due changes nothing.
	if se.tickAt != qfreqDecayInterval {
		t.Fatalf("qfreq asked for its first tick at %v", se.tickAt)
	}
	if next := s.Tick(qfreqDecayInterval - time.Second); next != qfreqDecayInterval {
		t.Fatalf("early Tick returned %v", next)
	}
	if next := s.Tick(1 * qfreqDecayInterval); next != 2*qfreqDecayInterval {
		t.Fatalf("Tick at the first decay returned %v", next)
	}
	if got := s.SelectRoutes("multi/x", 0, time.Second); len(got) != 3 {
		t.Fatalf("decayed-below-threshold item still pruned: %v", got)
	}
	s.Tick(2 * qfreqDecayInterval)
	s.Tick(3 * qfreqDecayInterval)
	if c := s.Counters(); c.FreqEntries != 0 {
		t.Fatalf("freq entries after full decay = %d, want 0", c.FreqEntries)
	}
}

func TestBfrAdvertFlooding(t *testing.T) {
	se := newScriptedEnv(7)
	s, _ := NewRouting("bfr", se.env)

	// Nothing published yet: housekeeping stays silent and unasked for.
	if next := s.Tick(1 * time.Second); next != clock.Never || se.tickAt != clock.Never {
		t.Fatalf("idle bfr asked for a tick: Tick returned %v, TickAt %v", next, se.tickAt)
	}
	if len(se.floods) != 0 {
		t.Fatalf("unpublished node flooded %d adverts", len(se.floods))
	}
	// A publish marks the content dirty and asks for the next tick, which
	// floods and asks for the re-advertisement.
	s.OnPublish("item/a", 2*time.Second)
	if se.tickAt > 2*time.Second {
		t.Fatalf("publish asked for a tick at %v, want the next one", se.tickAt)
	}
	if next := s.Tick(3 * time.Second); next != 3*time.Second+bfrAdvertInterval {
		t.Fatalf("Tick after the flood returned %v", next)
	}
	if len(se.floods) != 1 {
		t.Fatalf("floods after publish+tick = %d, want 1", len(se.floods))
	}
	q := se.floods[0]
	if q.Kind != wire.KindAdvert || q.Sender != 7 || q.Origin != 7 ||
		q.HopsLeft != bfrAdvertScope || q.Bloom == nil {
		t.Fatalf("advert shape wrong: %+v", q)
	}
	for _, k := range se.env.OwnedItemKeys() {
		if !q.Bloom.Contains(k) {
			t.Fatalf("advert filter misses owned key %q", k)
		}
	}
	// Steady state: no re-flood inside the interval, one after it.
	s.Tick(10 * time.Second)
	if len(se.floods) != 1 {
		t.Fatalf("re-flooded inside the advert interval: %d", len(se.floods))
	}
	s.Tick(3*time.Second + bfrAdvertInterval)
	if len(se.floods) != 2 {
		t.Fatalf("floods after interval lapse = %d, want 2", len(se.floods))
	}
	if c := s.Counters(); c.AdvertFloods != 2 {
		t.Fatalf("AdvertFloods = %d, want 2", c.AdvertFloods)
	}
}

func TestBfrFallbackRoutes(t *testing.T) {
	se := newScriptedEnv(7)
	se.env.OwnedItemKeys = func() []string { return nil } // pure consumer
	s, _ := NewRouting("bfr", se.env)

	adv := advert(11, 2, 1, "nohit")
	// Snapshot the frozen advert so mutation is detectable.
	before := fmt.Sprintf("%d/%d/%d/%d/%d/%v", adv.ID, adv.Sender, adv.Origin,
		adv.Round, adv.HopsLeft, adv.Bloom)
	s.ObserveAdvert(adv, 5*time.Second)

	// CDI has rows for "multi" keys: the table wins, no fallback.
	if got := s.SelectRoutes("multi/x", 0, 6*time.Second); len(got) != 3 {
		t.Fatalf("CDI-backed item overridden: %v", got)
	}
	// CDI-less key matching the advert filter: fallback via the advert
	// sender, hops = advert distance (Round+1).
	got := s.SelectRoutes("nohit", 0, 6*time.Second)
	if len(got) != 1 || got[0] != (Route{Neighbor: 2, Hop: 2}) {
		t.Fatalf("fallback routes = %v, want [{2 2}]", got)
	}
	if c := s.Counters(); c.FallbackRoutes != 1 || c.AdvertsHeld != 1 {
		t.Fatalf("counters = %+v, want fallbacks=1 held=1", c)
	}
	// The advert's own node never tables itself; non-matching keys miss.
	if got := s.SelectRoutes("unadvertised", 0, 6*time.Second); len(got) != 0 {
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
	if got := s.SelectRoutes("nohit", 0, 8*time.Second); len(got) != 1 || got[0] != (Route{Neighbor: 5, Hop: 1}) {
		t.Fatalf("nearer advert not preferred: %v", got)
	}
	// Losing the via-neighbor drops the row.
	s.OnNeighborDown(5)
	if got := s.SelectRoutes("nohit", 0, 9*time.Second); len(got) != 0 {
		t.Fatalf("routes via dead neighbor survived: %v", got)
	}
	if c := s.Counters(); c.AdvertsHeld != 0 {
		t.Fatalf("AdvertsHeld after neighbor down = %d, want 0", c.AdvertsHeld)
	}
}

func TestBfrAdvertExpiry(t *testing.T) {
	se := newScriptedEnv(7)
	se.env.OwnedItemKeys = func() []string { return nil }
	s, _ := NewRouting("bfr", se.env)
	s.ObserveAdvert(advert(11, 2, 0, "nohit"), 0)
	// The row's expiry is asked for on arrival and again by every Tick
	// that keeps it; once it is gone nothing is.
	if se.tickAt != bfrAdvertLifetime {
		t.Fatalf("advert row asked for a tick at %v, want its expiry", se.tickAt)
	}
	if next := s.Tick(time.Second); next != bfrAdvertLifetime {
		t.Fatalf("Tick holding the row returned %v", next)
	}
	if got := s.SelectRoutes("nohit", 0, bfrAdvertLifetime-time.Second); len(got) != 1 {
		t.Fatalf("fresh advert unusable: %v", got)
	}
	if got := s.SelectRoutes("nohit", 0, bfrAdvertLifetime+time.Second); len(got) != 0 {
		t.Fatalf("expired advert still routing: %v", got)
	}
	if next := s.Tick(bfrAdvertLifetime + time.Second); next != clock.Never {
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

func TestFifoCacheSemantics(t *testing.T) {
	c, _ := NewCaching("fifo", 1)
	for _, k := range []string{"a", "b", "c"} {
		if !c.Admit(k) {
			t.Fatalf("fifo declined %q", k)
		}
		c.Touch(k)
	}
	// FIFO always evicts the oldest insertion regardless of touches.
	if v := c.Victim([]string{"a", "b", "c"}); v != 0 {
		t.Fatalf("fifo victim = %d, want 0", v)
	}
	if got := c.Counters(); got != (metrics.StrategyCounters{}) {
		t.Fatalf("fifo counters = %+v, want zero", got)
	}
}

func TestLRUCacheSemantics(t *testing.T) {
	c, _ := NewCaching("lru", 1)
	order := []string{"a", "b", "c"}
	c.Touch("a")
	c.Touch("b")
	// Never-accessed keys evict before any accessed key.
	if v := c.Victim(order); v != 2 {
		t.Fatalf("victim = %d (%q), want the never-accessed c", v, order[v])
	}
	c.Touch("c")
	if v := c.Victim(order); v != 0 {
		t.Fatalf("victim = %d, want the least-recently-used a", v)
	}
	c.Touch("a")
	if v := c.Victim(order); v != 1 {
		t.Fatalf("victim after re-touch = %d, want b", v)
	}
	// Forget returns a key to never-accessed (zero) state.
	c.Forget("c")
	if v := c.Victim(order); v != 2 {
		t.Fatalf("victim after forget = %d, want the forgotten c", v)
	}
	// Reset wipes everything: all-zero ties resolve to the earliest
	// insertion index.
	c.Reset()
	if v := c.Victim(order); v != 0 {
		t.Fatalf("victim after reset = %d, want 0", v)
	}
}

func TestLFUCacheSemantics(t *testing.T) {
	c, _ := NewCaching("lfu", 1)
	order := []string{"a", "b", "c"}
	for i := 0; i < 3; i++ {
		c.Touch("a")
	}
	c.Touch("b")
	c.Touch("c")
	c.Touch("c")
	if v := c.Victim(order); v != 1 {
		t.Fatalf("victim = %d, want the least-frequently-used b", v)
	}
	c.Touch("b")
	c.Touch("b")
	if v := c.Victim(order); v != 2 {
		t.Fatalf("victim = %d, want c after b overtakes it", v)
	}
}

func TestOpportunisticAdmissionDeterministic(t *testing.T) {
	a, _ := NewCaching("opportunistic", 5)
	b, _ := NewCaching("opportunistic", 5)
	other, _ := NewCaching("opportunistic", 6)
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

// cachingTranscript mirrors routingTranscript for cache strategies.
func cachingTranscript(c CacheStrategy) string {
	var b strings.Builder
	order := []string{"k0", "k1", "k2", "k3"}
	for i := 0; i < 12; i++ {
		k := order[(i*5)%4]
		fmt.Fprintf(&b, "admit(%s):%v\n", k, c.Admit(k))
		c.Touch(k)
		fmt.Fprintf(&b, "victim:%d\n", c.Victim(order))
	}
	c.Forget("k1")
	fmt.Fprintf(&b, "after-forget:%d\n", c.Victim(order))
	c.Reset()
	fmt.Fprintf(&b, "after-reset:%d counters:%+v\n", c.Victim(order), c.Counters())
	return b.String()
}

func TestCachingDeterminism(t *testing.T) {
	for _, name := range CachingNames() {
		name := name
		t.Run(name, func(t *testing.T) {
			a, err := NewCaching(name, 3)
			if err != nil {
				t.Fatal(err)
			}
			b, _ := NewCaching(name, 3)
			ta, tb := cachingTranscript(a), cachingTranscript(b)
			if ta != tb {
				t.Fatalf("transcripts diverge:\n--- a ---\n%s--- b ---\n%s", ta, tb)
			}
		})
	}
}
