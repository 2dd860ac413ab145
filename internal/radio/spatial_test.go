package radio

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"pds/internal/sim"
	"pds/internal/spatial"
	"pds/internal/wire"
)

// TestNodeIDsAndNeighborsSorted pins the API-level ordering contract:
// Neighbors returns ascending id slices no matter the attach order,
// detach churn, or where nodes sit in the spatial index.
func TestNodeIDsAndNeighborsSorted(t *testing.T) {
	eng := sim.NewEngine(1)
	m := NewMedium(eng, quietConfig())
	// Attach in scrambled order, spread over several grid cells but all
	// within radio range of node 50 at the origin.
	order := []wire.NodeID{50, 9, 301, 4, 77, 150, 12, 203, 61}
	for i, id := range order {
		ang := float64(i)
		m.Attach(id, Pos{X: 20 * ang / 9, Y: 15 - float64(i)*3}, nil)
	}
	m.Detach(77)
	m.Attach(2, Pos{X: 1, Y: 1}, nil)
	ids := append(slices.DeleteFunc(order, func(id wire.NodeID) bool { return id == 77 }), 2)

	assertSorted := func(name string, ids []wire.NodeID) {
		t.Helper()
		for i := 1; i < len(ids); i++ {
			if ids[i-1] >= ids[i] {
				t.Fatalf("%s not strictly ascending: %v", name, ids)
			}
		}
	}
	for _, id := range ids {
		assertSorted(fmt.Sprintf("Neighbors(%d)", id), m.Neighbors(id))
	}
	nbr := m.Neighbors(50)
	if len(nbr) != 8 {
		t.Fatalf("Neighbors(50) = %v, want all 8 others", nbr)
	}
}

// deliveryLog records every successful delivery in order; two runs are
// equivalent iff their logs and stats match exactly.
type deliveryLog struct {
	lines []string
}

func (l *deliveryLog) hook(m *Medium) {
	m.OnDeliver = func(from, to wire.NodeID, msg *wire.Message) {
		l.lines = append(l.lines, fmt.Sprintf("%v %d->%d", m.eng.Now(), from, to))
	}
}

// churn selects a variant of runChurnScenario.
type churn struct {
	allPairs  bool
	noCapture bool
	// check, when set, holds the live sense and collision predicates to
	// the reference ones (mac_test.go) at every transmission start and
	// every delivery.
	check *testing.T
}

// dataMsg is a full 1.4 KB data frame (a virtual fragment): ~1.8 ms on
// the air, against the ~0.2 ms of testMsg's ack.
func dataMsg(from wire.NodeID, n int) *wire.Message {
	return &wire.Message{
		Type:     wire.TypeFragment,
		From:     from,
		Fragment: &wire.Fragment{OrigID: uint64(from)<<32 | uint64(n), Count: 1, Size: 1400},
	}
}

// runChurnScenario drives one medium through a randomized workload —
// clustered nodes, hidden-terminal triples, acks and data frames across
// cells, mobility, detach/reattach (of a transmitting node too, under
// the same id while its frame is still on the air) — and returns the
// delivery log and final stats. Everything is derived from seeded RNGs,
// so two runs with equal seeds are comparable.
func runChurnScenario(seed int64, c churn) (*deliveryLog, Stats) {
	eng := sim.NewEngine(seed)
	cfg := DefaultConfig() // BaseLoss on: RNG draw order is under test
	if c.noCapture {
		cfg.CaptureMargin = 0
	}
	m := NewMedium(eng, cfg)
	if c.allPairs {
		// One cell, its edge far beyond the arena: every query's 3×3 block
		// is every attached radio — the all-pairs scan the index replaced.
		m.grid = spatial.NewGrid(1e6)
	}
	log := &deliveryLog{}
	log.hook(m)

	const n = 60
	rng := rand.New(rand.NewSource(seed + 1000))
	pos := func() Pos {
		// ~300 m square: several sense-range cells, mixing dense
		// clusters with isolated corners and hidden-terminal pairs.
		return Pos{X: rng.Float64()*300 - 50, Y: rng.Float64()*300 - 50}
	}
	var radios []*Radio
	for i := 0; i < n; i++ {
		radios = append(radios, m.Attach(wire.NodeID(i+1), pos(), nil))
	}
	// Hidden-terminal triples inside the crowd: the outer two are each in
	// range of the middle one (44 m) and beyond sense range of each other
	// (88 m > 1.9·45 m), so they never defer to one another.
	for k := 0; k < 3; k++ {
		at := pos()
		for j := 0; j < 3; j++ {
			id := wire.NodeID(len(radios) + 1)
			radios = append(radios, m.Attach(id, Pos{X: at.X + 44*float64(j), Y: at.Y}, nil))
		}
	}
	send := func(i, k int) {
		if k%2 == 0 {
			radios[i].Send(dataMsg(radios[i].id, k))
		} else {
			radios[i].Send(testMsg(radios[i].id, k))
		}
	}
	for i := range radios {
		i := i
		// Staggered bursts so transmissions overlap across cells.
		for b := 0; b < 4; b++ {
			b := b
			eng.Schedule(time.Duration(rng.Intn(40))*time.Millisecond, func() { send(i, i*10+b) })
		}
	}
	// Mobility churn: moves across cell boundaries, detaches, reattaches.
	for k := 0; k < 40; k++ {
		at := time.Duration(rng.Intn(60)) * time.Millisecond
		i := rng.Intn(len(radios))
		id := wire.NodeID(i + 1)
		switch rng.Intn(3) {
		case 0:
			p := pos()
			eng.Schedule(at, func() { m.SetPosition(id, p) })
		case 1:
			eng.Schedule(at, func() { m.Detach(id) })
		default:
			p := pos()
			eng.Schedule(at, func() {
				if _, attached := m.Position(id); !attached {
					radios[i] = m.Attach(id, p, nil)
				}
			})
		}
	}
	// Every seventh transmission start, the sender leaves while its
	// frame is on the air and is back under the same id, a few meters
	// on, before the frame ends — with a frame of its own to send.
	starts := 0
	check := predicateCheck{t: c.check, m: m}
	m.OnTransmit = func(from wire.NodeID, msg *wire.Message, size int) {
		if c.check != nil {
			check.atTransmit(radios[from-1])
		}
		if starts++; starts%7 != 0 {
			return
		}
		i, p := int(from)-1, radios[from-1].pos
		eng.Schedule(60*time.Microsecond, func() { m.Detach(from) })
		eng.Schedule(120*time.Microsecond, func() {
			if _, attached := m.Position(from); !attached {
				radios[i] = m.Attach(from, Pos{X: p.X + 5, Y: p.Y}, nil)
				send(i, 1000+starts)
			}
		})
	}
	if c.check != nil {
		deliver := m.OnDeliver
		m.OnDeliver = func(from, to wire.NodeID, msg *wire.Message) {
			deliver(from, to, msg)
			// The frame being delivered is the sender's record that ends
			// now; a radio sends one frame at a time, so there is one.
			var cur *txRecord
			for _, rec := range m.txOrder {
				if rec.owner.id == from && !rec.owner.gone && rec.end == eng.Now() {
					cur = rec
				}
			}
			check.atDeliver(cur)
		}
	}
	eng.Run(5 * time.Second)
	return log, m.Stats()
}

// requireSameRun fails unless two runs of the churn scenario delivered
// the same frames in the same order with the same counters.
func requireSameRun(t *testing.T, what string, aLog, bLog *deliveryLog, a, b Stats) {
	t.Helper()
	if a != b {
		t.Fatalf("%s: stats diverge\n%+v\n%+v", what, a, b)
	}
	if len(aLog.lines) != len(bLog.lines) {
		t.Fatalf("%s: %d deliveries against %d", what, len(aLog.lines), len(bLog.lines))
	}
	for i := range aLog.lines {
		if aLog.lines[i] != bLog.lines[i] {
			t.Fatalf("%s, delivery %d: %q against %q", what, i, aLog.lines[i], bLog.lines[i])
		}
	}
}

// TestSpatialMatchesAllPairs is the grid-vs-reference equivalence test:
// the same seeded scenario must produce byte-identical delivery
// sequences and stats whether the medium finds a sender's receivers
// through the 3×3 spatial index or the O(n) all-pairs scan it replaced.
// Any superset / ordering / RNG-draw divergence in the index shows up
// here. (Carrier sense and collision checks no longer go through the
// index; TestSenseAndCollisionMatchReference holds those.)
func TestSpatialMatchesAllPairs(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		for _, noCapture := range []bool{false, true} {
			gridLog, gridStats := runChurnScenario(seed, churn{noCapture: noCapture})
			refLog, refStats := runChurnScenario(seed, churn{noCapture: noCapture, allPairs: true})
			requireSameRun(t, fmt.Sprintf("seed %d, grid against all-pairs", seed),
				gridLog, refLog, gridStats, refStats)
			if gridStats.Delivered == 0 || gridStats.Collisions == 0 {
				t.Fatalf("seed %d: degenerate scenario: %+v", seed, gridStats)
			}
		}
	}
}

// TestSenseAndCollisionMatchReference pins the record-walking busyFor,
// busyUntil and collided to the neighborhood-walking bodies they
// replaced, kept in mac_test.go: at every transmission start and every
// delivery of the churn scenario, for every attached radio (and, for
// collided, every live record), both give the same verdict — capture on
// and off, spatial index and all-pairs. Verdicts agreeing at every step
// means the runs agree; that the checks themselves disturb nothing is
// asserted too.
func TestSenseAndCollisionMatchReference(t *testing.T) {
	for seed := int64(1); seed <= 2; seed++ {
		for _, c := range []churn{{}, {noCapture: true}, {allPairs: true}, {allPairs: true, noCapture: true}} {
			what := fmt.Sprintf("seed %d %+v, checked against unchecked", seed, c)
			plainLog, plainStats := runChurnScenario(seed, c)
			c.check = t
			log, stats := runChurnScenario(seed, c)
			requireSameRun(t, what, log, plainLog, stats, plainStats)
		}
	}
}

// TestDetachSilencesInFlight pins the record-ownership semantics: once
// a node detaches, its in-flight frame neither delivers nor interferes,
// and a node reattached under the same id starts with a clean slate.
func TestDetachSilencesInFlight(t *testing.T) {
	eng := sim.NewEngine(3)
	m := NewMedium(eng, quietConfig())
	a := m.Attach(1, Pos{}, nil)
	var got int
	m.Attach(2, Pos{X: 10}, func(*wire.Message) { got++ })
	a.Send(testMsg(1, 0))
	// Detach mid-air: transmitIfClear runs after the backoff, so step
	// until node 1 is transmitting, then pull it.
	for a.phase != macOnAir && eng.Step() {
	}
	if a.phase != macOnAir {
		t.Fatal("node 1 never started transmitting")
	}
	m.Detach(1)
	m.Attach(1, Pos{X: 200}, nil) // same id, far away, mid-flight
	eng.Run(time.Second)
	if got != 0 {
		t.Fatalf("delivered %d frames from a detached sender", got)
	}
	if m.Stats().Delivered != 0 {
		t.Fatalf("stats recorded %d deliveries", m.Stats().Delivered)
	}
}
