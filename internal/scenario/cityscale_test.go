package scenario

import (
	"slices"
	"testing"
	"time"

	"pds/internal/wire"
)

// TestCityDeterministic pins that a city run is a pure function of its
// seed: the protocol outcome and the exact engine event count must
// match across runs (wall-clock throughput of course differs).
func TestCityDeterministic(t *testing.T) {
	cfg := CityConfig{Nodes: 300, Consumers: 8, QueryInterval: 20 * time.Second}
	a := CityRun(cfg, time.Minute, 7)
	b := CityRun(cfg, time.Minute, 7)
	if a.Sample != b.Sample || a.Events != b.Events ||
		a.Queries != b.Queries || a.Answered != b.Answered {
		t.Fatalf("same-seed city runs diverge:\n%+v\n%+v", a, b)
	}
	if a.Queries == 0 || a.Answered == 0 {
		t.Fatalf("degenerate run: queries=%d answered=%d", a.Queries, a.Answered)
	}
}

// TestCityScaleSmoke10k exercises the full 10 000-node population for a
// sim-minute — enough to touch every layer (grid index under batched
// mobility, dense-slot attach of the whole population, the consumers'
// floods and the soft state they leave) without the bench's sim-hour
// cost. Gated behind -short.
func TestCityScaleSmoke10k(t *testing.T) {
	if testing.Short() {
		t.Skip("10k-node smoke test skipped in -short mode")
	}
	cfg := CityConfig{Nodes: 10000, QueryInterval: 15 * time.Second}
	res := CityRun(cfg, time.Minute, 1)
	t.Logf("10k smoke: events=%d queries=%d answered=%d recall=%.2f wall=%v (%.0f node-s/s, %.0f ev/s)",
		res.Events, res.Queries, res.Answered, res.Sample.Recall, res.Wall,
		res.NodeSecondsPerSec, res.EventsPerSec)
	if res.Events == 0 {
		t.Fatal("no events executed")
	}
	// A city of this size is mostly idle, and idle nodes cost nothing: the
	// events are the 32 consumers' floods and what they leave behind. Any
	// per-node periodic timer — a 1 Hz poll is 1.0 here — breaks this.
	if perNodeSecond := float64(res.Events) / (float64(cfg.Nodes) * time.Minute.Seconds()); perNodeSecond > 0.25 {
		t.Fatalf("%.3f events per node-second (%d events): something ticks on idle nodes", perNodeSecond, res.Events)
	}
	if res.Queries == 0 {
		t.Fatal("no discoveries issued")
	}
	if res.Answered == 0 {
		t.Fatal("no discovery found any content in a seeded city")
	}
	side := cfg.withDefaults().Side()
	d, _ := CityScale(CityConfig{Nodes: 100}, Options{Seed: 2})
	for _, id := range d.sortedPeerIDs() {
		pos, ok := d.Medium.Position(id)
		if !ok {
			t.Fatalf("node %d missing from medium", id)
		}
		if pos.X < 0 || pos.Y < 0 || pos.X > side || pos.Y > side {
			t.Fatalf("node %d out of bounds: %+v", id, pos)
		}
	}
}

// TestCityWalkersKeepOnePosition pins the city step end to end: after a
// minute of walking (60 steps) every radio sits where the waypoint
// model put its walker, and the medium's neighbor lists, read through
// the grid's cells, equal a brute-force scan of those positions.
func TestCityWalkersKeepOnePosition(t *testing.T) {
	d, wp := CityScale(CityConfig{Nodes: 300}, Options{Seed: 3})
	start := slices.Clone(wp.Positions())
	d.Eng.Run(time.Minute)
	moved := 0
	for i, want := range wp.Positions() {
		got, ok := d.Medium.Position(wp.ID(i))
		if !ok || got != want {
			t.Fatalf("walker %d: medium has %+v (attached %v), waypoint %+v", i, got, ok, want)
		}
		if got != start[i] {
			moved++
		}
	}
	if moved < len(start)/2 {
		t.Fatalf("%d of %d walkers moved in a minute", moved, len(start))
	}
	rng := d.Medium.Config().Range
	for i := 0; i < len(wp.Positions()); i += 7 {
		self := wp.Positions()[i]
		var want []wire.NodeID
		for j, p := range wp.Positions() {
			if j != i && p.Dist(self) <= rng {
				want = append(want, wp.ID(j))
			}
		}
		if got := d.Medium.Neighbors(wp.ID(i)); !slices.Equal(got, want) {
			t.Fatalf("walker %d: Neighbors = %v, brute force %v", i, got, want)
		}
	}
}

// TestCityRestartedWalkerWalksOn holds a crashed walker still while it
// is down, restarts it attached where it crashed, and moves it with the
// waypoint model again once it restarts on a fresh radio.
func TestCityRestartedWalkerWalksOn(t *testing.T) {
	d, wp := CityScale(CityConfig{Nodes: 200, PauseMax: time.Millisecond}, Options{Seed: 4})
	const i = 17
	id := wp.ID(i)
	d.Eng.Run(5 * time.Second)
	d.Crash(id)
	at := d.Peers[id].Radio.Pos()
	d.Eng.Run(10 * time.Second)
	if got := d.Peers[id].Radio.Pos(); got != at {
		t.Fatalf("a crashed walker moved: %+v -> %+v", at, got)
	}
	d.Restart(id)
	if got, ok := d.Medium.Position(id); !ok || got != at {
		t.Fatalf("restarted walker attached at %+v (attached %v), crashed at %+v", got, ok, at)
	}
	d.Eng.Run(15 * time.Second)
	got, ok := d.Medium.Position(id)
	if !ok || got != wp.Positions()[i] || got == at {
		t.Fatalf("restarted walker at %+v (attached %v), waypoint %+v, crashed at %+v", got, ok, wp.Positions()[i], at)
	}
}

// BenchmarkCityStep is one mobility step of the 10 000-walker city:
// the waypoint model advances everyone and each walker that moved is
// moved through its radio and, when it crosses a cell edge, re-homed in
// the grid. It warms up over ten simulated minutes first — the walk of
// a sim-city-idle pass — after which a step allocates nothing but, now
// and then, a grid cell's bucket outgrowing the largest crowd it held
// so far (well under one object a step: 0 allocs/op).
func BenchmarkCityStep(b *testing.B) {
	_, _, walk := cityScale(CityConfig{Nodes: 10000}.withDefaults(), Options{Seed: 1})
	for i := 0; i < 600; i++ {
		walk()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		walk()
	}
}
