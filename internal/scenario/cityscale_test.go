package scenario

import (
	"testing"
	"time"
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
