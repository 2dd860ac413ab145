package mobility

import (
	"math/rand"
	"testing"
	"time"

	"pds/internal/radio"
)

func stepAll(w *Waypoint, steps int, dt time.Duration) []radio.Move {
	var moves []radio.Move
	for s := 0; s < steps; s++ {
		moves = w.Step(dt, moves[:0])
	}
	return moves
}

// TestWaypointPauseMinBounds checks that every drawn pause lands in
// [PauseMin, PauseMax).
func TestWaypointPauseMinBounds(t *testing.T) {
	lo, hi := 5*time.Second, 8*time.Second
	w := NewWaypointFromConfig(WaypointConfig{
		N: 30, Width: 100, Height: 100,
		SpeedMin: 10, SpeedMax: 20, // fast legs: many waypoint arrivals
		PauseMin: lo, PauseMax: hi, FirstID: 1,
	}, rand.New(rand.NewSource(11)))
	for i, p := range w.pause {
		if p < lo || p >= hi {
			t.Fatalf("initial pause[%d] = %v outside [%v, %v)", i, p, lo, hi)
		}
	}
	// Drain pauses and trigger fresh legs; re-check the draws.
	stepAll(w, 600, time.Second)
	for i, p := range w.pause {
		if p >= hi {
			t.Fatalf("pause[%d] = %v >= %v after stepping", i, p, hi)
		}
	}
}

// TestWaypointPauseEqualBounds: PauseMin == PauseMax pins the pause
// without consuming RNG for it.
func TestWaypointPauseEqualBounds(t *testing.T) {
	w := NewWaypointFromConfig(WaypointConfig{
		N: 5, Width: 100, Height: 100,
		SpeedMin: 1, SpeedMax: 2,
		PauseMin: 3 * time.Second, PauseMax: 3 * time.Second, FirstID: 1,
	}, rand.New(rand.NewSource(3)))
	for i, p := range w.pause {
		if p != 3*time.Second {
			t.Fatalf("pause[%d] = %v, want 3s", i, p)
		}
	}
}

// TestWaypointSameSeedDeterministic: identical configs and seeds yield
// identical trajectories.
func TestWaypointSameSeedDeterministic(t *testing.T) {
	mk := func() *Waypoint {
		return NewWaypointFromConfig(WaypointConfig{
			N: 25, Width: 300, Height: 300,
			SpeedMin: 1, SpeedMax: 4,
			PauseMin: 2 * time.Second, PauseMax: 10 * time.Second, FirstID: 1,
		}, rand.New(rand.NewSource(42)))
	}
	a, b := mk(), mk()
	for s := 0; s < 300; s++ {
		ma := a.Step(time.Second, nil)
		mb := b.Step(time.Second, nil)
		if len(ma) != len(mb) {
			t.Fatalf("step %d: move counts differ", s)
		}
		for i := range ma {
			if ma[i] != mb[i] {
				t.Fatalf("step %d move %d differs", s, i)
			}
		}
	}
}
