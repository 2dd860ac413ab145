package mobility

import (
	"math"
	"math/rand"
	"time"

	"pds/internal/radio"
	"pds/internal/wire"
)

// Waypoint is a random-waypoint mobility model for a fixed population,
// advanced in bulk: one Step call moves every node and appends the
// changed positions as a radio.Move batch, which a driver that holds
// the radios applies with Radio.MoveTo (scenario.CityScale) and one
// that holds ids with Medium.SetPositions. The
// event-trace machinery (Profile/Generate) schedules one engine event
// per node per step, which is fine for tens of nodes; at city scale one
// batched event per step interval keeps the event queue proportional to
// time, not population.
//
// All state lives in dense per-node slices indexed 0..n-1; node i maps
// to wire.NodeID FirstID+i.
type Waypoint struct {
	// Width, Height bound the area in meters.
	Width, Height float64
	// SpeedMin, SpeedMax bound each leg's walking speed in m/s.
	SpeedMin, SpeedMax float64
	// PauseMin, PauseMax bound the uniform random pause at each
	// waypoint. PauseMin defaults to zero, which reproduces the
	// historical draw exactly (same RNG consumption, same values).
	PauseMin, PauseMax time.Duration
	// FirstID is the node id of index 0.
	FirstID wire.NodeID

	pos   []radio.Pos
	dst   []radio.Pos
	speed []float64       // m/s for the current leg
	pause []time.Duration // remaining pause at the current waypoint
	rng   *rand.Rand
}

// WaypointConfig parametrizes a Waypoint population. The zero value of
// every optional field (PauseMin in particular) reproduces the
// historical model.
type WaypointConfig struct {
	N                  int
	Width, Height      float64
	SpeedMin, SpeedMax float64
	PauseMin, PauseMax time.Duration
	FirstID            wire.NodeID
}

// NewWaypoint places n nodes uniformly in the area and draws their
// first legs from rng. rng is retained and must not be shared with
// other consumers mid-run.
func NewWaypoint(n int, width, height, speedMin, speedMax float64, pauseMax time.Duration, firstID wire.NodeID, rng *rand.Rand) *Waypoint {
	return NewWaypointFromConfig(WaypointConfig{
		N: n, Width: width, Height: height,
		SpeedMin: speedMin, SpeedMax: speedMax,
		PauseMax: pauseMax, FirstID: firstID,
	}, rng)
}

// NewWaypointFromConfig is NewWaypoint with the full config surface
// (notably PauseMin, which must be set before the first legs draw).
func NewWaypointFromConfig(cfg WaypointConfig, rng *rand.Rand) *Waypoint {
	w := &Waypoint{
		Width: cfg.Width, Height: cfg.Height,
		SpeedMin: cfg.SpeedMin, SpeedMax: cfg.SpeedMax,
		PauseMin: cfg.PauseMin, PauseMax: cfg.PauseMax,
		FirstID: cfg.FirstID,
		pos:     make([]radio.Pos, cfg.N),
		dst:     make([]radio.Pos, cfg.N),
		speed:   make([]float64, cfg.N),
		pause:   make([]time.Duration, cfg.N),
		rng:     rng,
	}
	for i := 0; i < cfg.N; i++ {
		w.pos[i] = w.point()
		w.newLeg(i)
	}
	return w
}

func (w *Waypoint) point() radio.Pos {
	return radio.Pos{X: w.rng.Float64() * w.Width, Y: w.rng.Float64() * w.Height}
}

func (w *Waypoint) newLeg(i int) {
	w.dst[i] = w.point()
	w.speed[i] = w.SpeedMin + w.rng.Float64()*(w.SpeedMax-w.SpeedMin)
	if w.PauseMax > 0 {
		// One Int63n draw over the [PauseMin, PauseMax) span: with
		// PauseMin == 0 this consumes and produces exactly what the
		// pre-PauseMin model did, keeping seeded runs byte-identical.
		span := int64(w.PauseMax - w.PauseMin)
		if span > 0 {
			w.pause[i] = w.PauseMin + time.Duration(w.rng.Int63n(span))
		} else {
			w.pause[i] = w.PauseMin
		}
	}
}

// Positions returns the current position slice, indexed by node. The
// slice is live: Step mutates it in place.
func (w *Waypoint) Positions() []radio.Pos { return w.pos }

// ID returns the node id of index i.
func (w *Waypoint) ID(i int) wire.NodeID { return w.FirstID + wire.NodeID(i) }

// Step advances every node by dt and appends a radio.Move for each node
// that actually moved, returning the extended batch. Nodes are advanced
// in index order, so the batch — and every RNG draw for new legs — is
// deterministic.
func (w *Waypoint) Step(dt time.Duration, moves []radio.Move) []radio.Move {
	secs := dt.Seconds()
	for i := range w.pos {
		if w.pause[i] > 0 {
			w.pause[i] -= dt
			continue
		}
		d := w.speed[i] * secs
		dx, dy := w.dst[i].X-w.pos[i].X, w.dst[i].Y-w.pos[i].Y
		dist := math.Sqrt(dx*dx + dy*dy)
		if dist <= d {
			w.pos[i] = w.dst[i]
			w.newLeg(i)
		} else {
			w.pos[i].X += dx / dist * d
			w.pos[i].Y += dy / dist * d
		}
		moves = append(moves, radio.Move{ID: w.ID(i), Pos: w.pos[i]})
	}
	return moves
}
