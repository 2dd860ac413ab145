// Package sim implements a deterministic discrete-event simulation
// engine: a virtual clock, a hierarchical timing-wheel event queue and
// a seeded random source.
//
// The engine is single-threaded by design. Every protocol node is a set
// of callbacks scheduled on the engine, so a whole-network experiment is
// reproducible bit-for-bit from its seed — the property every figure in
// EXPERIMENTS.md relies on. The same protocol code runs in real time by
// substituting a wall-clock implementation of the core.Clock interface.
package sim

import (
	"fmt"
	"math/rand"
	"time"

	"pds/internal/clock"
)

// event is a scheduled callback.
type event struct {
	at   time.Duration
	seq  uint64 // FIFO tie-break for events at the same instant
	fn   func()
	dead bool   // cancelled
	next *event // intrusive slot list link (see wheel.go)
	// timer is set on a borrowed event (see Timer); Stop leaves it set.
	timer *Timer
}

// Engine is a discrete-event scheduler with a virtual clock starting at
// zero. It is not safe for concurrent use; everything runs on the
// caller's goroutine inside Run.
type Engine struct {
	now    time.Duration
	seq    uint64
	events wheelQueue
	rng    *rand.Rand
	// processed counts executed (non-cancelled) events, a cheap runaway
	// guard and progress signal for tests.
	processed uint64
}

// NewEngine returns an engine seeded deterministically.
func NewEngine(seed int64) *Engine {
	return &Engine{rng: rand.New(rand.NewSource(seed))}
}

// Now returns the current virtual time.
func (e *Engine) Now() time.Duration { return e.now }

// Rand returns the engine's deterministic random source.
func (e *Engine) Rand() *rand.Rand { return e.rng }

// Schedule runs fn after delay (>= 0) of virtual time and returns a
// cancel function. Cancel is idempotent and a no-op once fn has run.
func (e *Engine) Schedule(delay time.Duration, fn func()) (cancel func()) {
	if delay < 0 {
		delay = 0
	}
	ev := &event{at: e.now + delay, seq: e.seq, fn: fn}
	e.seq++
	e.events.push(ev)
	return func() {
		if !ev.dead && ev.fn != nil {
			e.events.cancel(ev)
		}
	}
}

// Timer is a caller-owned, reusable event, the engine's clock.Timer:
// made once by NewTimer, armed by Reset and disarmed by Stop as often as
// its owner likes — from inside its own callback too — without
// allocating. It is for a client with at most one event of a kind pending
// at a time (a radio's MAC step, a link record's retry), where Schedule
// would make an event and a cancel closure per arming.
//
// A Timer is pending from Reset until Stop or until its callback is about
// to run, and holds an event borrowed from the wheel's free list for just
// that long. The wheel cancels lazily — a dead event stays in its slot
// until the cursor reaches it — so Stop marks the event dead and lets go,
// a Reset after Stop borrows another, and the wheel takes events back as
// it drops carcasses and when one fires. Schedule's events are never
// recycled: a stale cancel must not reach another arming.
type Timer struct {
	eng *Engine
	run func()
	ev  *event // borrowed while pending
}

// NewTimer returns an idle *Timer that runs fn each time it fires, as clock.NewTimer asks.
func (e *Engine) NewTimer(fn func()) clock.Timer {
	return &Timer{eng: e, run: fn}
}

// Reset arms the timer to fire after delay (>= 0) of virtual time. It
// takes its sequence number from the same counter as Schedule, so a
// Timer fires exactly where the Schedule call it replaces would have.
// Reset on a pending timer panics: it is a bug in the owner.
//
//pds:hotpath
func (t *Timer) Reset(delay time.Duration) {
	if t.ev != nil {
		panic("sim: Reset on a pending Timer")
	}
	if delay < 0 {
		delay = 0
	}
	e := t.eng
	ev := e.events.borrow()
	ev.at, ev.seq, ev.fn, ev.timer = e.now+delay, e.seq, t.run, t
	e.seq++
	t.ev = ev
	e.events.push(ev)
}

// Stop disarms a pending timer (a no-op on an idle one); Reset may follow at once.
//
//pds:hotpath
func (t *Timer) Stop() {
	if ev := t.ev; ev != nil {
		t.ev, ev.fn = nil, nil
		t.eng.events.cancel(ev)
	}
}

// Pending reports whether the timer is armed and has not fired yet.
func (t *Timer) Pending() bool { return t.ev != nil }

// Step executes the next pending event, advancing the clock to it. It
// reports whether an event was executed (false when the queue is empty).
func (e *Engine) Step() bool {
	ev := e.events.pop()
	if ev == nil {
		return false
	}
	if ev.at < e.now {
		// Defensive: the wheel ordering makes this impossible; a
		// violation means engine state was corrupted externally.
		panic(fmt.Sprintf("sim: event at %v before now %v", ev.at, e.now))
	}
	e.now = ev.at
	e.processed++
	fn := ev.fn
	// Executed: the returned cancel must become a no-op, and a Timer is
	// idle, its event back with the wheel, before a callback that may Reset it.
	ev.fn = nil
	if ev.timer != nil {
		ev.timer.ev = nil
		e.events.release(ev)
	}
	fn()
	return true
}

// Run executes events until the queue empties or the virtual clock
// passes deadline. It returns the number of events executed. Events
// scheduled exactly at the deadline still run.
func (e *Engine) Run(deadline time.Duration) uint64 {
	start := e.processed
	for {
		at, ok := e.events.peekAt()
		if !ok || at > deadline {
			break
		}
		e.Step()
	}
	if e.now < deadline {
		e.now = deadline
	}
	return e.processed - start
}

// RunUntil executes events until stop() returns true, the queue empties,
// or the clock passes deadline. stop is evaluated after every event.
func (e *Engine) RunUntil(deadline time.Duration, stop func() bool) uint64 {
	start := e.processed
	for !stop() {
		at, ok := e.events.peekAt()
		if !ok || at > deadline {
			break
		}
		e.Step()
	}
	return e.processed - start
}

// Pending reports the number of live scheduled events. It is pure
// introspection: no queue state is mutated, so interleaving Pending
// with Schedule/Step/cancel never perturbs event order.
func (e *Engine) Pending() int { return e.events.live }

// Processed returns the count of executed events so far.
func (e *Engine) Processed() uint64 { return e.processed }
