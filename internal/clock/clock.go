// Package clock abstracts time for the protocol engine so the same code
// runs under discrete-event simulation (package sim) and wall-clock time
// (the UDP transport). Times are expressed as durations since an
// arbitrary per-process epoch, which is all PDS needs: expiries, timeouts
// and latency measurements are always relative.
package clock

import (
	"math"
	"sync"
	"time"
)

// Never is the deadline of something that has none: it is later than
// every instant a Clock reports, so deadlines compose with min.
const Never = time.Duration(math.MaxInt64)

// Clock provides the current time and timer scheduling. sim.Engine
// satisfies it; Real implements it over the runtime timers.
type Clock interface {
	// Now returns the time since the clock's epoch.
	Now() time.Duration
	// Schedule runs fn after delay and returns an idempotent cancel.
	Schedule(delay time.Duration, fn func()) (cancel func())
}

// Timer is one callback on a clock, armed and disarmed as often as its
// owner likes, where Schedule would make a timer and a cancel per arming.
// After Reset(d) the callback runs once, d later, unless Stop comes
// first; after Stop it does not run until the next Reset, even if it was
// due. Reset is for an idle timer (new, fired or stopped); both are
// called under the clock: from a callback or, on a Real, inside Locked.
type Timer interface {
	Reset(d time.Duration)
	Stop()
}

// NewTimer returns an idle Timer on c that runs fn: the clock's own where
// it has a NewTimer method (sim.Engine, Real) — found by type assertion,
// so that Clock stays two methods — else one Schedule call per Reset.
func NewTimer(c Clock, fn func()) Timer {
	if native, ok := c.(interface{ NewTimer(fn func()) Timer }); ok {
		return native.NewTimer(fn)
	}
	return &scheduleTimer{c: c, fn: fn, cancel: func() {}}
}

// scheduleTimer is a Timer over Schedule and its cancel. A cancel need
// not stop a callback already waiting to run (Real's does not), so each
// arming is numbered and a stopped one's callback finds itself stale.
type scheduleTimer struct {
	c      Clock
	fn     func()
	arming uint64
	cancel func() // of the last arming
}

func (t *scheduleTimer) Reset(d time.Duration) {
	t.arming++
	mine := t.arming
	t.cancel = t.c.Schedule(d, func() {
		if mine == t.arming {
			t.fn()
		}
	})
}

func (t *scheduleTimer) Stop() {
	t.arming++
	t.cancel()
}

// Real is a wall-clock implementation. Callbacks run on timer
// goroutines serialized by an internal mutex, so protocol state driven
// only through a Real clock and its Locked helper is race-free.
type Real struct {
	epoch time.Time
	// mu serializes all callbacks scheduled through this clock.
	mu sync.Mutex
}

// NewReal returns a wall clock with epoch now.
func NewReal() *Real {
	//lint:allow determinism Real is the sanctioned wall-clock bridge for live deployments; sim runs use Sim
	return &Real{epoch: time.Now()}
}

// Now returns the time elapsed since the clock was created.
//
//lint:allow determinism Real is the sanctioned wall-clock bridge for live deployments; sim runs use Sim
func (r *Real) Now() time.Duration { return time.Since(r.epoch) }

// Schedule runs fn after delay under the clock's lock.
func (r *Real) Schedule(delay time.Duration, fn func()) (cancel func()) {
	t := time.AfterFunc(delay, func() {
		r.mu.Lock()
		defer r.mu.Unlock()
		fn()
	})
	return func() { t.Stop() }
}

// realTimer is Real's Timer: one runtime timer, re-armed in place. The
// runtime cannot stop a callback already waiting for the clock's lock;
// due — when the current arming fires, Never when there is none — tells
// that callback the timer was stopped, or stopped and re-armed, meanwhile.
type realTimer struct {
	r   *Real
	fn  func()
	t   *time.Timer
	due time.Duration
}

// NewTimer returns an idle timer; fn runs under the clock's lock.
func (r *Real) NewTimer(fn func()) Timer {
	t := &realTimer{r: r, fn: fn, due: Never}
	t.t = time.AfterFunc(Never, t.fire)
	t.t.Stop()
	return t
}

func (t *realTimer) Reset(d time.Duration) {
	t.due = t.r.Now() + d
	t.t.Reset(d)
}

func (t *realTimer) Stop() {
	t.due = Never
	t.t.Stop()
}

func (t *realTimer) fire() {
	t.r.mu.Lock()
	defer t.r.mu.Unlock()
	switch wait := t.due - t.r.Now(); {
	case t.due == Never: // stopped while this callback waited for the lock
	case wait > 0:
		t.t.Reset(wait) // and re-armed: not yet, and the arming is never dropped
	default:
		t.due = Never
		t.fn()
	}
}

// Locked runs fn under the same lock as scheduled callbacks. External
// events (e.g. frames arriving from a UDP socket) must enter protocol
// code through it.
func (r *Real) Locked(fn func()) {
	r.mu.Lock()
	defer r.mu.Unlock()
	fn()
}
