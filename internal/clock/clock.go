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

// Locked runs fn under the same lock as scheduled callbacks. External
// events (e.g. frames arriving from a UDP socket) must enter protocol
// code through it.
func (r *Real) Locked(fn func()) {
	r.mu.Lock()
	defer r.mu.Unlock()
	fn()
}
