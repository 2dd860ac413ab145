package clock_test

import (
	"testing"
	"time"

	"pds/internal/clock"
	"pds/internal/sim"
)

// plain hides everything of a clock but Clock's two methods, so that
// clock.NewTimer has to build its timer out of Schedule.
type plain struct{ c clock.Clock }

func (p plain) Now() time.Duration { return p.c.Now() }
func (p plain) Schedule(d time.Duration, fn func()) func() {
	return p.c.Schedule(d, fn)
}

// timerBed is one clock under the contract test: the clock a Timer is
// made on, how code gets under it, and how a span of its time passes.
type timerBed struct {
	name   string
	clk    clock.Clock
	locked func(func())
	pass   func(time.Duration)
	unit   time.Duration // long enough to tell before from after
}

func timerBeds() []timerBed {
	direct := func(fn func()) { fn() }
	onEngine := func(name string, wrap func(*sim.Engine) clock.Clock) timerBed {
		eng := sim.NewEngine(1)
		return timerBed{name, wrap(eng), direct, func(d time.Duration) { eng.Run(eng.Now() + d) }, time.Second}
	}
	onReal := func(name string, wrap func(*clock.Real) clock.Clock) timerBed {
		r := clock.NewReal()
		return timerBed{name, wrap(r), r.Locked, time.Sleep, 50 * time.Millisecond}
	}
	return []timerBed{
		onEngine("engine", func(e *sim.Engine) clock.Clock { return e }),
		onEngine("schedule-on-engine", func(e *sim.Engine) clock.Clock { return plain{e} }),
		onReal("real", func(r *clock.Real) clock.Clock { return r }),
		onReal("schedule-on-real", func(r *clock.Real) clock.Clock { return plain{r} }),
	}
}

// TestTimerContract holds every Timer clock.NewTimer can return — the
// engine's, Real's, and the one built on a bare Clock's Schedule — to the
// same contract: one callback per arming, at its time; none after Stop;
// a Reset after Stop fires at the new time only; the callback may re-arm
// its own timer.
func TestTimerContract(t *testing.T) {
	for _, bed := range timerBeds() {
		t.Run(bed.name, func(t *testing.T) {
			t.Parallel()
			u := bed.unit
			var tm clock.Timer
			var fired []time.Duration // the clock's time at each callback
			again := 0                // armings the callback still has to make itself
			tm = clock.NewTimer(bed.clk, func() {
				fired = append(fired, bed.clk.Now())
				if again > 0 {
					again--
					tm.Reset(u)
				}
			})
			var armed time.Duration
			do := func(fn func()) { bed.locked(func() { armed = bed.clk.Now(); fn() }) }
			// want checks the callback count and returns the last one's time.
			want := func(n int, when string) (last time.Duration) {
				t.Helper()
				bed.locked(func() {
					if len(fired) != n {
						t.Fatalf("%s: %d callbacks, want %d", when, len(fired), n)
					}
					if n > 0 {
						last = fired[n-1]
					}
				})
				return last
			}

			bed.pass(2 * u)
			want(0, "never armed")

			do(func() { tm.Reset(2 * u) })
			bed.pass(u)
			want(0, "half way to the first arming")
			bed.pass(3 * u)
			if at := want(1, "after the first arming"); at < armed+2*u {
				t.Fatalf("armed at %v for %v, fired at %v", armed, 2*u, at)
			}
			bed.pass(4 * u)
			want(1, "long after the first arming")

			do(func() { tm.Reset(2 * u) })
			bed.pass(u)
			do(func() { tm.Stop(); tm.Stop() })
			bed.pass(4 * u)
			want(1, "after Stop")

			do(func() { tm.Reset(u); tm.Stop(); tm.Reset(4 * u) })
			bed.pass(2 * u)
			want(1, "past the stopped arming, before the new one")
			bed.pass(4 * u)
			if at := want(2, "after the arming that followed Stop"); at < armed+4*u {
				t.Fatalf("re-armed at %v for %v, fired at %v", armed, 4*u, at)
			}

			do(func() { again = 2; tm.Reset(u) })
			bed.pass(6 * u)
			want(5, "after a callback that re-armed its timer twice")
			do(func() { tm.Stop() }) // idle: nothing to stop
			bed.pass(2 * u)
			want(5, "at the end")
		})
	}
}

// TestTimerStaleFire forces the one thing the runtime cannot prevent: a
// callback that has started and is waiting for the clock's lock when its
// timer is stopped and armed again. It must not run the function before
// the new deadline, and the new arming must not be lost. The timer over
// Real's Schedule, whose cancel cannot stop that callback either, is
// held to the same.
func TestTimerStaleFire(t *testing.T) {
	for _, wrap := range []struct {
		name string
		clk  func(*clock.Real) clock.Clock
	}{
		{"real", func(r *clock.Real) clock.Clock { return r }},
		{"schedule-on-real", func(r *clock.Real) clock.Clock { return plain{r} }},
	} {
		t.Run(wrap.name, func(t *testing.T) {
			t.Parallel()
			const later = 150 * time.Millisecond
			r := clock.NewReal()
			var fired []time.Duration
			tm := clock.NewTimer(wrap.clk(r), func() { fired = append(fired, r.Now()) })
			var armed time.Duration
			r.Locked(func() {
				tm.Reset(time.Millisecond)
				time.Sleep(30 * time.Millisecond) // due and started: it waits for the lock held here
				tm.Stop()
				tm.Reset(later)
				armed = r.Now()
			})
			time.Sleep(later / 2)
			r.Locked(func() {
				if len(fired) != 0 {
					t.Fatalf("callback ran %v after a re-arming for %v", fired[0]-armed, later)
				}
			})
			time.Sleep(later)
			r.Locked(func() {
				if len(fired) != 1 || fired[0] < armed+later {
					t.Fatalf("callbacks at %v, want one no earlier than %v", fired, armed+later)
				}
			})

			// Stopped and left stopped while its callback waits: nothing runs.
			r.Locked(func() {
				tm.Reset(time.Millisecond)
				time.Sleep(30 * time.Millisecond)
				tm.Stop()
			})
			time.Sleep(30 * time.Millisecond)
			r.Locked(func() {
				if len(fired) != 1 {
					t.Fatalf("%d callbacks after a Stop that found the callback waiting, want 1", len(fired))
				}
			})
		})
	}
}
