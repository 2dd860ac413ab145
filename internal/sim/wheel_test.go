package sim

import (
	"container/heap"
	"fmt"
	"math/rand"
	"testing"
	"time"
)

// refEvent / refHeap are the pre-wheel binary-heap scheduler, kept as
// the reference model: same (at, seq) ordering, same lazy-cancel
// semantics. The property test below runs randomized workloads through
// the engine and this model in lockstep and demands identical
// execution traces.
type refEvent struct {
	at   time.Duration
	seq  uint64
	id   int
	dead bool
}

type refHeap []*refEvent

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)   { *h = append(*h, x.(*refEvent)) }
func (h *refHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}

// refModel mirrors Engine semantics on top of refHeap.
type refModel struct {
	now       time.Duration
	seq       uint64
	events    refHeap
	processed uint64
}

func (m *refModel) schedule(delay time.Duration, id int) *refEvent {
	if delay < 0 {
		delay = 0
	}
	ev := &refEvent{at: m.now + delay, seq: m.seq, id: id}
	m.seq++
	heap.Push(&m.events, ev)
	return ev
}

// step pops the next live event, advances the clock, and returns its
// id, or -1 when empty.
func (m *refModel) step() (int, time.Duration) {
	for len(m.events) > 0 {
		ev := heap.Pop(&m.events).(*refEvent)
		if ev.dead {
			continue
		}
		m.now = ev.at
		m.processed++
		return ev.id, ev.at
	}
	return -1, 0
}

func (m *refModel) pending() int {
	n := 0
	for _, ev := range m.events {
		if !ev.dead {
			n++
		}
	}
	return n
}

// newTimer is Engine.NewTimer as the *Timer it always is, for tests that
// ask whether it is pending.
func newTimer(e *Engine, fn func()) *Timer { return e.NewTimer(fn).(*Timer) }

// lockTimer is one reusable Timer of the lockstep test. Each arming gets
// a fresh event id; chain holds the delays with which the callback will
// re-arm the timer from inside itself, rearmed what it last did, for the
// test to replay on the reference model, and ref the reference's event
// for the current arming, for Stop to kill.
type lockTimer struct {
	t       *Timer
	id      int
	ref     *refEvent
	chain   []time.Duration
	rearmed bool
	delay   time.Duration
}

// TestWheelMatchesReferenceHeap drives the timing-wheel engine and the
// reference heap model with the same randomized workload — bursts of
// schedules at delays spanning every wheel level, cancels, nested
// re-scheduling, and reusable Timers armed from outside, re-armed from
// inside their own callbacks (at delay 0 too), stopped, and armed again
// straight after a Stop — and checks that both execute the same events
// in the same order at the same times, with the same pending and
// processed counts. A Timer takes its seq from the engine's counter, so
// to the reference it is one more schedule call, and a Stop one more
// cancel: a stopped arming that fired anyway would run an id the
// reference never pops.
func TestWheelMatchesReferenceHeap(t *testing.T) {
	delays := []time.Duration{
		0, 1, 100, // sub-tick
		5 * time.Microsecond, 60 * time.Microsecond, // level 0
		300 * time.Microsecond, 5 * time.Millisecond, // levels 1–2
		900 * time.Millisecond, 30 * time.Second, // levels 3–4
		20 * time.Minute, 7 * time.Hour, // levels 5–6
		200 * 24 * time.Hour, 30 * 365 * 24 * time.Hour, // levels 7–8
	}
	for trial := 0; trial < 40; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		eng := NewEngine(1)
		ref := &refModel{}
		randDelay := func() time.Duration {
			d := delays[rng.Intn(len(delays))]
			if eng.Now() > 100*365*24*time.Hour {
				d %= time.Hour // a time.Duration ends at 292 years
			}
			if rng.Intn(2) == 0 {
				// Bare table delays make same-instant ties (and exact
				// zeros) common: FIFO by seq is what is under test.
				return d
			}
			return d + time.Duration(rng.Intn(5000))
		}

		var gotIDs []int
		nextID := 0
		type pair struct {
			cancelEng func()
			refEv     *refEvent
		}
		var cancellable []pair

		scheduleOne := func(delay time.Duration) {
			id := nextID
			nextID++
			cancelEng := eng.Schedule(delay, func() { gotIDs = append(gotIDs, id) })
			refEv := ref.schedule(delay, id)
			cancellable = append(cancellable, pair{cancelEng, refEv})
		}

		timers := make([]*lockTimer, 8)
		timerOf := make(map[int]*lockTimer) // event id -> the timer armed under it
		for i := range timers {
			lt := &lockTimer{}
			lt.t = newTimer(eng, func() {
				gotIDs = append(gotIDs, lt.id)
				lt.rearmed = len(lt.chain) > 0
				if lt.rearmed {
					lt.delay, lt.chain = lt.chain[0], lt.chain[1:]
					lt.id = nextID
					nextID++
					lt.t.Reset(lt.delay)
				}
			})
			timers[i] = lt
		}
		armTimer := func(lt *lockTimer) {
			lt.chain = lt.chain[:0]
			for n := rng.Intn(4); n > 0; n-- {
				lt.chain = append(lt.chain, randDelay())
			}
			delay := randDelay()
			lt.id = nextID
			nextID++
			timerOf[lt.id] = lt
			lt.t.Reset(delay)
			lt.ref = ref.schedule(delay, lt.id)
		}

		// stepBoth steps the reference, then the engine, and replays on
		// the reference what the engine's callback did. It reports
		// whether an event ran.
		stepBoth := func(where string) bool {
			wantID, wantAt := ref.step()
			before := len(gotIDs)
			stepped := eng.Step()
			if wantID == -1 {
				if stepped {
					t.Fatalf("trial %d %s: engine stepped with empty reference", trial, where)
				}
				return false
			}
			if !stepped || len(gotIDs) != before+1 || gotIDs[before] != wantID {
				t.Fatalf("trial %d %s: engine ran %v, reference wants id %d",
					trial, where, gotIDs[before:], wantID)
			}
			if eng.Now() != wantAt {
				t.Fatalf("trial %d %s: clock %v, reference %v", trial, where, eng.Now(), wantAt)
			}
			if lt := timerOf[wantID]; lt != nil && lt.rearmed {
				timerOf[lt.id] = lt
				lt.ref = ref.schedule(lt.delay, lt.id)
			}
			return true
		}
		checkCounts := func(where string) {
			if eng.Pending() != ref.pending() {
				t.Fatalf("trial %d %s: Pending=%d, reference=%d",
					trial, where, eng.Pending(), ref.pending())
			}
			if eng.Processed() != ref.processed {
				t.Fatalf("trial %d %s: Processed=%d, reference=%d",
					trial, where, eng.Processed(), ref.processed)
			}
		}

		// Seed an initial burst, then interleave steps with schedules,
		// timer armings and cancels.
		for i := 0; i < 30; i++ {
			scheduleOne(randDelay())
		}
		for op := 0; op < 800; op++ {
			switch rng.Intn(14) {
			case 0, 1, 2:
				scheduleOne(randDelay())
			case 3:
				if len(cancellable) > 0 {
					p := cancellable[rng.Intn(len(cancellable))]
					p.cancelEng()
					p.refEv.dead = true
				}
			case 4, 5:
				if lt := timers[rng.Intn(len(timers))]; !lt.t.Pending() {
					armTimer(lt)
				}
			case 6, 7:
				lt := timers[rng.Intn(len(timers))]
				was := lt.t.Pending()
				lt.t.Stop() // a no-op on an idle timer
				if lt.t.Pending() {
					t.Fatalf("trial %d op %d: timer pending after Stop", trial, op)
				}
				if was {
					lt.ref.dead = true
					if rng.Intn(2) == 0 {
						armTimer(lt) // while the stopped arming's event is still in the wheel
					}
				}
			default:
				stepBoth(fmt.Sprintf("op %d", op))
			}
			checkCounts(fmt.Sprintf("op %d", op))
		}
		// Drain both completely; the tails must agree too.
		for stepBoth("drain") {
			checkCounts("drain")
		}
		if eng.Pending() != 0 {
			t.Fatalf("trial %d: Pending=%d after drain", trial, eng.Pending())
		}
		// Drained, the wheel has every Timer event back, blank.
		for ev := eng.events.free; ev != nil; ev = ev.next {
			if ev.fn != nil || ev.timer != nil || ev.dead {
				t.Fatalf("trial %d: event on the free list not blank: %+v", trial, ev)
			}
		}
		for _, lt := range timers {
			if lt.t.ev != nil {
				t.Fatalf("trial %d: idle timer still holds an event", trial)
			}
		}
	}
}

// freeEvents counts the wheel's free list.
func freeEvents(e *Engine) (n int) {
	for ev := e.events.free; ev != nil; ev = ev.next {
		n++
	}
	return n
}

// TestTimerStoppedAMillionTimes arms and stops one timer a million times,
// the cursor passing each carcass before the next arming (as an ack
// retires a link's retry timer long before it was due): the timer never
// fires, the one event it ever borrowed goes back and forth, and nothing
// is allocated.
func TestTimerStoppedAMillionTimes(t *testing.T) {
	delays := []time.Duration{
		0, 9 * time.Microsecond, 27 * time.Microsecond, 603 * time.Microsecond,
		2 * time.Millisecond, 700 * time.Millisecond, 40 * time.Second, time.Hour,
	}
	e := NewEngine(1)
	tm := newTimer(e, func() { t.Fatal("a stopped timer fired") })
	i := 0
	pair := func() {
		d := delays[i%len(delays)]
		i++
		tm.Reset(d)
		tm.Stop()
		e.Run(e.Now() + d + time.Microsecond)
	}
	for i < 1_000_000 {
		pair()
	}
	if n := freeEvents(e); n != 1 || e.Pending() != 0 || e.Processed() != 0 {
		t.Fatalf("%d events on the free list, %d pending, %d run; want 1, 0, 0", n, e.Pending(), e.Processed())
	}
	if avg := testing.AllocsPerRun(1000, pair); avg != 0 {
		t.Fatalf("Reset + Stop allocates %.1f objects, want 0", avg)
	}
	// Armed again at once, before the cursor moves, the timer needs a
	// second event — and no more than that, however often.
	for n := 0; n < 1000; n++ {
		tm.Reset(time.Second)
		tm.Stop()
		tm.Reset(time.Second)
		tm.Stop()
		e.Run(e.Now() + 2*time.Second)
	}
	if n := freeEvents(e); n != 2 {
		t.Fatalf("%d events on the free list after stop-and-re-arm rounds, want 2", n)
	}
}

// TestTimerResetWhilePendingPanics pins the one misuse a Timer can
// detect: arming it twice would link one event into the wheel twice.
func TestTimerResetWhilePendingPanics(t *testing.T) {
	e := NewEngine(1)
	tm := newTimer(e, func() {})
	tm.Reset(time.Millisecond)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("Reset on a pending timer did not panic")
			}
		}()
		tm.Reset(time.Millisecond)
	}()
	if e.Pending() != 1 {
		t.Fatalf("Pending = %d after the refused Reset, want 1", e.Pending())
	}
	e.Run(time.Second)
	if tm.Pending() {
		t.Fatal("timer still pending after it fired")
	}
	tm.Reset(0) // idle again: fine
	e.Run(time.Second)
	if e.Processed() != 2 {
		t.Fatalf("Processed = %d, want 2", e.Processed())
	}
}

// TestTimerRearmedAMillionTimes re-arms one timer from its own callback
// a million times over delays from every part of the radio's mix (and
// one per wheel level beyond it): every arming fires exactly once, in
// time order, and nothing is left behind in the wheel.
func TestTimerRearmedAMillionTimes(t *testing.T) {
	const rounds = 1_000_000
	delays := []time.Duration{
		0, 9 * time.Microsecond, 27 * time.Microsecond, 603 * time.Microsecond,
		2 * time.Millisecond, 700 * time.Millisecond, 40 * time.Second, time.Hour,
	}
	e := NewEngine(1)
	var tm *Timer
	fired := 0
	var due time.Duration
	tm = newTimer(e, func() {
		if e.Now() != due {
			t.Fatalf("arming %d fired at %v, due %v", fired, e.Now(), due)
		}
		fired++
		if fired < rounds {
			d := delays[fired%len(delays)]
			due = e.Now() + d
			tm.Reset(d)
		}
	})
	tm.Reset(0)
	for e.Step() {
		if e.Pending() > 1 {
			t.Fatalf("Pending = %d with one timer", e.Pending())
		}
	}
	if fired != rounds || e.Processed() != rounds {
		t.Fatalf("fired %d, Processed %d, want %d", fired, e.Processed(), rounds)
	}
	if e.Pending() != 0 || tm.Pending() {
		t.Fatalf("Pending = %d, timer pending %v after drain", e.Pending(), tm.Pending())
	}
}

// TestTimerArmAndFireAllocateNothing is what the Timer is for.
func TestTimerArmAndFireAllocateNothing(t *testing.T) {
	e := NewEngine(1)
	tm := newTimer(e, func() {})
	delays := []time.Duration{0, 18 * time.Microsecond, 400 * time.Microsecond, 2 * time.Millisecond}
	i := 0
	if avg := testing.AllocsPerRun(1000, func() {
		tm.Reset(delays[i%len(delays)])
		i++
		e.Step()
	}); avg != 0 {
		t.Fatalf("Reset + Step allocates %.1f objects, want 0", avg)
	}
}

// TestPendingIsSideEffectFree pins the satellite fix: calling Pending
// (and peeking via Run deadline checks) between schedules must not
// perturb execution order or counts.
func TestPendingIsSideEffectFree(t *testing.T) {
	e := NewEngine(1)
	var got []int
	for i := 0; i < 5; i++ {
		i := i
		e.Schedule(time.Duration(i)*time.Millisecond, func() { got = append(got, i) })
	}
	cancel := e.Schedule(2500*time.Microsecond, func() { t.Fatal("cancelled event ran") })
	cancel()
	for i := 0; i < 10; i++ {
		if e.Pending() != 5 {
			t.Fatalf("Pending = %d, want 5", e.Pending())
		}
	}
	e.Step()
	if e.Pending() != 4 {
		t.Fatalf("Pending after one step = %d, want 4", e.Pending())
	}
	e.Run(time.Second)
	for i := range got {
		if got[i] != i {
			t.Fatalf("order perturbed: %v", got)
		}
	}
	if e.Pending() != 0 {
		t.Fatalf("Pending after drain = %d", e.Pending())
	}
}

// TestWheelFarFutureAndJumpBack exercises cursor overshoot: Run moves
// the clock past the last event, then a short schedule must still run
// before a far-future one parked across several wheel levels.
func TestWheelFarFutureAndJumpBack(t *testing.T) {
	e := NewEngine(1)
	var got []string
	e.Schedule(3*time.Hour, func() { got = append(got, "far") })
	e.Run(time.Minute) // no events <= 1m; clock jumps to 1m
	if e.Now() != time.Minute {
		t.Fatalf("Now = %v", e.Now())
	}
	e.Schedule(time.Millisecond, func() { got = append(got, "near") })
	e.Schedule(0, func() { got = append(got, "now") })
	e.Run(4 * time.Hour)
	want := []string{"now", "near", "far"}
	if len(got) != len(want) {
		t.Fatalf("ran %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order %v, want %v", got, want)
		}
	}
}

// TestWheelManySameTick stresses FIFO within a single wheel tick under
// interleaved cancels.
func TestWheelManySameTick(t *testing.T) {
	e := NewEngine(1)
	var got []int
	var cancels []func()
	for i := 0; i < 1000; i++ {
		i := i
		cancels = append(cancels, e.Schedule(time.Microsecond, func() { got = append(got, i) }))
	}
	for i := 0; i < 1000; i += 3 {
		cancels[i]()
	}
	e.Run(time.Second)
	want := 0
	idx := 0
	for ; want < 1000; want++ {
		if want%3 == 0 {
			continue
		}
		if got[idx] != want {
			t.Fatalf("got[%d] = %d, want %d", idx, got[idx], want)
		}
		idx++
	}
	if idx != len(got) {
		t.Fatalf("ran %d events, want %d", len(got), idx)
	}
}

// BenchmarkSchedulePop measures raw queue throughput at a depth the
// city-scale scenarios sustain.
func BenchmarkSchedulePop(b *testing.B) {
	e := NewEngine(1)
	rng := rand.New(rand.NewSource(7))
	const depth = 50000
	for i := 0; i < depth; i++ {
		e.Schedule(time.Duration(rng.Intn(1e9)), func() {})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Schedule(time.Duration(rng.Intn(1e9)), func() {})
		e.Step()
	}
}

// macDelays is the radio's delay mix, a frame's three MAC steps over and
// over: the zero-delay kick, a backoff (acks 0–27 µs, data 36–603 µs, in
// 9 µs slots) and an airtime around 2 ms.
func macDelays() []time.Duration {
	rng := rand.New(rand.NewSource(7))
	out := make([]time.Duration, 3*1024)
	for i := 0; i < len(out); i += 3 {
		slots := 4 + rng.Intn(64)
		if rng.Intn(2) == 0 {
			slots = rng.Intn(4)
		}
		out[i] = 0
		out[i+1] = time.Duration(slots) * 9 * time.Microsecond
		out[i+2] = 1867*time.Microsecond + time.Duration(rng.Intn(400))*time.Microsecond
	}
	return out
}

// benchSources is how many independent event chains the two benchmarks
// below keep pending: one per radio of a 10×10 grid.
const benchSources = 100

// BenchmarkEngineSchedule is the cost of one fired event when every
// arming is a Schedule call with a fresh closure, as the radio's MAC
// armed its steps before it had a Timer.
func BenchmarkEngineSchedule(b *testing.B) {
	e := NewEngine(1)
	delays := macDelays()
	next := 0
	var arm func()
	arm = func() {
		d := delays[next%len(delays)]
		next++
		e.Schedule(d, func() { arm() })
	}
	for i := 0; i < benchSources; i++ {
		arm()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
}

// BenchmarkEngineTimer is the same event stream through one reusable
// Timer per chain.
func BenchmarkEngineTimer(b *testing.B) {
	e := NewEngine(1)
	delays := macDelays()
	next := 0
	for i := 0; i < benchSources; i++ {
		var tm *Timer
		tm = newTimer(e, func() {
			tm.Reset(delays[next%len(delays)])
			next++
		})
		tm.Reset(delays[next%len(delays)])
		next++
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
}
