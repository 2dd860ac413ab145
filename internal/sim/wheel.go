package sim

import (
	"math/bits"
	"time"
)

// The engine's event queue is a hierarchical timing wheel. A binary
// heap pays O(log n) per schedule and per pop; with 10k+ radios arming
// CSMA backoffs the queue holds tens of thousands of events and the
// heap's cache-hostile sift dominates the run. The wheel makes
// schedule O(1) and pop O(1) amortized, independent of queue depth.
//
// Layout: virtual time is bucketed into ticks of wheelTick ns. Level l
// has wheelSlots slots of width wheelSlots^l ticks, so the wheelLevels
// levels jointly cover every representable time.Duration. An event is
// filed at the highest level where its tick differs from the wheel
// cursor, in the slot given by that level's digit of its tick — the
// "highest distinct digit" rule. Two invariants follow:
//
//   - every filed event's tick is strictly greater than the cursor, and
//     its digits above the filing level equal the cursor's, so a slot's
//     earliest possible tick is computable from the cursor alone;
//   - a non-empty slot never contains the cursor, because the cursor
//     only jumps to the earliest candidate slot and drains (level 0) or
//     cascades (level > 0) it on arrival.
//
// Events whose tick equals the cursor live in cw.near, a small binary
// heap ordered by (at, seq): within one tick, execution order is exact
// event time then FIFO — byte-identical to the heap scheduler this
// replaces, which is what keeps same-seed runs reproducible.
//
// Per-level occupancy bitmaps make "earliest non-empty slot" a single
// trailing-zeros instruction, so idle periods are skipped in O(levels).
const (
	wheelTickShift = 12 // 4096 ns ≈ 4 µs per tick (CSMA slots are 9 µs)
	wheelSlotShift = 6  // 64 slots per level
	wheelSlots     = 1 << wheelSlotShift
	wheelSlotMask  = wheelSlots - 1
	// 9 levels × 6 bits = 54 bits of tick ≥ the 51 bits a positive
	// time.Duration can hold after the tick shift: no event is ever out
	// of range.
	wheelLevels = 9
)

// wheelQueue is the engine's pending-event store.
type wheelQueue struct {
	cur   int64 // cursor: the tick the near heap belongs to
	slots [wheelLevels][wheelSlots]*event
	occ   [wheelLevels]uint64 // per-level slot occupancy bitmaps
	near  []*event            // min-heap by (at, seq): events at tick cur
	live  int                 // scheduled, not yet executed or cancelled
	free  *event              // events no Timer is armed on, linked by next
}

// borrow hands a Timer an event to arm, recycled when there is one.
func (w *wheelQueue) borrow() *event {
	ev := w.free
	if ev == nil {
		return &event{}
	}
	w.free, ev.next = ev.next, nil
	return ev
}

// release takes back an event that has left the wheel, fired or dead,
// if it is a Timer's; one Schedule made is left to the collector.
//
//pds:hotpath
func (w *wheelQueue) release(ev *event) {
	if ev.timer != nil {
		*ev = event{next: w.free}
		w.free = ev
	}
}

// tickOf buckets a virtual time into a wheel tick.
func tickOf(at time.Duration) int64 { return int64(at) >> wheelTickShift }

// push files ev. at must not precede the time of the last popped event
// (the engine schedules only at now or later, so ev's tick is >= cur).
func (w *wheelQueue) push(ev *event) {
	w.live++
	w.file(ev)
}

// file places ev into near or a slot, without touching the live count
// (cascades re-file events that are already counted).
func (w *wheelQueue) file(ev *event) {
	t := tickOf(ev.at)
	if t <= w.cur {
		w.nearPush(ev)
		return
	}
	level := (bits.Len64(uint64(t^w.cur)) - 1) / wheelSlotShift
	slot := (t >> (level * wheelSlotShift)) & wheelSlotMask
	ev.next = w.slots[level][slot]
	w.slots[level][slot] = ev
	w.occ[level] |= 1 << slot
}

// advance moves the cursor to the earliest non-empty slot, cascading
// coarse slots downward, until the near heap holds the earliest events
// or the wheel is empty. It reports whether any event is pending.
func (w *wheelQueue) advance() bool {
	for {
		if len(w.near) > 0 {
			return true
		}
		// The earliest candidate is always at the lowest non-empty
		// level: a filed slot's digits above its level match the
		// cursor's, so a level-l candidate precedes every candidate at
		// level l+1 and above within the same super-slot, and the
		// lowest set bit is the earliest slot within a level (every
		// filed slot is ahead of the cursor's digit).
		cascaded := false
		for level := 0; level < wheelLevels; level++ {
			if w.occ[level] == 0 {
				continue
			}
			slot := int64(bits.TrailingZeros64(w.occ[level]))
			head := w.slots[level][slot]
			w.slots[level][slot] = nil
			w.occ[level] &^= 1 << slot
			shift := level * wheelSlotShift
			// Jump the cursor to the slot's earliest tick: keep the
			// digits above the level, set the level's digit to the
			// slot, zero the digits below.
			w.cur = w.cur&^((int64(1)<<(shift+wheelSlotShift))-1) | slot<<shift
			for head != nil {
				ev := head
				head = head.next
				ev.next = nil
				if ev.dead {
					w.release(ev) // cancelled while parked: drop during the move
					continue
				}
				w.file(ev) // level 0 slots re-file straight into near
			}
			cascaded = true
			break
		}
		if !cascaded {
			return false // every level empty, nothing near
		}
	}
}

// peekAt returns the time of the earliest live event. It discards
// cancelled events from the near heap on the way — internal compaction
// that never reorders live events.
func (w *wheelQueue) peekAt() (time.Duration, bool) {
	for {
		if !w.advance() {
			return 0, false
		}
		if !w.near[0].dead {
			return w.near[0].at, true
		}
		w.release(w.nearPop())
	}
}

// pop removes and returns the earliest live event, or nil.
func (w *wheelQueue) pop() *event {
	for {
		if !w.advance() {
			return nil
		}
		ev := w.nearPop()
		if ev.dead {
			w.release(ev)
			continue
		}
		w.live--
		return ev
	}
}

// cancel marks ev dead and uncounts it; the carcass is dropped lazily.
func (w *wheelQueue) cancel(ev *event) {
	if !ev.dead {
		ev.dead = true
		w.live--
	}
}

// nearLess orders the current-tick heap by exact time, then FIFO.
func nearLess(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (w *wheelQueue) nearPush(ev *event) {
	w.near = append(w.near, ev)
	i := len(w.near) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !nearLess(w.near[i], w.near[parent]) {
			break
		}
		w.near[i], w.near[parent] = w.near[parent], w.near[i]
		i = parent
	}
}

func (w *wheelQueue) nearPop() *event {
	h := w.near
	ev := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h[n] = nil
	w.near = h[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < n && nearLess(h[l], h[min]) {
			min = l
		}
		if r < n && nearLess(h[r], h[min]) {
			min = r
		}
		if min == i {
			break
		}
		h[i], h[min] = h[min], h[i]
		i = min
	}
	return ev
}
