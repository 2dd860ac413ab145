package link

import (
	"math/bits"
	"slices"
	"sort"
	"time"

	"pds/internal/wire"
)

const (
	maxSpan     = 1 << 20     // seqs a window may span: 8 MiB of slots
	maxSlots    = 2 * maxSpan // ring slots a node's windows may hold
	minRing     = 8           // slots of the smallest ring
	notAccepted = time.Duration(-1 << 63)
)

// dedup is the receive side's duplicate filter (see duplicate): one
// window per sender in wins, sorted by sender, last the previous
// frame's. wins starts in first, so a node that hears one sender makes
// no slice. The first arrival from sweepAt on moves the windows idle a
// retention past the end of wins, into its capacity, where the next new
// sender takes the one at the end, ring and all. Rings of minRing slots
// are cut from rings, a chunk of four; slots counts the slots of the
// windows' rings, those past the end of wins too.
type dedup struct {
	wins    []rxWindow
	last    int
	sweepAt time.Duration
	rings   []time.Duration
	slots   int
	first   [1]rxWindow
}

// rxWindow holds when each of one sender's seqs base … base+n−1 was
// accepted, notAccepted for an ack or a frame not heard. Slot i is
// ring[(head+i) mod len(ring)], or one while the window has no ring.
type rxWindow struct {
	node          wire.NodeID
	base, n, head uint32
	one           time.Duration
	ring          []time.Duration
}

func (w *rxWindow) slot(i uint32) *time.Duration {
	if w.ring == nil {
		return &w.one
	}
	return &w.ring[(w.head+i)&uint32(len(w.ring)-1)]
}

// trim drops the leading slots that decide no verdict.
func (w *rxWindow) trim(now, keep time.Duration) {
	for ; w.n > 0; w.base, w.head, w.n = w.base+1, w.head+1, w.n-1 {
		if at := *w.slot(0); at != notAccepted && now-at < keep {
			return
		}
	}
}

// duplicate reports whether id was accepted less than keep ago, and
// records it as accepted now when it was not. A TransmitID is its
// sender's node and a seq that rises with every frame the sender mints,
// so the sender's window finds it by offset. Windows age here, on
// arrival, and nowhere else (no timer).
func (d *dedup) duplicate(id uint64, now, keep time.Duration) bool {
	if now >= d.sweepAt {
		d.sweep(now, keep)
	}
	w, seq := d.window(wire.TransmitNode(id)), uint32(id)
	w.trim(now, keep)
	if off := seq - w.base; off < w.n {
		if at := *w.slot(off); at != notAccepted && now-at < keep {
			return true
		}
	} else {
		d.extend(w, seq)
	}
	*w.slot(seq - w.base) = now
	return false
}

// window returns node's window, made empty if it has none.
func (d *dedup) window(node wire.NodeID) *rxWindow {
	if d.last < len(d.wins) && d.wins[d.last].node == node {
		return &d.wins[d.last]
	}
	if d.wins == nil {
		d.wins = d.first[:0]
	}
	n := len(d.wins)
	i := sort.Search(n, func(i int) bool { return d.wins[i].node >= node })
	if i == n || d.wins[i].node != node {
		var ring []time.Duration
		if n < cap(d.wins) { // a window a sweep dropped
			ring = d.wins[:n+1][n].ring
		}
		d.wins = slices.Insert(d.wins, i, rxWindow{node: node, ring: ring})
	}
	d.last = i
	return &d.wins[i]
}

// extend widens w to seq outside it, its new slots not accepted. A seq
// that would stretch it past maxSpan, or its ring past the node's
// maxSlots (a peer can make up senders), starts it over: the ids it held
// are forgotten as if their retention had passed.
func (d *dedup) extend(w *rxWindow, seq uint32) {
	lo := min(uint64(w.base), uint64(seq))
	size := max(uint64(w.base)+uint64(w.n), uint64(seq)+1) - lo
	grow := 0 // the slots of the larger ring w needs, if it does
	if size > uint64(len(w.ring)) {
		grow = max(1<<bits.Len64(size-1), min(4*len(w.ring), maxSpan))
	}
	if w.n == 0 || size > maxSpan || d.slots+grow > maxSlots {
		w.base, w.n = seq, 1
		return
	}
	front := w.base - uint32(lo) // slots added below base
	if grow > 0 {
		r := d.ring(grow)
		for i := range w.n {
			r[front+i] = *w.slot(i)
		}
		d.slots += len(r) - len(w.ring)
		w.ring, w.head = r, front
	}
	w.head -= front
	for i := range front {
		*w.slot(i) = notAccepted
	}
	for i := front + w.n; i < uint32(size); i++ {
		*w.slot(i) = notAccepted
	}
	w.base, w.n = uint32(lo), uint32(size)
}

// ring returns a ring of at least size slots, a power of two.
func (d *dedup) ring(size int) []time.Duration {
	if size > minRing {
		return make([]time.Duration, size)
	}
	if len(d.rings) == 0 { // a chunk goes with its last ring
		d.rings = make([]time.Duration, 4*minRing)
	}
	r := d.rings[:minRing:minRing]
	d.rings = d.rings[minRing:]
	return r
}

// sweep trims every window and moves the emptied ones past the end of
// wins, so that no window's lowest slot outlives two retentions.
func (d *dedup) sweep(now, keep time.Duration) {
	live := 0
	for i := range d.wins {
		if d.wins[i].trim(now, keep); d.wins[i].n > 0 {
			d.wins[live], d.wins[i] = d.wins[i], d.wins[live]
			live++
		}
	}
	d.wins, d.sweepAt = d.wins[:live], now+keep
}
