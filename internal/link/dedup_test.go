package link

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"pds/internal/wire"
)

// seenOracle is the receive-side dedup the per-sender windows (and the
// two-generation maps before them) replaced, kept as the reference
// model: one map of TransmitID to acceptance time, walked in full on
// every accepted frame once it holds more than 8192 ids. The verdict
// rule is the one the windows must reproduce bit for bit: duplicate iff
// the same id was accepted less than keep ago; the ack goes out before
// the check.
//
// One addition keeps the oracle usable at 100 000 ids per window, where
// the walk it is here to retire would take minutes: floor is a lower
// bound on every timestamp in the map, so a walk that could delete
// nothing is skipped. It elides only walks with no effect.
type seenOracle struct {
	self  wire.NodeID
	keep  time.Duration
	seen  map[uint64]time.Duration
	floor time.Duration
	dups  uint64
	acks  uint64
}

func newSeenOracle(self wire.NodeID, keep time.Duration) *seenOracle {
	return &seenOracle{self: self, keep: keep, seen: make(map[uint64]time.Duration)}
}

// handle is the old HandleIncoming for a non-ack, non-fragment frame; it
// reports whether the frame was handed up.
func (o *seenOracle) handle(msg *wire.Message, now time.Duration) bool {
	if msg.IsIntendedFor(o.self) && !msg.NoAck {
		o.acks++
	}
	if at, dup := o.seen[msg.TransmitID]; dup && now-at < o.keep {
		o.dups++
		return false
	}
	o.seen[msg.TransmitID] = now
	if len(o.seen) > 8192 && now-o.floor >= o.keep {
		o.floor = now
		for id, at := range o.seen {
			if now-at >= o.keep {
				delete(o.seen, id)
			} else if at < o.floor {
				o.floor = at
			}
		}
	}
	return true
}

func (o *seenOracle) reset() { o.seen, o.floor = make(map[uint64]time.Duration), 0 }

// manualClock is a clock the test moves by hand; its timers never fire,
// which is also how the repo benchmark replays a link.
type manualClock struct{ now time.Duration }

func (c *manualClock) Now() time.Duration { return c.now }
func (c *manualClock) Schedule(time.Duration, func()) (cancel func()) {
	return func() {}
}

// dedupPair drives the link under test and the oracle with the same
// frames at the same instants and fails on the first difference.
type dedupPair struct {
	t      *testing.T
	clk    *manualClock
	lk     *Link
	or     *seenOracle
	frames int
	lastID uint64 // the last frame's TransmitID
}

func newDedupPair(t *testing.T, keep time.Duration) *dedupPair {
	cfg := testConfig()
	cfg.DedupRetention = keep
	clk := &manualClock{}
	return &dedupPair{
		t:   t,
		clk: clk,
		lk:  New(clk, 1, func(*wire.Message) bool { return true }, cfg),
		or:  newSeenOracle(1, keep),
	}
}

// frame kinds: what the receiver is to the frame decides the ack, never
// the dedup verdict.
const (
	kindOverheard = iota // addressed to someone else: no ack
	kindIntended         // addressed to this node: acked, duplicates too
	kindFlood            // no receiver list, NoAck: intended, not acked
	numKinds
)

func dedupFrame(id uint64, kind int) *wire.Message {
	q := &wire.Query{ID: id}
	msg := &wire.Message{Type: wire.TypeQuery, TransmitID: id, From: 2, Query: q}
	switch kind {
	case kindOverheard:
		q.Receivers = []wire.NodeID{9}
	case kindIntended:
		q.Receivers = []wire.NodeID{1}
	case kindFlood:
		msg.NoAck = true
	}
	return msg
}

// arrive delivers one frame to both and compares verdict and counters.
func (p *dedupPair) arrive(id uint64, kind int) (accepted bool) {
	p.t.Helper()
	p.frames++
	p.lastID = id
	msg := dedupFrame(id, kind)
	want := p.or.handle(msg, p.clk.now)
	got := p.lk.HandleIncoming(msg) != nil
	st := p.lk.Stats()
	if got != want || st.DupDropped != p.or.dups || st.AcksSent != p.or.acks {
		p.t.Fatalf("frame %d (id %d, kind %d) at %v: accepted=%v dup_dropped=%d acks_sent=%d, reference accepted=%v dups=%d acks=%d",
			p.frames, id, kind, p.clk.now, got, st.DupDropped, st.AcksSent, want, p.or.dups, p.or.acks)
	}
	return got
}

func (p *dedupPair) reset() {
	p.lk.Reset()
	p.or.reset()
}

// held is how many ids the windows hold: the slots of accepted seqs.
func (l *Link) held() int {
	n := 0
	for i := range l.windows() {
		w := &l.rx.wins[i]
		for j := range w.n {
			if *w.slot(j) != notAccepted {
				n++
			}
		}
	}
	return n
}

// windows is the link's receive windows, none before the first frame.
func (l *Link) windows() []rxWindow {
	if l.rx == nil {
		return nil
	}
	return l.rx.wins
}

// checkAges, called right after an arrival (the windows age on nothing
// else), fails unless the windows are sorted by sender, none spans more
// than maxSpan seqs, and each starts at an accepted seq: accepted less
// than a retention ago in the window the arrival went to, and less than
// two retentions ago in the others, which a sweep trims once a
// retention.
func (p *dedupPair) checkAges() {
	p.t.Helper()
	keep := p.lk.cfg.DedupRetention
	for i, w := range p.lk.windows() {
		if i > 0 && p.lk.rx.wins[i-1].node >= w.node {
			p.t.Fatalf("after frame %d: windows out of order at %d: sender %d after %d", p.frames, i, w.node, p.lk.rx.wins[i-1].node)
		}
		if w.n > maxSpan {
			p.t.Fatalf("after frame %d: sender %d's window spans %d seqs", p.frames, w.node, w.n)
		}
		if w.n == 0 {
			continue
		}
		limit := 2 * keep
		if w.node == wire.TransmitNode(p.lastID) {
			limit = keep
		}
		if at := *w.slot(0); at == notAccepted || p.clk.now-at >= limit {
			p.t.Fatalf("after frame %d at %v: sender %d's window starts at seq %d, accepted at %v (want less than %v ago)", p.frames, p.clk.now, w.node, w.base, at, limit)
		}
	}
}

// TestDedupWindowMatchesReference replays seeded random arrival streams
// through the window and the old map-and-sweep side by side: fresh ids,
// re-arrivals of recent ones, re-arrivals aimed just inside, exactly at
// and just past the retention edge, idle gaps of up to three
// retentions, bursts that put thousands of ids into one window, and
// Reset in mid-stream.
func TestDedupWindowMatchesReference(t *testing.T) {
	const keep = 10 * time.Second
	for seed := int64(1); seed <= 6; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			p := newDedupPair(t, keep)
			// accepted remembers when each id was last accepted, so the
			// stream can aim at its retention edge.
			type acc struct {
				id uint64
				at time.Duration
			}
			var accepted []acc
			var next uint64
			arrive := func(id uint64) {
				if p.arrive(id, rng.Intn(numKinds)) {
					accepted = append(accepted, acc{id, p.clk.now})
				}
			}
			for step := 0; step < 4000; step++ {
				switch r := rng.Intn(100); {
				case r < 40: // a frame never seen before
					next++
					arrive(next)
				case r < 60 && len(accepted) > 0: // a recent one again
					back := 1 + rng.Intn(min(len(accepted), 50))
					arrive(accepted[len(accepted)-back].id)
				case r < 80 && len(accepted) > 0: // one aimed at its retention edge
					a := accepted[rng.Intn(len(accepted))]
					edge := a.at + keep + time.Duration(rng.Intn(3)-1) // −1 ns, 0, +1 ns
					if edge < p.clk.now {
						arrive(a.id) // long expired, or re-accepted since
						break
					}
					p.clk.now = edge
					arrive(a.id)
					arrive(a.id) // whatever the first verdict was, this one is a duplicate
				case r < 84: // a burst of fresh ids inside one window
					for i, n := 0, 500+rng.Intn(2500); i < n; i++ {
						p.clk.now += time.Duration(rng.Intn(200)) * time.Microsecond
						next++
						arrive(next)
					}
				case r < 88: // idle, up to three retentions
					p.clk.now += time.Duration(rng.Int63n(int64(3 * keep)))
				case r < 90: // idle for exactly one or two retentions
					p.clk.now += time.Duration(1+rng.Intn(2)) * keep
				case r < 91:
					p.reset()
				default:
					p.clk.now += time.Duration(rng.Intn(500)) * time.Millisecond
				}
				if step%500 == 499 {
					next++
					arrive(next)
					p.checkAges()
				}
			}
			if p.frames < 10000 || p.or.dups == 0 || p.or.acks == 0 {
				t.Fatalf("stream too thin to mean anything: %d frames, %d duplicates, %d acks", p.frames, p.or.dups, p.or.acks)
			}
		})
	}
}

// TestDedupWindowLargeWindows holds more ids inside one retention than
// the old sweep threshold (8192), then more than 100 000, re-sending a
// sample of them while the window fills, after it filled, at the
// retention edge of the first ones and after everything expired.
func TestDedupWindowLargeWindows(t *testing.T) {
	const keep = 10 * time.Second
	for _, ids := range []uint64{10_000, 120_000} {
		t.Run(fmt.Sprintf("ids=%d", ids), func(t *testing.T) {
			p := newDedupPair(t, keep)
			step := keep / 2 / time.Duration(ids) // all of them inside half a retention
			for id := uint64(1); id <= ids; id++ {
				p.clk.now += step
				p.arrive(id, int(id%numKinds))
				if id%7 == 0 {
					p.arrive(id/2+1, kindIntended) // an earlier one, retransmitted
				}
			}
			if got := p.lk.held(); got < int(ids) {
				t.Fatalf("window holds %d ids with %d accepted inside one retention", got, ids)
			}
			for id := uint64(1); id <= ids; id += 3 {
				if p.arrive(id, kindOverheard) {
					t.Fatalf("id %d accepted twice inside one retention", id)
				}
			}
			// Walk the clock across the retention edge of the earliest
			// ids: each is a duplicate until exactly keep after its
			// acceptance, a new frame from then on.
			for id := uint64(1); id <= 50; id++ {
				at := time.Duration(id) * step
				p.clk.now = at + keep - 1
				p.arrive(id, kindOverheard)
				p.clk.now = at + keep
				p.arrive(id, kindOverheard)
				p.arrive(id, kindOverheard)
			}
			p.checkAges()
			p.clk.now += keep
			for id := uint64(1); id <= ids; id += 5 {
				p.arrive(id, kindIntended)
			}
			p.checkAges()
		})
	}
}

// TestDedupWindowReclaimsAfterIdle is the check the old code fails: N
// ids, then nothing for two retentions, then one frame. The window must
// hold that one id; the old map kept all N stale ones (any N up to 8192)
// until enough new traffic pushed it over the sweep threshold.
func TestDedupWindowReclaimsAfterIdle(t *testing.T) {
	const keep = 10 * time.Second
	for _, n := range []uint64{1, 5000, 8192, 20_000} {
		p := newDedupPair(t, keep)
		for id := uint64(1); id <= n; id++ {
			p.clk.now += time.Microsecond
			p.arrive(id, kindOverheard)
		}
		p.clk.now += 2 * keep
		p.arrive(n+1, kindOverheard)
		if got := p.lk.held(); got != 1 {
			t.Errorf("after %d ids, an idle gap of two retentions and one frame the window holds %d ids, want 1 (the old map: %d)", n, got, len(p.or.seen))
		}
	}
}

// TestDedupWindowNoRetention pins the degenerate configuration: with a
// zero DedupRetention nothing is ever a duplicate, and nothing is kept.
func TestDedupWindowNoRetention(t *testing.T) {
	p := newDedupPair(t, 0)
	for i := 0; i < 100; i++ {
		p.arrive(uint64(i%3), kindIntended)
		p.clk.now += time.Duration(i%2) * time.Millisecond
	}
	if p.or.dups != 0 || p.lk.held() > 1 {
		t.Fatalf("zero retention: %d duplicates, %d ids held", p.or.dups, p.lk.held())
	}
}

// TestDedupWindowManySenders replays interleaved streams from 1 to 300
// senders against the oracle: rising seqs with every other one missing
// (the acks a sender sends elsewhere), re-arrivals of recent frames and
// of frames at −1/0/+1 ns of their retention edge, senders heard once,
// senders whose first frame is followed by one below it, senders that
// rewind to seq 0 as a restarted process would, idle gaps and Reset
// partway through.
func TestDedupWindowManySenders(t *testing.T) {
	const keep = 10 * time.Second
	for _, senders := range []int{1, 2, 8, 300} {
		t.Run(fmt.Sprintf("senders=%d", senders), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(senders)))
			p := newDedupPair(t, keep)
			type acc struct {
				id uint64
				at time.Duration
			}
			var accepted []acc
			arrive := func(node wire.NodeID, seq uint64) {
				id := wire.NewTransmitID(node, seq)
				if p.arrive(id, rng.Intn(numKinds)) {
					accepted = append(accepted, acc{id, p.clk.now})
				}
				p.checkAges()
			}
			again := func(id uint64) { arrive(wire.TransmitNode(id), id&0xffffffff) }
			next := make([]uint64, senders) // each sender's last seq
			node := func(i int) wire.NodeID { return wire.NodeID(1000 - 3*i) }
			for step := 0; step < 6000; step++ {
				i := rng.Intn(senders)
				switch r := rng.Intn(100); {
				case r < 50: // the sender's next frame; the seq before it was an ack
					next[i] += 2
					arrive(node(i), next[i])
				case r < 65 && len(accepted) > 0: // a recent frame again
					again(accepted[len(accepted)-1-rng.Intn(min(len(accepted), 64))].id)
				case r < 75 && len(accepted) > 0: // one at its retention edge
					a := accepted[rng.Intn(len(accepted))]
					if edge := a.at + keep + time.Duration(rng.Intn(3)-1); edge > p.clk.now {
						p.clk.now = edge
					}
					again(a.id)
					again(a.id) // whatever the first verdict was, this one is a duplicate
				case r < 79: // a sender heard once
					arrive(wire.NodeID(5000+step), uint64(rng.Intn(1<<20)))
				case r < 81: // a sender first heard at a seq, then below it
					seq := uint64(10 + rng.Intn(100))
					arrive(wire.NodeID(20000+step), seq)
					arrive(wire.NodeID(20000+step), seq-uint64(1+rng.Intn(10)))
				case r < 84 && next[i] > 0: // an earlier seq of a sender
					arrive(node(i), uint64(rng.Int63n(int64(next[i]))))
				case r < 85: // the sender rewinds
					next[i] = 0
					arrive(node(i), 0)
				case r < 86:
					p.reset()
				case r < 89: // idle, up to two retentions
					p.clk.now += time.Duration(rng.Int63n(int64(2 * keep)))
				default:
					p.clk.now += time.Duration(rng.Intn(50)) * time.Millisecond
				}
			}
			if p.frames < 5000 || p.or.dups == 0 || p.or.acks == 0 {
				t.Fatalf("stream too thin to mean anything: %d frames, %d duplicates, %d acks", p.frames, p.or.dups, p.or.acks)
			}
		})
	}
}

// TestDedupWindowSpanCap holds one sender's window to maxSpan seqs,
// whatever its frames carry, and what it forgets past that to the
// documented rule: a seq that would stretch the window further starts it
// over, and the ids it held are accepted again.
func TestDedupWindowSpanCap(t *testing.T) {
	clk := &manualClock{}
	lk := New(clk, 1, func(*wire.Message) bool { return true }, testConfig())
	accept := func(node wire.NodeID, seq uint64, want bool) {
		t.Helper()
		clk.now += time.Millisecond
		if got := lk.HandleIncoming(dedupFrame(wire.NewTransmitID(node, seq), kindOverheard)) != nil; got != want {
			t.Fatalf("sender %d seq %d: accepted=%v, want %v", node, seq, got, want)
		}
		for _, w := range lk.windows() {
			if w.n > maxSpan || len(w.ring) > maxSpan {
				t.Fatalf("sender %d's window spans %d seqs in a ring of %d", w.node, w.n, len(w.ring))
			}
		}
	}
	window := func(node wire.NodeID) (base, n uint32) {
		for _, w := range lk.windows() {
			if w.node == node {
				return w.base, w.n
			}
		}
		return 0, 0
	}
	expect := func(node wire.NodeID, base, n uint32) {
		t.Helper()
		if b, m := window(node); b != base || m != n {
			t.Fatalf("sender %d's window holds seqs %d+%d, want %d+%d", node, b, m, base, n)
		}
	}

	// Seq 0, then 2^32−1: the window starts over at the second, with
	// nothing allocated for the gap, and so on back and forth.
	accept(2, 0, true)
	accept(2, 1<<32-1, true)
	expect(2, 1<<32-1, 1)
	accept(2, 1<<32-1, false)
	accept(2, 0, true)
	expect(2, 0, 1)
	accept(2, 1<<32-1, true)

	// Seqs 0–9, then maxSpan+9: the window starts over at the new seq,
	// and 0–9 are new again.
	for seq := range uint64(10) {
		accept(3, seq, true)
	}
	accept(3, 9, false)
	accept(3, maxSpan+9, true)
	expect(3, maxSpan+9, 1)
	// The ring still holds 0–9's instants where the window stretches
	// next, above and below: those seqs are new.
	for _, seq := range []uint64{maxSpan + 12, maxSpan + 10, maxSpan + 11, maxSpan + 6, maxSpan + 7} {
		accept(3, seq, true)
	}
	for seq := range uint64(10) {
		accept(3, seq, true)
	}
	// From 0, seq maxSpan−1 is the last the window stretches to.
	accept(3, maxSpan-1, true)
	expect(3, 0, maxSpan)
	accept(3, 5, false)
	accept(3, maxSpan, true)
	expect(3, maxSpan, 1)

	// A rewind of more than maxSpan starts the window over too.
	accept(4, 3<<20, true)
	accept(4, 3<<20+1, true)
	accept(4, 1, true)
	expect(4, 1, 1)
	accept(4, 3<<20+1, true)
	expect(4, 3<<20+1, 1)
}

// TestDedupWindowSlotBudget: senders a peer makes up, two frames each
// maxSpan−1 seqs apart, would each cut an 8 MiB ring. A node's rings
// hold at most maxSlots slots; a window that would pass that starts over,
// and the id it forgets is new again.
func TestDedupWindowSlotBudget(t *testing.T) {
	clk := &manualClock{}
	lk := New(clk, 1, func(*wire.Message) bool { return true }, testConfig())
	accept := func(node wire.NodeID, seq uint64) {
		t.Helper()
		clk.now += time.Millisecond
		if lk.HandleIncoming(dedupFrame(wire.NewTransmitID(node, seq), kindOverheard)) == nil {
			t.Fatalf("sender %d seq %d: suppressed", node, seq)
		}
	}
	for node := wire.NodeID(2); node < 6; node++ {
		accept(node, 0)
		accept(node, maxSpan-1)
	}
	held := 0
	for _, w := range lk.windows() {
		held += len(w.ring)
		if full := w.node < 4; full != (w.n == maxSpan) || !full && (w.base != maxSpan-1 || w.n != 1) {
			t.Fatalf("sender %d's window holds seqs %d+%d", w.node, w.base, w.n)
		}
	}
	if held != maxSlots || lk.rx.slots != held {
		t.Fatalf("rings hold %d slots, counted %d; want %d", held, lk.rx.slots, maxSlots)
	}
	accept(4, 0)
}

// TestIdleWindowGivesItsRing: a sender idle a retention leaves its window
// at the next sweep, and the next new sender takes its ring, so a
// stream of senders that follow one another allocates nothing.
func TestIdleWindowGivesItsRing(t *testing.T) {
	clk := &manualClock{}
	lk := New(clk, 1, func(*wire.Message) bool { return true }, testConfig())
	msg := dedupFrame(0, kindOverheard)
	node := wire.NodeID(2)
	if allocs := testing.AllocsPerRun(5, func() {
		clk.now += lk.cfg.DedupRetention
		node++
		for seq := range uint64(100) {
			clk.now += time.Millisecond
			msg.TransmitID = wire.NewTransmitID(node, seq)
			if lk.HandleIncoming(msg) == nil {
				panic("fresh frame suppressed")
			}
		}
	}); allocs != 0 || len(lk.windows()) != 1 {
		t.Fatalf("a new sender after an idle one: %v allocations for 100 frames, %d windows; want 0 and 1", allocs, len(lk.windows()))
	}
}
