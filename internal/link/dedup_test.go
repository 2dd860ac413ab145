package link

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"pds/internal/wire"
)

// seenOracle is the receive-side dedup the two-generation window
// replaced, kept as the reference model: one map of TransmitID to
// acceptance time, walked in full on every accepted frame once it holds
// more than 8192 ids. The verdict rule is the one the window must
// reproduce bit for bit: duplicate iff the same id was accepted less
// than keep ago; the ack goes out before the check.
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

// held is how many ids the window holds, both generations.
func (l *Link) held() int { return len(l.seen) + len(l.seenOld) }

// checkAges, called right after an arrival (the window ages on nothing
// else), fails when it still holds an id accepted two retentions ago or
// more: that arrival's rotation must have dropped it.
func (p *dedupPair) checkAges() {
	p.t.Helper()
	for _, gen := range []map[uint64]time.Duration{p.lk.seen, p.lk.seenOld} {
		for id, at := range gen {
			if age := p.clk.now - at; age >= 2*p.lk.cfg.DedupRetention {
				p.t.Fatalf("after frame %d at %v: window still holds id %d accepted %v ago", p.frames, p.clk.now, id, age)
			}
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
