package radio

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"pds/internal/sim"
	"pds/internal/wire"
)

// refMedium is the medium as the sense and collision queries saw it
// while they found transmissions through the spatial index: every radio
// of the 3×3 block around the point of interest, then that radio's own
// records. recs is what Radio.recs held — each radio's records the
// medium has not pruned yet, oldest first. busyUntil, busyFor and
// collided are the bodies of that time, the reference the
// record-walking versions are held to (checkPredicates).
type refMedium struct {
	*Medium
	recs map[*Radio][]*txRecord
}

func newRefMedium(m *Medium) refMedium {
	ref := refMedium{m, make(map[*Radio][]*txRecord)}
	for _, rec := range m.txOrder {
		ref.recs[rec.owner] = append(ref.recs[rec.owner], rec)
	}
	return ref
}

func (m refMedium) busyUntil(r *Radio) time.Duration {
	if m.active == 0 {
		return 0
	}
	now := m.eng.Now()
	sr := m.senseRange()
	var until time.Duration
	for _, tx := range m.candidates(r.pos) {
		if len(m.recs[tx]) == 0 || tx.pos.Dist(r.pos) > sr {
			continue
		}
		for _, rec := range m.recs[tx] {
			if rec.end > now && rec.end > until {
				until = rec.end
			}
		}
	}
	return until
}

func (m refMedium) busyFor(r *Radio) bool {
	if m.active == 0 {
		return false
	}
	now := m.eng.Now()
	sr := m.senseRange()
	for _, tx := range m.candidates(r.pos) {
		if len(m.recs[tx]) == 0 || tx.pos.Dist(r.pos) > sr {
			continue
		}
		for _, rec := range m.recs[tx] {
			if rec.end > now && now-rec.start >= senseLag {
				return true
			}
		}
	}
	return false
}

func (m refMedium) collided(rec *txRecord, rx *Radio, sender *Radio) bool {
	dSig := sender.pos.Dist(rx.pos)
	sr := m.senseRange()
	for _, tx := range m.candidates(rx.pos) {
		if len(m.recs[tx]) == 0 {
			continue
		}
		dInt := tx.pos.Dist(rx.pos)
		for _, o := range m.recs[tx] {
			if o == rec {
				continue // rec itself
			}
			if o.end <= rec.start || o.start >= rec.end {
				continue // no time overlap
			}
			if tx == rx {
				return true // half duplex: rx was sending
			}
			// Interference reaches out to the sense range: a signal too
			// weak to decode still corrupts concurrent reception.
			if dInt > sr {
				continue
			}
			if m.cfg.CaptureMargin > 0 && dInt >= dSig*m.cfg.CaptureMargin {
				continue // captured: our signal dominates this interferer
			}
			return true
		}
	}
	return false
}

// predicateCheck evaluates the live predicates beside the reference
// ones on a medium as it stands, from inside its OnTransmit and
// OnDeliver hooks: carrier sense for every attached radio, and collided
// at every other attached radio (the medium itself asks only about the
// finished frame's in-range receivers). It asserts the MAC invariant on
// the way: a radio's phase is idle exactly when its timer is, and it
// holds an on-air frame exactly in the on-air phase.
type predicateCheck struct {
	t *testing.T
	m *Medium
}

// atTransmit runs in starting's OnTransmit hook and asks about the
// collisions of every live record. starting arms its airtime event once
// the hook returns, so its timer is still idle.
func (c predicateCheck) atTransmit(starting *Radio) { c.run(c.m.txOrder, starting) }

// atDeliver runs in an OnDeliver hook of the frame cur, inside the
// delivery loop; it asks about the collisions of that frame, as the loop
// does, and leaves the overlap set as the loop needs it.
func (c predicateCheck) atDeliver(cur *txRecord) { c.run([]*txRecord{cur}, nil) }

// macPending reports whether r's MAC timer is armed; a radio that has
// never sent has no timer yet.
func macPending(r *Radio) bool {
	t, ok := r.mac.(*sim.Timer)
	return ok && t.Pending()
}

func (c predicateCheck) run(frames []*txRecord, starting *Radio) {
	t, m := c.t, c.m
	t.Helper()
	now := m.eng.Now()
	ref := newRefMedium(m)
	for _, r := range m.radios {
		if r == nil {
			continue
		}
		if got, want := m.busyFor(r), ref.busyFor(r); got != want {
			t.Fatalf("%v: busyFor(%d) = %v, reference %v", now, r.id, got, want)
		}
		if got, want := m.busyUntil(r), ref.busyUntil(r); got != want {
			t.Fatalf("%v: busyUntil(%d) = %v, reference %v", now, r.id, got, want)
		}
		if (r.phase != macIdle) != macPending(r) && r != starting {
			t.Fatalf("%v: radio %d in phase %d, timer pending %v", now, r.id, r.phase, macPending(r))
		}
		if onAir := r.phase == macOnAir; onAir != (r.airRec != nil) || onAir != (r.airMsg != nil) {
			t.Fatalf("%v: radio %d in phase %d holds frame %v, record %v", now, r.id, r.phase, r.airMsg, r.airRec)
		}
	}
	for _, rec := range frames {
		sender := rec.owner
		if sender.gone {
			continue // never delivered: finishTransmission asks nothing
		}
		m.collectOverlap(rec)
		for _, rx := range m.radios {
			if rx == nil || rx == sender {
				continue
			}
			if got, want := m.collided(rx, sender), ref.collided(rec, rx, sender); got != want {
				t.Fatalf("%v: frame of %d [%v, %v] at %d: collided = %v, reference %v",
					now, sender.id, rec.start, rec.end, rx.id, got, want)
			}
		}
	}
}

// TestOneMACEventPerRadio counts a lone radio's events on the engine:
// however Sends arrive — between events, from the airtime-end callback,
// acks jumping the queue — the radio never has more than one pending,
// has one exactly while it has something to do, and still gets every
// frame out.
func TestOneMACEventPerRadio(t *testing.T) {
	eng := sim.NewEngine(5)
	m := NewMedium(eng, DefaultConfig())
	r := m.Attach(1, Pos{}, nil)
	rng := rand.New(rand.NewSource(5))
	frame := func(n int) *wire.Message {
		if rng.Intn(2) == 0 {
			return testMsg(1, n)
		}
		return dataMsg(1, n)
	}
	sent := 0
	r.OnTransmitted = func(*wire.Message) {
		if rng.Intn(3) == 0 { // as the link does on an airtime end
			sent++
			r.Send(frame(sent))
		}
	}
	check := func() {
		t.Helper()
		want := 0
		if r.queue.Len() > 0 || r.phase == macOnAir {
			want = 1
		}
		if eng.Pending() != want {
			t.Fatalf("%v: %d events pending, want %d (phase %d, %d queued)",
				eng.Now(), eng.Pending(), want, r.phase, r.queue.Len())
		}
		if (r.phase != macIdle) != macPending(r) {
			t.Fatalf("%v: phase %d, timer pending %v", eng.Now(), r.phase, macPending(r))
		}
	}
	for op := 0; op < 5000; op++ {
		if rng.Intn(4) == 0 {
			sent++
			r.Send(frame(sent))
		} else {
			eng.Step()
		}
		check()
	}
	for eng.Step() {
		check()
	}
	if int(r.TxCount) != sent || r.queue.Len() != 0 || r.QueuedBytes() != 0 {
		t.Fatalf("sent %d frames, transmitted %d, %d (%d B) still queued",
			sent, r.TxCount, r.queue.Len(), r.QueuedBytes())
	}
}

// sliceQueue is the radio's transmit queue as it was before the ring: a
// slice popped by reslicing, acks pushed in front by copying the lot.
// TestTransmitQueueMatchesSlice holds the ring-backed radio to it.
type sliceQueue struct {
	queue       []queuedFrame
	queuedBytes int
}

func (q *sliceQueue) send(msg *wire.Message, limit int) bool {
	size := wire.EncodedSize(msg)
	if q.queuedBytes+size > limit {
		return false
	}
	fr := queuedFrame{msg: msg, size: size}
	if msg.Type == wire.TypeAck {
		q.queue = append([]queuedFrame{fr}, q.queue...)
	} else {
		q.queue = append(q.queue, fr)
	}
	q.queuedBytes += size
	return true
}

func (q *sliceQueue) pop() queuedFrame {
	fr := q.queue[0]
	q.queue = q.queue[1:]
	q.queuedBytes -= fr.size
	return fr
}

// TestTransmitQueueMatchesSlice interleaves data and ack Sends with
// engine steps at random, against a buffer small enough to overflow:
// the radio accepts and tail-drops the same frames as the slice queue,
// transmits them in the same order, and reports the same occupancy
// throughout. Detach then leaves nothing queued.
func TestTransmitQueueMatchesSlice(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		cfg := DefaultConfig()
		cfg.OSBufferBytes = 12_000 // eight data frames
		eng := sim.NewEngine(seed)
		m := NewMedium(eng, cfg)
		r := m.Attach(1, Pos{}, nil)
		ref := &sliceQueue{}
		m.OnTransmit = func(_ wire.NodeID, msg *wire.Message, size int) {
			if want := ref.pop(); want.msg != msg || want.size != size {
				t.Fatalf("seed %d: transmitted %+v (%d B), slice queue has %+v (%d B) in front",
					seed, msg.Ack, size, want.msg.Ack, want.size)
			}
		}
		rng := rand.New(rand.NewSource(seed))
		drops := 0
		for op := 0; op < 3000; op++ {
			switch k := rng.Intn(10); {
			case k < 3:
				eng.Step()
			default:
				msg := dataMsg(1, op)
				if k < 6 {
					msg = testMsg(1, op)
				}
				got, want := r.Send(msg), ref.send(msg, cfg.OSBufferBytes)
				if got != want {
					t.Fatalf("seed %d op %d: Send = %v, slice queue %v", seed, op, got, want)
				}
				if !got {
					drops++
				}
			}
			if r.QueuedBytes() != ref.queuedBytes || r.queue.Len() != len(ref.queue) {
				t.Fatalf("seed %d op %d: %d frames (%d B) queued, slice queue %d (%d B)", seed, op,
					r.queue.Len(), r.QueuedBytes(), len(ref.queue), ref.queuedBytes)
			}
		}
		if drops == 0 || r.TxCount == 0 || r.queue.Len() == 0 {
			t.Fatalf("seed %d: degenerate run: %d drops, %d transmitted, %d queued",
				seed, drops, r.TxCount, r.queue.Len())
		}
		if uint64(drops) != r.SentDrop || m.Stats().BufferDrops != r.SentDrop {
			t.Fatalf("seed %d: %d drops, counted %d / %d", seed, drops, r.SentDrop, m.Stats().BufferDrops)
		}
		m.Detach(1)
		if r.queue.Len() != 0 || r.QueuedBytes() != 0 {
			t.Fatalf("seed %d: detached radio still queues %d frames (%d B)", seed, r.queue.Len(), r.QueuedBytes())
		}
		if r.Send(testMsg(1, 0)) {
			t.Fatalf("seed %d: detached radio accepted a frame", seed)
		}
		tx := r.TxCount
		eng.Run(eng.Now() + time.Second)
		if r.TxCount != tx {
			t.Fatalf("seed %d: detached radio transmitted", seed)
		}
	}
}

// gridSpacing is scenario.GridSpacing (scenario imports this package).
const gridSpacing = 30

// attachGrid attaches a rows×cols grid of receivers without handlers.
func attachGrid(m *Medium, rows, cols int) []*Radio {
	radios := make([]*Radio, 0, rows*cols)
	for i := 0; i < rows*cols; i++ {
		pos := Pos{X: float64(i%cols) * gridSpacing, Y: float64(i/cols) * gridSpacing}
		radios = append(radios, m.Attach(wire.NodeID(i+1), pos, nil))
	}
	return radios
}

// TestSteadyStateFrameAllocatesNothing is the tentpole's floor: on a
// warm medium one frame's whole life — Send, the zero-delay kick, the
// backoff, the airtime, delivery to the 8 neighbors of a 3×3 grid's
// center — allocates nothing in sim or radio.
func TestSteadyStateFrameAllocatesNothing(t *testing.T) {
	eng := sim.NewEngine(1)
	m := NewMedium(eng, DefaultConfig())
	center := attachGrid(m, 3, 3)[4]
	msg := dataMsg(center.id, 1)
	before := m.Stats()
	avg := testing.AllocsPerRun(200, func() {
		center.Send(msg)
		for eng.Step() {
		}
	})
	if avg != 0 {
		t.Fatalf("a steady-state frame allocates %.2f objects, want 0", avg)
	}
	st := m.Stats()
	if frames := st.Transmissions - before.Transmissions; frames != 201 ||
		st.Delivered+st.RandomLosses-before.Delivered-before.RandomLosses != 8*frames {
		t.Fatalf("expected 201 frames to 8 neighbors each: %+v", st)
	}
}

// BenchmarkMediumFrame is the cost of one frame through the medium —
// contention, airtime, collision checks, fan-out — on the paper's 10×10
// grid with 1, 4 and 16 senders that always have a next frame queued.
// One op is one transmitted frame.
func BenchmarkMediumFrame(b *testing.B) {
	for _, senders := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("senders=%d", senders), func(b *testing.B) {
			eng := sim.NewEngine(1)
			m := NewMedium(eng, DefaultConfig())
			radios := attachGrid(m, 10, 10)
			for k := 0; k < senders; k++ {
				at := [4]int{1, 3, 6, 8} // rows and columns: spread over the grid
				r := radios[at[k/4]*10+at[k%4]]
				msg := dataMsg(r.id, k)
				r.OnTransmitted = func(*wire.Message) { r.Send(msg) }
				r.Send(msg)
			}
			run := func(frames uint64) {
				for until := m.Stats().Transmissions + frames; m.Stats().Transmissions < until; {
					eng.Step()
				}
			}
			run(1000) // warm the record pool, the rings and the wheel
			start := m.Stats()
			b.ReportAllocs()
			b.ResetTimer()
			run(uint64(b.N))
			b.StopTimer()
			b.ReportMetric(float64(m.Stats().Delivered-start.Delivered)/float64(b.N), "delivered/frame")
		})
	}
}
