package link

import (
	"testing"
	"time"

	"pds/internal/attr"
	"pds/internal/sim"
	"pds/internal/wire"
)

func testConfig() Config {
	cfg := DefaultConfig(func(time.Duration) time.Duration { return 0 })
	return cfg
}

func smallResponse(id uint64, to wire.NodeID) *wire.Message {
	return &wire.Message{
		Type: wire.TypeResponse,
		Response: &wire.Response{
			ID:        id,
			Kind:      wire.KindMetadata,
			Receivers: []wire.NodeID{to},
			Entries: []attr.Descriptor{
				attr.NewDescriptor().Set("a", attr.Int(1)),
			},
		},
	}
}

// pipe connects two links through a lossless in-memory channel with a
// programmable drop function.
type pipe struct {
	eng  *sim.Engine
	a, b *Link
	// dropAtoB drops the nth frame from a to b when it returns true.
	dropAtoB func(n int) bool
	nAB      int
	// deliveredB collects messages b's link handed up.
	deliveredB []*wire.Message
}

func newPipe(t *testing.T, cfgA, cfgB Config) *pipe {
	t.Helper()
	p := &pipe{eng: sim.NewEngine(1)}
	p.a = New(p.eng, 1, func(m *wire.Message) bool {
		n := p.nAB
		p.nAB++
		if p.dropAtoB != nil && p.dropAtoB(n) {
			return true // "sent" but lost on the air
		}
		mm := m.Clone()
		p.eng.Schedule(time.Millisecond, func() {
			if up := p.b.HandleIncoming(mm); up != nil {
				p.deliveredB = append(p.deliveredB, up)
			}
		})
		return true
	}, cfgA)
	p.b = New(p.eng, 2, func(m *wire.Message) bool {
		mm := m.Clone()
		p.eng.Schedule(time.Millisecond, func() { p.a.HandleIncoming(mm) })
		return true
	}, cfgB)
	return p
}

type pipeDelivery = []*wire.Message

func TestDeliveryWithAck(t *testing.T) {
	p := newPipe(t, testConfig(), testConfig())
	p.a.Send(smallResponse(42, 2))
	p.eng.Run(5 * time.Second)
	if len(p.deliveredB) != 1 {
		t.Fatalf("delivered %d messages", len(p.deliveredB))
	}
	if p.a.PendingAcks() != 0 {
		t.Fatalf("pending acks left: %d", p.a.PendingAcks())
	}
	if p.a.Stats().Retransmissions != 0 {
		t.Fatalf("spurious retransmissions: %d", p.a.Stats().Retransmissions)
	}
	if p.b.Stats().AcksSent != 1 {
		t.Fatalf("acks sent = %d", p.b.Stats().AcksSent)
	}
}

func TestRetransmissionRecoversLoss(t *testing.T) {
	p := newPipe(t, testConfig(), testConfig())
	p.dropAtoB = func(n int) bool { return n == 0 } // lose the first copy
	p.a.Send(smallResponse(42, 2))
	p.eng.Run(10 * time.Second)
	if len(p.deliveredB) != 1 {
		t.Fatalf("delivered %d messages after loss", len(p.deliveredB))
	}
	if p.a.Stats().Retransmissions == 0 {
		t.Fatal("no retransmission happened")
	}
}

func TestGiveUpAfterMaxRetr(t *testing.T) {
	cfg := testConfig()
	cfg.MaxRetr = 2
	p := newPipe(t, cfg, testConfig())
	p.dropAtoB = func(n int) bool { return true } // black hole
	var gaveUp []wire.NodeID
	p.a.OnGiveUp = func(_ *wire.Message, unacked []wire.NodeID) { gaveUp = unacked }
	p.a.Send(smallResponse(42, 2))
	p.eng.Run(30 * time.Second)
	if len(p.deliveredB) != 0 {
		t.Fatal("delivery through a black hole")
	}
	if len(gaveUp) != 1 || gaveUp[0] != 2 {
		t.Fatalf("OnGiveUp = %v", gaveUp)
	}
	if got := p.a.Stats().Retransmissions; got != 2 {
		t.Fatalf("retransmissions = %d, want 2", got)
	}
	if p.a.PendingAcks() != 0 {
		t.Fatal("pending entry leaked after give-up")
	}
}

func TestDuplicateSuppression(t *testing.T) {
	// Drop the ack direction so A retransmits; B must deliver once.
	cfg := testConfig()
	p := newPipe(t, cfg, cfg)
	ackDropped := false
	origB := p.b
	_ = origB
	// Intercept b→a to drop the first ack.
	p.b = New(p.eng, 2, func(m *wire.Message) bool {
		if m.Type == wire.TypeAck && !ackDropped {
			ackDropped = true
			return true
		}
		mm := m.Clone()
		p.eng.Schedule(time.Millisecond, func() { p.a.HandleIncoming(mm) })
		return true
	}, cfg)
	p.a.Send(smallResponse(42, 2))
	p.eng.Run(10 * time.Second)
	if len(p.deliveredB) != 1 {
		t.Fatalf("delivered %d, want exactly 1 (dedup)", len(p.deliveredB))
	}
	if p.b.Stats().DupDropped == 0 {
		t.Fatal("duplicate was not detected")
	}
	if p.b.Stats().AcksSent < 2 {
		t.Fatal("duplicate was not re-acked")
	}
}

func TestNoAckForFloods(t *testing.T) {
	p := newPipe(t, testConfig(), testConfig())
	flood := &wire.Message{
		Type:  wire.TypeQuery,
		Query: &wire.Query{ID: 9, Kind: wire.KindMetadata, TTL: time.Second},
	}
	p.a.Send(flood)
	p.eng.Run(2 * time.Second)
	if p.b.Stats().AcksSent != 0 {
		t.Fatal("flooded (receiverless) message was acked")
	}
	if len(p.deliveredB) != 1 {
		t.Fatalf("flood not delivered: %d", len(p.deliveredB))
	}
}

func TestPacingLimitsRate(t *testing.T) {
	cfg := testConfig()
	cfg.BucketBytes = 2000
	cfg.LeakRate = 10000 // 10 kB/s
	cfg.AckEnabled = false
	cfg.FragmentBytes = 0 // keep each message one frame
	var sentAt []time.Duration
	eng := sim.NewEngine(1)
	l := New(eng, 1, func(m *wire.Message) bool {
		sentAt = append(sentAt, eng.Now())
		return true
	}, cfg)
	// 10 messages of ~1.3 kB: burst covers the first ~1.5, then pacing
	// at 10 kB/s must spread the rest over ~1.2 s.
	for i := 0; i < 10; i++ {
		msg := smallResponse(uint64(i), 2)
		msg.Response.Blobs = []wire.Blob{{
			Desc:    attr.NewDescriptor().Set("i", attr.Int(int64(i))),
			Payload: make([]byte, 1300),
		}}
		l.Send(msg)
	}
	eng.Run(time.Minute)
	if len(sentAt) != 10 {
		t.Fatalf("transmitted %d", len(sentAt))
	}
	if last := sentAt[9]; last < 500*time.Millisecond {
		t.Fatalf("pacing too fast: last frame at %v", last)
	}
}

// TestPacingPassesFrameOverBucket: a whole frame bigger than the bucket
// leaves once the bucket is full, and the debt it runs up holds the next
// frame back for as long as the bucket takes to repay it.
func TestPacingPassesFrameOverBucket(t *testing.T) {
	cfg := testConfig()
	cfg.BucketBytes = 2000
	cfg.LeakRate = 10000 // 10 kB/s
	cfg.AckEnabled = false
	cfg.FragmentBytes = 0
	var sentAt []time.Duration
	eng := sim.NewEngine(1)
	l := New(eng, 1, func(m *wire.Message) bool {
		sentAt = append(sentAt, eng.Now())
		return true
	}, cfg)
	big := smallResponse(1, 2)
	big.Response.Blobs = []wire.Blob{{Payload: make([]byte, 5000)}}
	l.Send(big)
	l.Send(smallResponse(2, 2))
	eng.Run(time.Minute)
	if len(sentAt) != 2 || sentAt[0] != 0 {
		t.Fatalf("frames left at %v, want the oversize one at once and then the small one", sentAt)
	}
	if sentAt[1] < 300*time.Millisecond {
		t.Fatalf("the frame behind a 5 kB one left at %v: the bucket ran up no debt", sentAt[1])
	}
}

// TestPacingQueueKeepsOrderAndCount drives the pacing queue through
// random sends, drains and resets: frames leave in the order they were
// sent, and QueuedBytes — a counter, not a walk — says at every step,
// from inside the raw sender too (armRetry reads it there), what an
// independent account of bytes in and out says.
func TestPacingQueueKeepsOrderAndCount(t *testing.T) {
	cfg := testConfig()
	cfg.BucketBytes = 3000
	cfg.LeakRate = 50000
	cfg.AckEnabled = false
	cfg.FragmentBytes = 0 // keep each message one frame
	eng := sim.NewEngine(1)
	rng := eng.Rand()
	var l *Link
	var queued []uint64 // response ids in the queue, oldest first
	backlog := 0        // their encoded sizes, summed
	var sending *wire.Message
	l = New(eng, 1, func(m *wire.Message) bool {
		if len(queued) == 0 || queued[0] != m.Response.ID {
			t.Fatalf("%v: frame %d left the queue, want the head of %v", eng.Now(), m.Response.ID, queued)
		}
		queued = queued[1:]
		if m == sending {
			sending = nil // straight through, inside Send: never counted in
		} else {
			backlog -= wire.EncodedSize(m)
		}
		if l.QueuedBytes() != backlog {
			t.Fatalf("%v: QueuedBytes = %d inside the raw sender, account says %d", eng.Now(), l.QueuedBytes(), backlog)
		}
		return true
	}, cfg)
	deepest := 0
	for op := 0; op < 4000; op++ {
		switch k := rng.Intn(100); {
		case k == 0:
			l.Reset()
			queued, backlog = nil, 0
		case k < 45:
			msg := smallResponse(uint64(op), 2)
			msg.Response.Blobs = []wire.Blob{{Payload: make([]byte, rng.Intn(1400))}}
			queued = append(queued, msg.Response.ID)
			sending = msg
			l.Send(msg)
			if sending != nil { // still queued; sized as stamped, as enqueue did
				backlog += wire.EncodedSize(msg)
				sending = nil
			}
		default:
			eng.Step()
		}
		if l.QueuedBytes() != backlog || l.queue.Len() != len(queued) {
			t.Fatalf("op %d: %d frames, QueuedBytes = %d; account says %d frames, %d B",
				op, l.queue.Len(), l.QueuedBytes(), len(queued), backlog)
		}
		deepest = max(deepest, len(queued))
	}
	if deepest < 8 {
		t.Fatalf("degenerate run: the queue never held more than %d frames", deepest)
	}
	eng.Run(eng.Now() + time.Hour)
	if l.QueuedBytes() != 0 || len(queued) != 0 {
		t.Fatalf("after draining: QueuedBytes = %d, %d frames unaccounted", l.QueuedBytes(), len(queued))
	}
}

func TestFragmentationRoundTrip(t *testing.T) {
	p := newPipe(t, testConfig(), testConfig())
	payload := make([]byte, 10000)
	for i := range payload {
		payload[i] = byte(i)
	}
	big := &wire.Message{
		Type: wire.TypeResponse,
		Response: &wire.Response{
			ID:        7,
			Kind:      wire.KindChunk,
			Receivers: []wire.NodeID{2},
			Blobs:     []wire.Blob{{Desc: attr.NewDescriptor().Set("c", attr.Int(0)), Payload: payload}},
		},
	}
	p.a.Send(big)
	p.eng.Run(10 * time.Second)
	if len(p.deliveredB) != 1 {
		t.Fatalf("reassembled %d messages", len(p.deliveredB))
	}
	got := p.deliveredB[0]
	if got.Type != wire.TypeResponse || len(got.Response.Blobs) != 1 {
		t.Fatalf("wrong message after reassembly: %+v", got)
	}
	if len(got.Response.Blobs[0].Payload) != len(payload) {
		t.Fatal("payload length changed")
	}
	if p.a.Stats().Fragmented != 1 {
		t.Fatalf("Fragmented = %d", p.a.Stats().Fragmented)
	}
	if p.b.Stats().Reassembled != 1 {
		t.Fatalf("Reassembled = %d", p.b.Stats().Reassembled)
	}
}

func TestFragmentLossRecovered(t *testing.T) {
	p := newPipe(t, testConfig(), testConfig())
	p.dropAtoB = func(n int) bool { return n == 2 } // lose one fragment
	payload := make([]byte, 6000)
	big := &wire.Message{
		Type: wire.TypeResponse,
		Response: &wire.Response{
			ID:        7,
			Kind:      wire.KindChunk,
			Receivers: []wire.NodeID{2},
			Blobs:     []wire.Blob{{Desc: attr.NewDescriptor().Set("c", attr.Int(0)), Payload: payload}},
		},
	}
	p.a.Send(big)
	p.eng.Run(20 * time.Second)
	if len(p.deliveredB) != 1 {
		t.Fatalf("reassembled %d after fragment loss", len(p.deliveredB))
	}
}

func TestFragmentJobAbort(t *testing.T) {
	cfg := testConfig()
	cfg.MaxRetr = 1
	p := newPipe(t, cfg, testConfig())
	p.dropAtoB = func(n int) bool { return true }
	gaveUp := 0
	p.a.OnGiveUp = func(msg *wire.Message, _ []wire.NodeID) {
		gaveUp++
		if msg.Type != wire.TypeResponse {
			t.Errorf("OnGiveUp got %v, want the original response", msg.Type)
		}
	}
	big := &wire.Message{
		Type: wire.TypeResponse,
		Response: &wire.Response{
			ID:        7,
			Kind:      wire.KindChunk,
			Receivers: []wire.NodeID{2},
			Blobs:     []wire.Blob{{Desc: attr.NewDescriptor().Set("c", attr.Int(0)), Payload: make([]byte, 20000)}},
		},
	}
	p.a.Send(big)
	p.eng.Run(60 * time.Second)
	if gaveUp != 1 {
		t.Fatalf("OnGiveUp called %d times, want once per job", gaveUp)
	}
	if len(p.deliveredB) != 0 {
		t.Fatal("delivery through black hole")
	}
}

func TestJobsSerializePerLink(t *testing.T) {
	cfg := testConfig()
	var order []uint64
	eng := sim.NewEngine(1)
	l := New(eng, 1, func(m *wire.Message) bool {
		if m.Type == wire.TypeFragment {
			order = append(order, m.Fragment.OrigID)
		}
		return true
	}, cfg)
	mk := func(id uint64) *wire.Message {
		return &wire.Message{
			Type: wire.TypeResponse,
			Response: &wire.Response{
				ID:        id,
				Kind:      wire.KindChunk,
				Receivers: []wire.NodeID{2},
				Blobs:     []wire.Blob{{Desc: attr.NewDescriptor().Set("c", attr.Int(int64(id))), Payload: make([]byte, 4000)}},
			},
		}
	}
	l.Send(mk(1))
	l.Send(mk(2))
	eng.Run(time.Second)
	// With no acks coming back, only the first job's window should be
	// on the air; the second job waits.
	seen := map[uint64]bool{}
	for _, id := range order {
		seen[id] = true
	}
	if len(seen) != 1 {
		t.Fatalf("both jobs transmitted concurrently: %v", order)
	}
}

// TestGiveUpReportsSortedUnacked pins the determinism fix in the
// give-up paths: the unacked list handed to OnGiveUp is collected from
// a map, so it must be sorted before the health tracker strikes
// neighbors (the second strike kills one — order changes outcomes).
func TestGiveUpReportsSortedUnacked(t *testing.T) {
	cfg := testConfig()
	cfg.MaxRetr = 1
	p := newPipe(t, cfg, testConfig())
	p.dropAtoB = func(n int) bool { return true } // black hole
	var gaveUp []wire.NodeID
	p.a.OnGiveUp = func(_ *wire.Message, unacked []wire.NodeID) { gaveUp = unacked }
	msg := smallResponse(42, 2)
	msg.Response.Receivers = []wire.NodeID{9, 4, 7, 2, 8, 3, 6, 5}
	p.a.Send(msg)
	p.eng.Run(30 * time.Second)
	if len(gaveUp) != 8 {
		t.Fatalf("OnGiveUp reported %v, want all 8 receivers", gaveUp)
	}
	for i := 1; i < len(gaveUp); i++ {
		if gaveUp[i-1] >= gaveUp[i] {
			t.Fatalf("unacked list not sorted: %v", gaveUp)
		}
	}
}

// TestCompletedReassemblyKeepsOnlyTombstone drives the real-transport
// path (fragments carrying bytes, as a face or UDP socket delivers
// them): once the message is handed up — or its bytes fail to decode —
// the table entry must let go of every fragment buffer, and a fragment
// of the same message arriving after that must neither deliver it again
// nor start a second reassembly.
func TestCompletedReassemblyKeepsOnlyTombstone(t *testing.T) {
	payload := make([]byte, 5000)
	for i := range payload {
		payload[i] = byte(i)
	}
	whole := &wire.Message{
		Type: wire.TypeResponse, TransmitID: 1, From: 2,
		Response: &wire.Response{
			ID: 7, Kind: wire.KindChunk, Receivers: []wire.NodeID{1},
			Blobs: []wire.Blob{{Desc: attr.NewDescriptor().Set("c", attr.Int(0)), Payload: payload}},
		},
	}
	enc, err := wire.Encode(whole)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name    string
		bytes   []byte
		decodes bool
	}{
		{"delivered", enc, true},
		{"undecodable", make([]byte, len(enc)), false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := testConfig()
			clk := &manualClock{}
			lk := New(clk, 1, func(*wire.Message) bool { return true }, cfg)
			count := (len(tc.bytes) + cfg.FragmentBytes - 1) / cfg.FragmentBytes
			var tid uint64
			frag := func(i int) *wire.Message {
				tid++
				data := tc.bytes[i*cfg.FragmentBytes : min((i+1)*cfg.FragmentBytes, len(tc.bytes))]
				return &wire.Message{
					Type: wire.TypeFragment, TransmitID: 100 + tid, From: 2,
					Fragment: &wire.Fragment{OrigID: 55, Index: i, Count: count, Receivers: []wire.NodeID{1}, Size: len(data), Data: data},
				}
			}
			var up []*wire.Message
			for i := 0; i < count; i++ {
				if i == count-1 && lk.reasms[55].big.parts[0] == nil {
					t.Fatal("an in-progress reassembly must hold its fragments")
				}
				if m := lk.HandleIncoming(frag(i)); m != nil {
					up = append(up, m)
				}
			}
			// The sender's ack was lost: the last fragment comes again
			// under a TransmitID the dedup window has since forgotten.
			clk.now += cfg.DedupRetention
			if m := lk.HandleIncoming(frag(count - 1)); m != nil {
				up = append(up, m)
			}
			st := lk.Stats()
			if tc.decodes {
				if len(up) != 1 || len(up[0].Response.Blobs[0].Payload) != len(payload) || st.ReasmErrors != 0 {
					t.Fatalf("handed up %d messages, %d decode errors, want the one message", len(up), st.ReasmErrors)
				}
			} else if len(up) != 0 || st.ReasmErrors != 1 {
				t.Fatalf("handed up %d messages, %d decode errors, want 0 and 1", len(up), st.ReasmErrors)
			}
			r := lk.reasms[55]
			if st.Reassembled != 1 || len(lk.reasms) != 1 || r.got != r.count || r.big != nil {
				t.Fatalf("finished reassembly still holds state: reassembled=%d entries=%d %+v", st.Reassembled, len(lk.reasms), r)
			}
		})
	}
}

// cutFragments encodes msg and cuts it into count byte-carrying
// fragments of OrigID orig, as a socket carrier delivers them;
// TransmitIDs from tid.
func cutFragments(t testing.TB, msg *wire.Message, orig, tid uint64, count int) []*wire.Message {
	t.Helper()
	enc, err := wire.Encode(msg)
	if err != nil {
		t.Fatal(err)
	}
	size := (len(enc) + count - 1) / count
	frames := make([]*wire.Message, count)
	for i := range frames {
		data := enc[i*size : min((i+1)*size, len(enc))]
		frames[i] = &wire.Message{
			Type: wire.TypeFragment, TransmitID: tid + uint64(i), From: 2, NoAck: true,
			Fragment: &wire.Fragment{OrigID: orig, Index: i, Count: count, Size: len(data), Data: data},
		}
	}
	return frames
}

// rogueFragment claims a place far beyond a two-fragment message of the
// same OrigID.
func rogueFragment(orig uint64) *wire.Message {
	return &wire.Message{
		Type: wire.TypeFragment, TransmitID: 999, From: 3, NoAck: true,
		Fragment: &wire.Fragment{OrigID: orig, Index: 50, Count: 100, Size: 4, Data: []byte("junk")},
	}
}

// TestFragmentCountMismatchDropped: a fragment whose Count disagrees
// with the reassembly it names is dropped and counted, whichever of the
// two came first — its Index was only ever checked against its own
// Count, and used to index tables sized by the other's. Fed as built and
// as any peer on a socket face can send it, through the checked codec.
func TestFragmentCountMismatchDropped(t *testing.T) {
	asBuilt := func(m *wire.Message) *wire.Message { return m }
	offTheWire := func(m *wire.Message) *wire.Message {
		buf, err := wire.AppendChecked(nil, m)
		if err != nil {
			t.Fatal(err)
		}
		d, err := wire.DecodeChecked(buf)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	for _, tc := range []struct {
		name       string
		via        func(*wire.Message) *wire.Message
		rogueFirst bool
	}{
		{"rogue second", asBuilt, false},
		{"rogue first", asBuilt, true},
		{"rogue second, off the wire", offTheWire, false},
		{"rogue first, off the wire", offTheWire, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			lk := New(&manualClock{}, 1, func(*wire.Message) bool { return true }, testConfig())
			legit := cutFragments(t, smallResponse(42, 1), 77, 100, 2)
			order := []*wire.Message{legit[0], rogueFragment(77), legit[1]}
			// The reassembly is whoever came first's: the rogue is at odds
			// with the honest pair's, which then completes — or both honest
			// fragments with the rogue's, which never does.
			wantErrors, wantUp := uint64(1), 1
			if tc.rogueFirst {
				order[0], order[1] = order[1], order[0]
				wantErrors, wantUp = 2, 0
			}
			up := 0
			for _, m := range order {
				if got := lk.HandleIncoming(tc.via(m)); got != nil {
					if got.Response == nil || got.Response.ID != 42 {
						t.Fatalf("handed up %+v", got)
					}
					up++
				}
			}
			if st := lk.Stats(); st.ReasmErrors != wantErrors || up != wantUp {
				t.Fatalf("ReasmErrors = %d, %d messages handed up; want %d and %d", st.ReasmErrors, up, wantErrors, wantUp)
			}
		})
	}
}

// TestReassemblyRefusesAbsurdCounts: Count sizes a reassembly's tables,
// so one beyond any message the link could be sent is refused before
// anything is allocated for it.
func TestReassemblyRefusesAbsurdCounts(t *testing.T) {
	lk := New(&manualClock{}, 1, func(*wire.Message) bool { return true }, testConfig())
	for i, count := range []int{maxFragments + 1, 1 << 40, -1, 0} {
		m := rogueFragment(uint64(i))
		m.TransmitID += uint64(i)
		m.Fragment.Index, m.Fragment.Count = 0, count
		if up := lk.HandleIncoming(m); up != nil || len(lk.reasms) != 0 {
			t.Fatalf("Count %d: handed up %v, %d reassemblies started", count, up, len(lk.reasms))
		}
	}
}

// FuzzHandleIncoming feeds a link whatever two frames decode to, in
// order: it must never panic. The seeds are the pair that used to index
// a two-slot table at 50, both ways round, and frames of one sender
// whose seqs lie further apart than a dedup window may span.
func FuzzHandleIncoming(f *testing.F) {
	encode := func(m *wire.Message) []byte {
		buf, err := wire.Encode(m)
		if err != nil {
			f.Fatal(err)
		}
		return buf
	}
	legit := cutFragments(f, smallResponse(42, 1), 77, 100, 2)[0]
	f.Add(encode(legit), encode(rogueFragment(77)))
	f.Add(encode(rogueFragment(77)), encode(legit))
	f.Add(encode(smallResponse(1, 1)), []byte{})
	seq := func(seq uint64) []byte { return encode(dedupFrame(wire.NewTransmitID(2, seq), kindOverheard)) }
	f.Add(seq(0), seq(1<<32-1))
	f.Add(seq(1<<32-1), seq(0))
	f.Add(seq(3<<20), seq(1))
	f.Fuzz(func(t *testing.T, first, second []byte) {
		lk := New(&manualClock{}, 1, func(*wire.Message) bool { return true }, testConfig())
		for _, data := range [][]byte{first, second} {
			if m, err := wire.Decode(data); err == nil {
				lk.HandleIncoming(m)
			}
		}
	})
}
