package link

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"pds/internal/attr"
	"pds/internal/clock"
	"pds/internal/ring"
	"pds/internal/sim"
	"pds/internal/wire"
)

var updateFrames = flag.Bool("update-frames", false, "rewrite testdata/frames_*.golden from the current link")

// stream is two links on one engine: a (node 1) sends, b (node 2)
// receives and acknowledges, a millisecond apart in both directions. A
// frame addressed to any other node goes nowhere — node 3 is the peer
// that never answers. The channel is one ring of frames in flight and
// one engine timer for the next landing, so nothing but the links
// allocates while frames move, and a frame lands on the pointer it left
// on, as on the simulated medium.
type stream struct {
	eng  *sim.Engine
	a, b *Link
	air  ring.Queue[flight]
	land interface{ Reset(time.Duration) }
	busy bool // land is armed

	sentA int                 // frames a handed to the channel
	drop  func(n int) bool    // a's nth frame is lost on the air
	log   *strings.Builder    // every frame and give-up, when set
	up    func(*wire.Message) // what b hands up

	// Objects allocated inside calls into each link, while counting.
	counting         bool
	allocsA, allocsB uint64
}

type flight struct {
	at  time.Duration
	to  *Link
	msg *wire.Message
}

const streamDelay = time.Millisecond

// newStream builds the pair on clk(eng) — the engine itself when clk is
// nil.
func newStream(cfg Config, clk func(*sim.Engine) clock.Clock) *stream {
	s := &stream{eng: sim.NewEngine(1)}
	var c clock.Clock = s.eng
	if clk != nil {
		c = clk(s.eng)
	}
	s.land = s.eng.NewTimer(s.landNext)
	s.a = New(c, 1, func(m *wire.Message) bool {
		n := s.sentA
		s.sentA++
		lost := s.drop != nil && s.drop(n)
		s.note(1, m, lost)
		if !lost {
			s.fly(s.b, m)
		}
		return true
	}, cfg)
	s.b = New(c, 2, func(m *wire.Message) bool {
		s.note(2, m, false)
		s.fly(s.a, m)
		return true
	}, cfg)
	s.a.OnGiveUp = func(m *wire.Message, unacked []wire.NodeID) {
		if s.log != nil {
			fmt.Fprintf(s.log, "%v giveup type=%d unacked=%v\n", s.eng.Now(), m.Type, unacked)
		}
	}
	return s
}

func (s *stream) note(from wire.NodeID, m *wire.Message, lost bool) {
	if s.log == nil {
		return
	}
	fate := ""
	if lost {
		fate = " lost"
	}
	fmt.Fprintf(s.log, "%v %d>%d:%d type=%d rx=%v%s\n", s.eng.Now(), from,
		m.TransmitID>>32, m.TransmitID&0xffffffff, m.Type, m.Receivers(), fate)
}

func (s *stream) fly(to *Link, m *wire.Message) {
	s.air.PushBack(flight{at: s.eng.Now() + streamDelay, to: to, msg: m})
	if !s.busy {
		s.busy = true
		s.land.Reset(streamDelay)
	}
}

func (s *stream) landNext() {
	f := s.air.PopFront()
	if s.busy = s.air.Len() > 0; s.busy {
		s.land.Reset(s.air.Front().at - s.eng.Now())
	}
	if f.to == s.a {
		s.allocsA += s.count(func() { s.a.HandleIncoming(f.msg) })
		return
	}
	var got *wire.Message
	s.allocsB += s.count(func() { got = s.b.HandleIncoming(f.msg) })
	if got != nil && s.up != nil {
		s.up(got)
	}
}

// count runs f and, while counting, returns the objects it allocated
// (as testing.AllocsPerRun counts them).
func (s *stream) count(f func()) uint64 {
	if !s.counting {
		f()
		return 0
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// send hands msg to a and runs the engine until nothing is left to do.
func (s *stream) send(msg *wire.Message) {
	s.allocsA += s.count(func() { s.a.Send(msg) })
	s.eng.Run(s.eng.Now() + time.Hour)
}

func chunkTo(payload []byte, to ...wire.NodeID) *wire.Message {
	return &wire.Message{
		Type: wire.TypeResponse,
		Response: &wire.Response{
			ID: 7, Kind: wire.KindChunk, Receivers: to,
			Blobs: []wire.Blob{{Desc: attr.NewDescriptor().Set("c", attr.Int(0)), Payload: payload}},
		},
	}
}

// lossyStream is a 256 KB chunk to node 2 with every seventh frame of
// the sender's lost: retransmissions, narrowed lists and backoff are all
// in its log.
func lossyStream(s *stream) {
	s.drop = func(n int) bool { return n%7 == 6 }
	s.send(chunkTo(make([]byte, 256<<10), 2))
}

// duplicateReceivers sends lists that name a node twice: to the peer
// that acknowledges (one ack settles both mentions), to the one that
// never does (narrowed to both mentions, one strike at give-up), and a
// fragmented message to both (every fragment narrowed, the job given up
// once).
func duplicateReceivers(s *stream) {
	s.send(chunkTo(make([]byte, 100), 2, 2))
	s.send(chunkTo(make([]byte, 100), 3, 2, 3))
	s.send(chunkTo(make([]byte, 4000), 2, 3, 2, 3))
}

var pinnedStreams = []struct {
	name    string
	maxRetr int
	run     func(*stream)
}{
	{"lossy", 6, lossyStream},
	{"duplicates", 2, duplicateReceivers},
}

// frameLog runs one pinned stream and returns every frame either link
// handed to the channel — time, sender, TransmitID, type, receiver list
// — every give-up, and both links' counters.
func frameLog(maxRetr int, run func(*stream), clk func(*sim.Engine) clock.Clock) string {
	cfg := testConfig()
	cfg.MaxRetr = maxRetr
	s := newStream(cfg, clk)
	s.log = &strings.Builder{}
	delivered := 0
	s.up = func(*wire.Message) { delivered++ }
	run(s)
	fmt.Fprintf(s.log, "delivered=%d pendingA=%d\na=%+v\nb=%+v\n", delivered, s.a.PendingAcks(), s.a.Stats(), s.b.Stats())
	return s.log.String()
}

// plainClock hides the engine's own timer, so the links' timers are
// built on Schedule.
type plainClock struct{ eng *sim.Engine }

func (c plainClock) Now() time.Duration { return c.eng.Now() }
func (c plainClock) Schedule(d time.Duration, fn func()) func() {
	return c.eng.Schedule(d, fn)
}

// TestFrameLogPinned holds the link's behaviour on the air — which frame
// leaves when, under which TransmitID, toward whom — to logs captured
// before its per-frame records were pooled, on the engine's own timers
// and on timers made of Schedule calls alike: there is one retry path.
func TestFrameLogPinned(t *testing.T) {
	for _, ps := range pinnedStreams {
		t.Run(ps.name, func(t *testing.T) {
			path := filepath.Join("testdata", "frames_"+ps.name+".golden")
			got := frameLog(ps.maxRetr, ps.run, nil)
			if onSchedule := frameLog(ps.maxRetr, ps.run, func(e *sim.Engine) clock.Clock { return plainClock{e} }); onSchedule != got {
				t.Fatalf("frame log on a Schedule-only clock differs from the engine's:\n%s", firstDiff(onSchedule, got))
			}
			if *updateFrames {
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if got != string(want) {
				t.Fatalf("frame log differs from %s:\n%s", path, firstDiff(got, string(want)))
			}
		})
	}
}

// firstDiff names the first line at which two logs part.
func firstDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(g) && i < len(w); i++ {
		if g[i] != w[i] {
			return fmt.Sprintf("line %d\n got: %s\nwant: %s", i+1, g[i], w[i])
		}
	}
	return fmt.Sprintf("%d lines, want %d", len(g), len(w))
}

// ackedStream is the steady state the pooled records are for: 256 KB
// chunks, one after another, every fragment acknowledged. Between
// messages the engine runs on past the dedup retention, as between two
// retrievals, so the window's maps rotate instead of growing.
type ackedStream struct {
	*stream
	payload   []byte
	fragments int
	delivered int
}

func newAckedStream() *ackedStream {
	as := &ackedStream{stream: newStream(testConfig(), nil), payload: make([]byte, 256<<10)}
	as.up = func(*wire.Message) { as.delivered++ }
	as.next()
	as.fragments = int(as.b.Stats().AcksSent)
	return as
}

func (as *ackedStream) next() { as.send(chunkTo(as.payload, 2)) }

// TestAckedStreamAllocations: once the pools are warm, a message costs
// the sender its job and one slab for all its frames, and the receiver
// its reassembly and an ack chunk for every 64 acks — a small fraction
// of an object a delivered fragment on either side.
func TestAckedStreamAllocations(t *testing.T) {
	as := newAckedStream()
	for i := 0; i < 3; i++ {
		as.next()
	}
	const messages = 5
	as.counting = true
	for i := 0; i < messages; i++ {
		as.next()
	}
	if as.delivered != 4+messages || as.a.PendingAcks() != 0 || as.a.Stats().Retransmissions != 0 {
		t.Fatalf("delivered %d messages with %d acks pending and %d retransmissions",
			as.delivered, as.a.PendingAcks(), as.a.Stats().Retransmissions)
	}
	perFragment := func(allocs uint64) float64 { return float64(allocs) / float64(messages*as.fragments) }
	t.Logf("%d fragments a message: sender %.3f, receiver %.3f objects a fragment", as.fragments, perFragment(as.allocsA), perFragment(as.allocsB))
	// The sender's message, response and blob list are made by the test.
	if got := perFragment(as.allocsA); got > 0.05 {
		t.Errorf("sender allocates %.3f objects a delivered fragment, want its frames batched", got)
	}
	if got := perFragment(as.allocsB); got > 0.05 {
		t.Errorf("receiver allocates %.3f objects a delivered fragment, want its acks batched", got)
	}
}

// TestIdleRecordsHoldNoMessage: a record back on the free list, and the
// timer it keeps, reference nothing of the frame it tracked — not after
// the last ack, not after a give-up, not after Reset.
func TestIdleRecordsHoldNoMessage(t *testing.T) {
	for _, tc := range []struct {
		name string
		end  func(*stream)
	}{
		{"acked", func(s *stream) { s.eng.Run(time.Hour) }},
		{"given up", func(s *stream) {
			s.drop = func(int) bool { return true }
			s.eng.Run(time.Hour)
		}},
		{"reset", func(s *stream) {
			s.eng.Run(3 * time.Millisecond)
			if s.a.PendingAcks() == 0 {
				t.Fatal("nothing in flight at the reset")
			}
			s.a.Reset()
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := newStream(testConfig(), nil)
			gone := make(chan struct{})
			func() {
				msg := chunkTo(make([]byte, 40<<10), 2)
				runtime.SetFinalizer(msg, func(*wire.Message) { close(gone) })
				s.a.Send(msg)
			}()
			tc.end(s)
			if s.a.PendingAcks() != 0 || s.a.free == nil {
				t.Fatalf("%d acks pending, free list %v", s.a.PendingAcks(), s.a.free)
			}
			for p := s.a.free; p != nil; p = p.next {
				if p.msg != nil || p.job != nil || len(p.remaining) != 0 || p.attempts != 0 {
					t.Fatalf("idle record still holds %+v", *p)
				}
			}
			s.b.Reset() // the receiver's tombstones are not under test
			passDeadEvents(s.eng)
			if !collected(gone) {
				t.Fatal("the message is still reachable from an idle link")
			}
			runtime.KeepAlive(s)
		})
	}
}

// frameReading is what a frame read on the air.
type frameReading struct {
	tid, origID, ackOf uint64
	index              int
}

func readFrame(m *wire.Message) frameReading {
	r := frameReading{tid: m.TransmitID}
	if f := m.Fragment; f != nil {
		r.origID, r.index = f.OrigID, f.Index
	}
	if a := m.Ack; a != nil {
		r.ackOf = a.MsgID
	}
	return r
}

// TestBatchedFramesNeverChange: a fragment job's frames are one slab and
// acks come in chunks of up to 64, but no batch is ever reused, so a
// frame kept past its job, two later jobs and a Reset still reads what
// it read when it was sent (frozen messages never change).
func TestBatchedFramesNeverChange(t *testing.T) {
	s := newStream(testConfig(), nil)
	type kept struct {
		msg *wire.Message
		was frameReading
	}
	var frags, acks []kept
	keeping := true
	for _, l := range []*Link{s.a, s.b} {
		raw := l.raw
		l.SetRawSender(func(m *wire.Message) bool {
			if keeping && m.Type == wire.TypeFragment {
				frags = append(frags, kept{m, readFrame(m)})
			}
			if keeping && m.Type == wire.TypeAck {
				acks = append(acks, kept{m, readFrame(m)})
			}
			return raw(m)
		})
	}
	chunk := make([]byte, 256<<10)
	s.send(chunkTo(chunk, 2)) // a's fragments, b's acks
	s.b.Send(chunkTo(chunk, 1))
	s.eng.Run(s.eng.Now() + time.Hour) // b's fragments, a's acks
	keeping = false
	if n := len(acks); n != len(frags) || n <= 2*64 || s.a.Stats().Retransmissions+s.b.Stats().Retransmissions != 0 {
		t.Fatalf("kept %d fragments and %d acks (%d, %d retransmissions): want every fragment acked once, over 64 acks from each link",
			len(frags), len(acks), s.a.Stats().Retransmissions, s.b.Stats().Retransmissions)
	}

	s.send(chunkTo(chunk, 2))
	s.b.Send(chunkTo(chunk, 1))
	s.eng.Run(s.eng.Now() + 5*time.Millisecond)
	if s.b.activeJob == nil {
		t.Fatal("the second job finished before the reset")
	}
	s.a.Reset()
	s.b.Reset()
	s.eng.Run(s.eng.Now() + time.Hour)

	for _, k := range append(frags, acks...) {
		if got := readFrame(k.msg); got != k.was {
			t.Fatalf("a kept frame changed: sent as %+v, now %+v", k.was, got)
		}
	}
}

// BenchmarkAckedStream is one acknowledged 256 KB message through both
// links: what the per-frame bookkeeping costs, sender and receiver.
func BenchmarkAckedStream(b *testing.B) {
	as := newAckedStream()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		as.next()
	}
	b.ReportMetric(float64(as.fragments), "fragments/op")
}
