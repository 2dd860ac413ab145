package link

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
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
		s.a.HandleIncoming(f.msg)
		return
	}
	if got := s.b.HandleIncoming(f.msg); got != nil && s.up != nil {
		s.up(got)
	}
}

// send hands msg to a and runs the engine until nothing is left to do.
func (s *stream) send(msg *wire.Message) {
	s.a.Send(msg)
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

// TestFrameLogPinned holds the link's behaviour on the air — which frame
// leaves when, under which TransmitID, toward whom — to logs captured
// before its per-frame records were pooled.
func TestFrameLogPinned(t *testing.T) {
	for _, ps := range pinnedStreams {
		t.Run(ps.name, func(t *testing.T) {
			path := filepath.Join("testdata", "frames_"+ps.name+".golden")
			got := frameLog(ps.maxRetr, ps.run, nil)
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
