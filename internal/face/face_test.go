package face

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"pds/internal/attr"
	"pds/internal/link"
	"pds/internal/sim"
	"pds/internal/wire"
)

// testConfig returns fast-cycling settings for unit tests: listener on
// an ephemeral loopback port, tight timeouts so failures surface in
// milliseconds.
func testConfig(self wire.NodeID) Config {
	cfg := DefaultConfig("127.0.0.1:0")
	cfg.Self = self
	cfg.DialTimeout = 500 * time.Millisecond
	cfg.WriteTimeout = 500 * time.Millisecond
	cfg.HelloTimeout = 500 * time.Millisecond
	cfg.HeartbeatEvery = 100 * time.Millisecond
	cfg.HeartbeatMiss = 3
	cfg.RetryBase = 10 * time.Millisecond
	cfg.RetryMax = 50 * time.Millisecond
	cfg.BreakerAfter = 3
	cfg.BreakerCooldown = 100 * time.Millisecond
	cfg.Seed = 1
	return cfg
}

func newTestMesh(t *testing.T, self wire.NodeID) *Mesh {
	t.Helper()
	m, err := NewMesh(testConfig(self))
	if err != nil {
		t.Fatalf("NewMesh: %v", err)
	}
	t.Cleanup(func() { m.Close() })
	return m
}

// collector gathers received messages thread-safely.
type collector struct {
	mu   sync.Mutex
	msgs []*wire.Message
}

func (c *collector) add(m *wire.Message) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.msgs = append(c.msgs, m)
}

func (c *collector) count() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.msgs)
}

func (c *collector) wait(t *testing.T, n int, d time.Duration) []*wire.Message {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		c.mu.Lock()
		if len(c.msgs) >= n {
			out := append([]*wire.Message(nil), c.msgs...)
			c.mu.Unlock()
			return out
		}
		c.mu.Unlock()
		time.Sleep(5 * time.Millisecond)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	t.Fatalf("got %d messages, want %d", len(c.msgs), n)
	return nil
}

func testQuery(id uint64) *wire.Message {
	return &wire.Message{
		Type:       wire.TypeQuery,
		TransmitID: id,
		From:       1,
		Query: &wire.Query{
			ID:   id,
			Kind: wire.KindMetadata,
			Sel:  attr.NewQuery(attr.Eq("a", attr.Int(1))),
		},
	}
}

func TestFrameRoundTrip(t *testing.T) {
	msg := testQuery(42)
	payload, err := wire.Encode(msg)
	if err != nil {
		t.Fatal(err)
	}
	fr, err := encodeMsgFrame(msg)
	if err != nil {
		t.Fatal(err)
	}
	frame := fr.joined()
	// The bytes on the wire: length, type, CRC of the payload, payload —
	// built here the long way, in one exactly sized buffer by the mesh.
	want := binary.BigEndian.AppendUint32(nil, uint32(1+wire.ChecksumSize+len(payload)))
	want = append(want, frameMsg)
	want = binary.BigEndian.AppendUint32(want, crc32.ChecksumIEEE(payload))
	want = append(want, payload...)
	if !bytes.Equal(frame, want) {
		t.Fatalf("frame bytes differ:\n got %x\nwant %x", frame, want)
	}
	if fr.rest != nil || cap(fr.head) != len(fr.head) {
		t.Fatalf("frame of a message with no payload: head cap %d for %d bytes and %d more segments; sized wrong or grown",
			cap(fr.head), len(fr.head), len(fr.rest))
	}
	if _, err := encodeMsgFrame(&wire.Message{Type: 99}); err == nil {
		t.Fatal("unencodable message framed")
	}
	typ, body, _, err := readFrame(bufio.NewReader(bytes.NewReader(frame)), nil, 1<<20)
	if err != nil {
		t.Fatalf("readFrame: %v", err)
	}
	if typ != frameMsg {
		t.Fatalf("type = %d, want %d", typ, frameMsg)
	}
	got, err := wire.DecodeChecked(body)
	if err != nil {
		t.Fatalf("DecodeChecked: %v", err)
	}
	if got.Query == nil || got.Query.ID != 42 {
		t.Fatalf("decoded wrong message: %+v", got)
	}

	// Bit damage must fail the CRC, not decode garbage.
	frame[len(frame)-1] ^= 0xff
	_, body, _, err = readFrame(bufio.NewReader(bytes.NewReader(frame)), nil, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := wire.DecodeChecked(body); err == nil {
		t.Fatal("damaged body decoded")
	}

	// Oversized length prefix must be rejected before allocation.
	huge := []byte{0xff, 0xff, 0xff, 0xff, frameMsg}
	if _, _, _, err := readFrame(bufio.NewReader(bytes.NewReader(huge)), nil, 1<<20); err == nil {
		t.Fatal("oversized frame accepted")
	}
}

func TestMeshSendReceive(t *testing.T) {
	a := newTestMesh(t, 1)
	b := newTestMesh(t, 2)
	var gotA, gotB collector
	a.SetReceiver(gotA.add)
	b.SetReceiver(gotB.add)

	if !b.AddPeer(a.ListenAddr().String()) {
		t.Fatal("AddPeer refused")
	}
	if !b.WaitReady(1, 5*time.Second) {
		t.Fatal("face never came up")
	}

	// Dialed direction.
	if !b.Send(testQuery(7)) {
		t.Fatal("b.Send failed")
	}
	msgs := gotA.wait(t, 1, 5*time.Second)
	if msgs[0].Query.ID != 7 {
		t.Fatalf("wrong message: %+v", msgs[0])
	}

	// Accepted direction: a's accepted face reaches back to b.
	if !a.WaitReady(1, 5*time.Second) {
		t.Fatal("accepted face not counted")
	}
	if !a.Send(testQuery(8)) {
		t.Fatal("a.Send failed")
	}
	if gotB.wait(t, 1, 5*time.Second)[0].Query.ID != 8 {
		t.Fatal("wrong message on accepted path")
	}

	as, bs := a.Stats(), b.Stats()
	if bs.MsgsSent != 1 || as.MsgsReceived != 1 {
		t.Fatalf("stats: a=%+v b=%+v", as, bs)
	}
	if as.FacesUp != 1 || bs.FacesUp != 1 {
		t.Fatalf("gauges: a=%d b=%d", as.FacesUp, bs.FacesUp)
	}
}

func TestPerPeerSendDedup(t *testing.T) {
	// Both meshes dial each other: each ends up with a dialed AND an
	// accepted face to the same peer. A message must still arrive once.
	a := newTestMesh(t, 1)
	b := newTestMesh(t, 2)
	var gotA collector
	a.SetReceiver(gotA.add)
	b.SetReceiver(func(*wire.Message) {})

	a.AddPeer(b.ListenAddr().String())
	b.AddPeer(a.ListenAddr().String())
	if !a.WaitReady(2, 5*time.Second) || !b.WaitReady(2, 5*time.Second) {
		t.Fatal("faces never came up")
	}

	if !b.Send(testQuery(9)) {
		t.Fatal("send failed")
	}
	gotA.wait(t, 1, 5*time.Second)
	// Allow any duplicate to arrive, then assert there was none.
	time.Sleep(200 * time.Millisecond)
	if n := gotA.count(); n != 1 {
		t.Fatalf("message delivered %d times, want 1", n)
	}
}

func TestSupervisorReconnects(t *testing.T) {
	a := newTestMesh(t, 1)
	addr := a.ListenAddr().String()
	b := newTestMesh(t, 2)
	b.SetReceiver(func(*wire.Message) {})
	b.AddPeer(addr)
	if !b.WaitReady(1, 5*time.Second) {
		t.Fatal("initial face never came up")
	}

	// Kill the remote side; the supervisor must notice and redial until
	// a new mesh appears on the same address.
	a.Close()
	deadline := time.Now().Add(5 * time.Second)
	for b.UpCount() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("face still up after remote close")
		}
		time.Sleep(10 * time.Millisecond)
	}

	cfg := testConfig(3)
	cfg.ListenAddr = addr
	var a2 *Mesh
	var err error
	for i := 0; i < 50; i++ { // the OS may briefly hold the port
		if a2, err = NewMesh(cfg); err == nil {
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	if err != nil {
		t.Fatalf("rebind %s: %v", addr, err)
	}
	defer a2.Close()
	var got collector
	a2.SetReceiver(got.add)

	if !b.WaitReady(1, 10*time.Second) {
		t.Fatal("supervisor never reconnected")
	}
	if !b.Send(testQuery(11)) {
		t.Fatal("send after reconnect failed")
	}
	got.wait(t, 1, 5*time.Second)
	if b.Stats().Dials < 2 {
		t.Fatalf("expected redials, stats: %+v", b.Stats())
	}
}

// resetChaos resets every message write, so connections come up (hello
// is not a message frame) but die on first use.
type resetChaos struct{}

func (resetChaos) DialFault(string) bool                { return false }
func (resetChaos) ConnFault(string) (reset, stall bool) { return true, false }

func TestBreakerReportsPeerDown(t *testing.T) {
	a := newTestMesh(t, 1)
	a.SetReceiver(func(*wire.Message) {})

	cfg := testConfig(2)
	cfg.ListenAddr = "" // dial-only
	cfg.Chaos = resetChaos{}
	// Long heartbeat so short-lived connections never clear the streak.
	cfg.HeartbeatEvery = time.Minute
	b, err := NewMesh(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	var downMu sync.Mutex
	var downPeers []wire.NodeID
	b.OnPeerDown(func(id wire.NodeID) {
		downMu.Lock()
		downPeers = append(downPeers, id)
		downMu.Unlock()
	})
	b.AddPeer(a.ListenAddr().String())

	// Keep sending; every write is reset, every connection counts as a
	// consecutive failure, and the breaker must trip and name peer 1.
	deadline := time.Now().Add(10 * time.Second)
	for {
		b.WaitReady(1, time.Second)
		b.Send(testQuery(1))
		downMu.Lock()
		n := len(downPeers)
		downMu.Unlock()
		if n > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("breaker never tripped: %+v", b.Stats())
		}
		time.Sleep(10 * time.Millisecond)
	}
	downMu.Lock()
	peer := downPeers[0]
	downMu.Unlock()
	if peer != 1 {
		t.Fatalf("peer down = %d, want 1", peer)
	}
	st := b.Stats()
	if st.BreakerTrips == 0 || st.ConnResets == 0 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestDialFailureBackoffAndBreaker(t *testing.T) {
	// Reserve an address with nothing listening on it.
	dead, err := NewMesh(testConfig(9))
	if err != nil {
		t.Fatal(err)
	}
	addr := dead.ListenAddr().String()
	dead.Close()

	b := newTestMesh(t, 2)
	b.AddPeer(addr)
	deadline := time.Now().Add(10 * time.Second)
	for b.Stats().BreakerTrips == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("breaker never tripped on dial failures: %+v", b.Stats())
		}
		time.Sleep(10 * time.Millisecond)
	}
	st := b.Stats()
	if st.DialFailures < uint64(b.cfg.BreakerAfter) {
		t.Fatalf("stats: %+v", st)
	}
}

func TestSelfConnectionStops(t *testing.T) {
	m := newTestMesh(t, 5)
	m.SetReceiver(func(*wire.Message) {})
	if !m.AddPeer(m.ListenAddr().String()) {
		t.Fatal("AddPeer refused")
	}
	// The dialed face must recognize its own hello and stop for good:
	// no face settles into the up state.
	time.Sleep(500 * time.Millisecond)
	if up := m.UpCount(); up != 0 {
		t.Fatalf("self-connection stayed up (%d faces)", up)
	}
	if m.Stats().Dials == 0 {
		t.Fatal("face never dialed")
	}
}

// TestVirtualFragmentOverFaces sends the fragments a link cuts, at the default
// size and at others, through a face and hands what arrives to a
// receiving link: it reassembles the message the sender fragmented. The
// mesh is told nothing about fragment sizes.
func TestVirtualFragmentOverFaces(t *testing.T) {
	a := newTestMesh(t, 1)
	b := newTestMesh(t, 2)
	var got collector
	a.SetReceiver(got.add)
	b.SetReceiver(func(*wire.Message) {})
	b.AddPeer(a.ListenAddr().String())
	if !b.WaitReady(1, 5*time.Second) {
		t.Fatal("face never came up")
	}

	sent := 0
	for _, fragBytes := range []int{600, 1400, 2000} {
		cfg := link.DefaultConfig(nil)
		cfg.FragmentBytes = fragBytes
		whole := chunkMessage()
		frames := linkFrames(whole, cfg)
		for i, frag := range frames {
			if !b.Send(frag) {
				t.Fatalf("FragmentBytes %d: send fragment %d failed", fragBytes, i)
			}
		}
		msgs := got.wait(t, sent+len(frames), 5*time.Second)[sent:]
		sent += len(frames)

		rx := link.New(sim.NewEngine(1), 1, func(*wire.Message) bool { return true }, cfg)
		var up *wire.Message
		for _, m := range msgs {
			if m.Type != wire.TypeFragment || m.Fragment.Data == nil {
				t.Fatalf("FragmentBytes %d: expected materialized fragment, got %+v", fragBytes, m)
			}
			if r := rx.HandleIncoming(m); r != nil {
				up = r
			}
		}
		if up == nil || up.Response == nil || rx.Stats().ReasmErrors != 0 {
			t.Fatalf("FragmentBytes %d: %d fragments did not reassemble: %+v", fragBytes, len(msgs), rx.Stats())
		}
		if !bytes.Equal(up.Response.Blobs[0].Payload, whole.Response.Blobs[0].Payload) {
			t.Fatalf("FragmentBytes %d: reassembled payload differs", fragBytes)
		}
	}
}

func TestCloseIdempotentAndRemovePeer(t *testing.T) {
	a := newTestMesh(t, 1)
	b := newTestMesh(t, 2)
	b.SetReceiver(func(*wire.Message) {})
	a.SetReceiver(func(*wire.Message) {})
	addr := a.ListenAddr().String()
	b.AddPeer(addr)
	if b.AddPeer(addr) {
		t.Fatal("duplicate AddPeer accepted")
	}
	b.WaitReady(1, 5*time.Second)
	b.RemovePeer(addr)
	deadline := time.Now().Add(5 * time.Second)
	for b.Stats().PeersKnown != 0 || b.UpCount() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("peer not removed: %+v", b.Stats())
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	if b.AddPeer(addr) {
		t.Fatal("AddPeer on closed mesh accepted")
	}
}

// TestDialedFacesStayInAddressOrder pins what Send's fan-out order rests
// on: AddPeer and RemovePeer keep m.dialed sorted by dial address, and a
// configured address is refused a second time wherever it sits.
func TestDialedFacesStayInAddressOrder(t *testing.T) {
	cfg := testConfig(1)
	cfg.ListenAddr = ""
	m, err := NewMesh(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	addrs := func() (out []string) {
		m.mu.Lock()
		defer m.mu.Unlock()
		for _, f := range m.dialed {
			out = append(out, f.addr)
		}
		return out
	}
	// Nothing listens on these: the faces stay in dial backoff.
	for _, a := range []string{"127.0.0.1:3", "127.0.0.1:1", "127.0.0.1:4", "127.0.0.1:2"} {
		if !m.AddPeer(a) {
			t.Fatalf("AddPeer(%s) refused", a)
		}
	}
	if m.AddPeer("127.0.0.1:4") || m.AddPeer("127.0.0.1:1") {
		t.Fatal("duplicate address accepted")
	}
	m.RemovePeer("127.0.0.1:2")
	m.RemovePeer("127.0.0.1:9") // not configured: a no-op
	if got, want := addrs(), []string{"127.0.0.1:1", "127.0.0.1:3", "127.0.0.1:4"}; !slices.Equal(got, want) {
		t.Fatalf("dialed faces %v, want %v", got, want)
	}
	if !m.AddPeer("127.0.0.1:2") {
		t.Fatal("removed address refused")
	}
	if got := addrs(); !slices.IsSorted(got) || len(got) != 4 || m.Stats().PeersKnown != 4 {
		t.Fatalf("dialed faces %v", got)
	}
}

// TestSendFanOut checks the fan-out rule on hand-made up faces (no
// sockets, so nothing else runs): dialed faces in address order, then
// accepted ones, one frame per distinct peer with the dialed face
// winning, faces whose peer announced no id all served — and that a
// Send allocates the frame and nothing else.
func TestSendFanOut(t *testing.T) {
	m := stubMesh(t, 4096)
	up := func(addr string, peer wire.NodeID) *Face {
		f := stubFace(m, addr, peer)
		f.listed = make([]frame, 0, 4096)
		return f
	}
	a, b, c := up("10.0.0.1:1", 2), up("10.0.0.2:1", 3), up("10.0.0.3:1", 2) // c reaches a's peer again
	down := up("10.0.0.4:1", 4)
	down.up = false
	anon1, anon2 := up("10.0.0.5:1", 0), up("10.0.0.6:1", 0)
	accDup, accNew := up("x", 3), up("y", 5)
	m.dialed = []*Face{a, b, c, down, anon1, anon2}
	m.accepted[accDup] = struct{}{}
	m.accepted[accNew] = struct{}{}

	msg := testQuery(1)
	if !m.Send(msg) {
		t.Fatal("Send failed")
	}
	for _, tc := range []struct {
		name string
		f    *Face
		want int
	}{{"a", a, 1}, {"b", b, 1}, {"c (same peer as a)", c, 0}, {"down", down, 0},
		{"anon1", anon1, 1}, {"anon2", anon2, 1}, {"accepted, peer already dialed", accDup, 0}, {"accepted, new peer", accNew, 1}} {
		if got := len(tc.f.listed) + len(tc.f.overhear); got != tc.want {
			t.Errorf("face %s got %d frames, want %d", tc.name, got, tc.want)
		}
	}
	if allocs := testing.AllocsPerRun(500, func() { m.Send(msg) }); allocs != 1 {
		t.Errorf("Send costs %v allocations, want 1 (the frame)", allocs)
	}
	if st := m.Stats(); st.MsgsSent != 502 || st.OutboxDrops != 0 {
		t.Errorf("stats after 502 sends: %+v", st)
	}
}

// chunkResponse is a chunk response to node 1 carrying n bytes of fill.
func chunkResponse(id uint64, n int, fill byte) *wire.Message {
	m := testResponse(id, 1)
	m.Response.Kind = wire.KindChunk
	m.Response.Blobs = []wire.Blob{{Desc: attr.NewDescriptor().Set("c", attr.Int(int64(id))), Payload: bytes.Repeat([]byte{fill}, n)}}
	return m
}

// TestChunkSendCopiesNoPayload: a 128 KB chunk response is framed around
// its payload, not copied into the frame. Send allocates the frame's
// encoded bytes and its segment list — at most 2 objects, under 1 KB
// together — however many faces queue it, and the frame's bytes are the
// checksummed encoding.
func TestChunkSendCopiesNoPayload(t *testing.T) {
	m := stubMesh(t, 4096)
	to1, to3 := stubFace(m, "10.0.0.1:1", 1), stubFace(m, "10.0.0.2:1", 3)
	to1.listed, to3.overhear = make([]frame, 0, 4096), make([]frame, 0, 4096)
	m.dialed = []*Face{to1, to3}
	msg := chunkResponse(1, 128<<10, 7)
	if !m.Send(msg) {
		t.Fatal("Send failed")
	}
	fr := to1.listed[0]
	want, err := wire.AppendChecked(nil, msg)
	if err != nil {
		t.Fatal(err)
	}
	if got := fr.joined(); !bytes.Equal(got[lenSize+1:], want) || int(binary.BigEndian.Uint32(got)) != 1+len(want) {
		t.Fatal("the frame is not the length, the type and the checksummed encoding")
	}
	if payload := msg.Response.Blobs[0].Payload; len(fr.rest) == 0 || &fr.rest[0][0] != &payload[0] {
		t.Fatal("the frame does not carry the message's own payload bytes")
	}
	if allocs := testing.AllocsPerRun(200, func() { m.Send(msg) }); allocs > 2 {
		t.Errorf("a chunk Send costs %v allocations, want at most 2", allocs)
	}
	const sends = 200
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < sends; i++ {
		m.Send(msg)
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / sends; per >= 1<<10 {
		t.Errorf("a Send of a %d-byte chunk allocates %d bytes, want under 1 KB", len(msg.Response.Blobs[0].Payload), per)
	}
}

// TestReceivedPayloadOutlivesLaterFrames: a received chunk's payload
// aliases the buffer its frame was read into, and the reader leaves that
// buffer to the message — whether the frame fitted the reader's scratch
// or outgrew it — so the frames read after it never write over it.
func TestReceivedPayloadOutlivesLaterFrames(t *testing.T) {
	a := newTestMesh(t, 1)
	b := newTestMesh(t, 2)
	var got collector
	a.SetReceiver(got.add)
	b.SetReceiver(func(*wire.Message) {})
	b.AddPeer(a.ListenAddr().String())
	if !b.WaitReady(1, 5*time.Second) {
		t.Fatal("face never came up")
	}
	// A metadata response bigger than a chunk frame grows the reader's
	// scratch, so chunk 0xA1 is read into the scratch itself; 0xB2 then
	// finds none, and 0xC3 outgrows the query read before it.
	big := testResponse(100, 1)
	for i := 0; i < 200; i++ {
		big.Response.Entries = append(big.Response.Entries, attr.NewDescriptor().Set("name", attr.String(strings.Repeat("x", 64))))
	}
	const size = 4 << 10
	fills := []byte{0xa1, 0xb2, 0xc3, 0xd4}
	sends := []*wire.Message{big, chunkResponse(1, size, fills[0]), chunkResponse(2, size, fills[1]), testQuery(3),
		chunkResponse(4, size, fills[2]), testQuery(5), testQuery(6), chunkResponse(7, size, fills[3]), big}
	for i, msg := range sends {
		if !b.Send(msg) {
			t.Fatalf("send %d failed", i)
		}
	}
	var chunks []*wire.Message
	for _, msg := range got.wait(t, len(sends), 5*time.Second) {
		if wire.PayloadBytes(msg) > 0 {
			chunks = append(chunks, msg)
		}
	}
	if len(chunks) != len(fills) {
		t.Fatalf("%d chunks arrived, want %d", len(chunks), len(fills))
	}
	for i, msg := range chunks {
		if p := msg.Response.Blobs[0].Payload; !bytes.Equal(p, bytes.Repeat([]byte{fills[i]}, size)) {
			t.Errorf("chunk %#x was written over by a frame read after it", fills[i])
		}
	}
}
