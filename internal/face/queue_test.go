package face

import (
	"bufio"
	"bytes"
	"io"
	"net"
	"slices"
	"sync"
	"testing"
	"time"

	"pds/internal/wire"
)

// stubMesh is a dial-only mesh for hand-made faces: no sockets, so
// nothing runs but what the test calls.
func stubMesh(t *testing.T, outboxFrames int) *Mesh {
	t.Helper()
	cfg := testConfig(1)
	cfg.ListenAddr = ""
	cfg.OutboxFrames = outboxFrames
	m, err := NewMesh(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })
	return m
}

// joined returns the frame's bytes as they go on the stream.
func (fr frame) joined() []byte {
	return slices.Concat(append([][]byte{fr.head}, fr.rest...)...)
}

// stubFace is an up face to peer that no goroutine serves.
func stubFace(m *Mesh, addr string, peer wire.NodeID) *Face {
	return &Face{m: m, addr: addr, wake: make(chan struct{}, 1), stopCh: make(chan struct{}), up: true, peer: peer}
}

func testResponse(id uint64, receivers ...wire.NodeID) *wire.Message {
	return &wire.Message{
		Type: wire.TypeResponse, TransmitID: wire.NewTransmitID(1, id), From: 1,
		Response: &wire.Response{ID: id, Kind: wire.KindMetadata, Sender: 1, Receivers: receivers},
	}
}

func testAck(acked uint64, from wire.NodeID) *wire.Message {
	return &wire.Message{
		Type: wire.TypeAck, TransmitID: wire.NewTransmitID(from, 1), From: from, NoAck: true,
		Ack: &wire.Ack{MsgID: acked, From: from},
	}
}

// tcpPair is one loopback TCP connection, both ends.
func tcpPair(t *testing.T) (near, far net.Conn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("cannot listen on loopback TCP: %v", err)
	}
	defer ln.Close()
	near, err = net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	far, err = ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { near.Close(); far.Close() })
	return near, far
}

// readResponseIDs reads frames off conn until it fails and returns the
// response ids of the message frames, 0 for a keepalive.
func readResponseIDs(conn net.Conn) []uint64 {
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	br := bufio.NewReader(conn)
	var ids []uint64
	var buf []byte
	for {
		typ, body, nbuf, err := readFrame(br, buf, 1<<20)
		buf = nbuf
		if err != nil {
			return ids
		}
		if typ != frameMsg {
			ids = append(ids, 0)
			continue
		}
		msg, err := wire.DecodeChecked(body)
		if err != nil {
			return ids
		}
		ids = append(ids, msg.Response.ID)
	}
}

// TestAckGoesToItsTransmitter: an ack is queued on the face of the peer
// that minted the acknowledged TransmitID, on faces whose peer announced
// no id, and nowhere else.
func TestAckGoesToItsTransmitter(t *testing.T) {
	m := stubMesh(t, 16)
	to2, to3, anon := stubFace(m, "10.0.0.1:1", 2), stubFace(m, "10.0.0.2:1", 3), stubFace(m, "10.0.0.3:1", 0)
	acc5, accAnon := stubFace(m, "x", 5), stubFace(m, "y", 0)
	m.dialed = []*Face{to2, to3, anon}
	m.accepted[acc5] = struct{}{}
	m.accepted[accAnon] = struct{}{}

	ack := testAck(wire.NewTransmitID(3, 77), 1)
	if !m.Send(ack) {
		t.Fatal("Send failed")
	}
	for _, tc := range []struct {
		name string
		f    *Face
		want int
	}{{"to 2", to2, 0}, {"to 3", to3, 1}, {"anonymous", anon, 1}, {"accepted 5", acc5, 0}, {"accepted anonymous", accAnon, 1}} {
		if len(tc.f.listed) != tc.want || len(tc.f.overhear) != 0 {
			t.Errorf("face %s holds %d listed and %d overhear copies of the ack, want %d and 0",
				tc.name, len(tc.f.listed), len(tc.f.overhear), tc.want)
		}
	}

	// With no face to 3 up — and nobody anonymous — the ack goes nowhere,
	// as a frame does when every peer is down.
	to3.up = false
	m.dialed = []*Face{to2, to3}
	delete(m.accepted, accAnon)
	sent := m.Stats().MsgsSent
	if !m.Send(ack) {
		t.Fatal("Send of an ack nobody can use reported a drop")
	}
	if n := len(to2.listed) + len(to2.overhear) + len(to3.listed) + len(acc5.listed) + len(acc5.overhear); n != 1 {
		t.Fatalf("%d copies queued after an ack with no face to its transmitter, want the 1 from before", n)
	}
	if st := m.Stats(); st.MsgsSent != sent || st.OutboxDrops != 0 {
		t.Fatalf("stats moved for an ack that went nowhere: %+v", st)
	}
}

// TestListedAndOverhearQueues: the copy for a listed receiver and the
// copies other peers overhear wait in different queues, and only a
// refused listed copy makes Send report a drop.
func TestListedAndOverhearQueues(t *testing.T) {
	const depth = 4
	m := stubMesh(t, depth)
	to2, to3, to5 := stubFace(m, "10.0.0.1:1", 2), stubFace(m, "10.0.0.2:1", 3), stubFace(m, "x", 5)
	m.dialed = []*Face{to2, to3}
	m.accepted[to5] = struct{}{}

	if !m.Send(testResponse(1, 2)) {
		t.Fatal("Send failed")
	}
	if len(to2.listed) != 1 || len(to2.overhear) != 0 {
		t.Fatalf("face to the listed receiver: %d listed, %d overhear, want 1 and 0", len(to2.listed), len(to2.overhear))
	}
	for _, f := range []*Face{to3, to5} {
		if len(f.listed) != 0 || len(f.overhear) != 1 {
			t.Fatalf("face to unlisted peer %d: %d listed, %d overhear, want 0 and 1", f.peer, len(f.listed), len(f.overhear))
		}
	}
	// A frame with no receiver list is everybody's.
	if !m.Send(testQuery(2)) {
		t.Fatal("Send failed")
	}
	if len(to2.listed) != 2 || len(to3.listed) != 1 || len(to5.listed) != 1 {
		t.Fatalf("unlisted broadcast: %d/%d/%d listed, want 2/1/1", len(to2.listed), len(to3.listed), len(to5.listed))
	}

	// Fill the overhear queues of 3 and 5: further copies for them are
	// dropped and counted, Send stays true, 2's copy is queued.
	for i := uint64(3); len(to3.overhear) < depth; i++ {
		if !m.Send(testResponse(i, 9)) {
			t.Fatal("Send of an overhear-only frame reported a drop")
		}
	}
	to2.take(nil)
	before := m.Stats()
	if !m.Send(testResponse(50, 2)) {
		t.Fatal("Send reported a drop though the listed copy was queued")
	}
	if st := m.Stats(); st.OverhearDrops != before.OverhearDrops+2 || st.OutboxDrops != before.OutboxDrops+2 {
		t.Fatalf("two overhear copies refused, stats %+v after %+v", st, before)
	}
	if len(to2.listed) != 1 {
		t.Fatalf("listed copy not queued: %d", len(to2.listed))
	}

	// Fill 2's listed queue: now Send is false, and it is not an
	// overhear drop.
	for len(to2.listed) < depth {
		if !m.Send(testResponse(60, 2)) {
			t.Fatal("Send failed with room in the listed queue")
		}
	}
	before = m.Stats()
	if m.Send(testResponse(70, 2)) {
		t.Fatal("Send reported success though the listed receiver's copy was refused")
	}
	st := m.Stats()
	if got := st.OutboxDrops - before.OutboxDrops; got != 3 {
		t.Fatalf("OutboxDrops moved by %d, want 3 (one listed, two overhear)", got)
	}
	if got := st.OverhearDrops - before.OverhearDrops; got != 2 {
		t.Fatalf("OverhearDrops moved by %d, want 2", got)
	}
}

// TestWriterGathers: one writer step over frames queued in both classes
// is one write — listed frames in order, then overhear copies in order.
func TestWriterGathers(t *testing.T) {
	m := stubMesh(t, 64)
	f := stubFace(m, "10.0.0.1:1", 2)
	m.dialed = []*Face{f}
	near, far := tcpPair(t)

	// Interleave the classes on the way in: 1 3 5 7 9 listed, 2 4 6 8 overhear.
	for i := uint64(1); i <= 9; i++ {
		receiver := wire.NodeID(2)
		if i%2 == 0 {
			receiver = 9
		}
		if !m.Send(testResponse(i, receiver)) {
			t.Fatalf("send %d failed", i)
		}
	}
	batch := f.take(nil)
	if !f.writeBatch(near, batch) {
		t.Fatal("writeBatch failed")
	}
	if st := m.Stats(); st.Writes != 1 || st.FramesSent != 9 {
		t.Fatalf("one step over 9 frames: %d writes, %d frames sent", st.Writes, st.FramesSent)
	}
	near.Close()
	got := readResponseIDs(far)
	if want := []uint64{1, 3, 5, 7, 9, 2, 4, 6, 8}; !slices.Equal(got, want) {
		t.Fatalf("frames arrived as %v, want %v", got, want)
	}
}

// TestBurstArrivesInClassOrder: 200 frames sent back to back over a real
// face all arrive, each class in the order it was sent.
func TestBurstArrivesInClassOrder(t *testing.T) {
	a := newTestMesh(t, 1)
	b := newTestMesh(t, 2)
	var got collector
	a.SetReceiver(got.add)
	b.SetReceiver(func(*wire.Message) {})
	b.AddPeer(a.ListenAddr().String())
	if !b.WaitReady(1, 5*time.Second) {
		t.Fatal("face never came up")
	}
	const n = 200
	for i := uint64(1); i <= n; i++ {
		receiver := wire.NodeID(1)
		if i%2 == 0 {
			receiver = 9
		}
		if !b.Send(testResponse(i, receiver)) {
			t.Fatalf("send %d failed", i)
		}
	}
	var lastListed, lastOverhear uint64
	for _, msg := range got.wait(t, n, 10*time.Second) {
		last := &lastListed
		if msg.Response.ID%2 == 0 {
			last = &lastOverhear
		}
		if msg.Response.ID <= *last {
			t.Fatalf("frame %d arrived after frame %d of its class", msg.Response.ID, *last)
		}
		*last = msg.Response.ID
	}
	if st := b.Stats(); st.OutboxDrops != 0 || st.Writes == 0 || st.Writes > st.FramesSent {
		t.Fatalf("sender stats: %+v", st)
	}
}

// countingChaos counts ConnFault draws and resets on draw number resetAt
// (0-based; negative: never).
type countingChaos struct {
	mu      sync.Mutex
	draws   int
	resetAt int
}

func (c *countingChaos) DialFault(string) bool { return false }
func (c *countingChaos) ConnFault(string) (reset, stall bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.draws++
	return c.draws-1 == c.resetAt, false
}

// TestChaosDrawsOncePerMessageFrame: the writer consults Chaos once for
// every message frame it is offered, in one batch or several, never for a
// keepalive; a reset on a frame lets what was queued ahead of it through
// and nothing after.
func TestChaosDrawsOncePerMessageFrame(t *testing.T) {
	m := stubMesh(t, 64)
	chaos := &countingChaos{resetAt: -1}
	m.cfg.Chaos = chaos
	f := stubFace(m, "10.0.0.1:1", 2)
	m.dialed = []*Face{f}
	near, far := tcpPair(t)

	// One batch: three listed frames, a pong, two overhear copies.
	for i := uint64(1); i <= 3; i++ {
		m.Send(testResponse(i, 2))
	}
	f.enqueue(pongFrame, true)
	m.Send(testResponse(4, 9))
	m.Send(testResponse(5, 9))
	if !f.writeBatch(near, f.take(nil)) {
		t.Fatal("writeBatch failed")
	}
	if chaos.draws != 5 {
		t.Fatalf("%d draws for a batch of 5 message frames and a pong, want 5", chaos.draws)
	}
	// Frame by frame, and a ping on its own.
	for i := uint64(6); i <= 8; i++ {
		m.Send(testResponse(i, 2))
		if !f.writeBatch(near, f.take(nil)) {
			t.Fatal("writeBatch failed")
		}
	}
	if !f.writeBatch(near, []frame{pingFrame}) {
		t.Fatal("writeBatch failed")
	}
	if chaos.draws != 8 {
		t.Fatalf("%d draws after 8 message frames, a pong and a ping, want 8", chaos.draws)
	}

	// A reset on the third frame of a batch of five: two get through.
	chaos.resetAt = chaos.draws + 2
	for i := uint64(11); i <= 15; i++ {
		m.Send(testResponse(i, 2))
	}
	resets := m.Stats().ConnResets
	if f.writeBatch(near, f.take(nil)) {
		t.Fatal("writeBatch survived a reset")
	}
	if chaos.draws != 11 {
		t.Fatalf("%d draws, want 11: the frames behind a reset are not offered", chaos.draws)
	}
	if st := m.Stats(); st.ConnResets != resets+1 || f.downReason != reasonReset {
		t.Fatalf("reset not recorded: %d resets, reason %q", st.ConnResets-resets, f.downReason)
	}
	near.Close()
	got := readResponseIDs(far)
	if want := []uint64{1, 2, 3, 0, 4, 5, 6, 7, 8, 0, 11, 12}; !slices.Equal(got, want) {
		t.Fatalf("frames arrived as %v, want %v", got, want)
	}
}

// TestReadFrameAllocatesNothing: a warm reader takes a frame off its
// bufio.Reader without a heap object, the length prefix included.
func TestReadFrameAllocatesNothing(t *testing.T) {
	frame, err := encodeMsgFrame(testQuery(1))
	if err != nil {
		t.Fatal(err)
	}
	const runs = 200
	br := bufio.NewReader(bytes.NewReader(bytes.Repeat(frame.joined(), runs+2)))
	_, _, buf, err := readFrame(br, nil, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(runs, func() {
		var typ byte
		if typ, _, buf, err = readFrame(br, buf, 1<<20); err != nil || typ != frameMsg {
			t.Fatalf("readFrame: type %d, %v", typ, err)
		}
	}); allocs != 0 {
		t.Fatalf("readFrame allocates %v objects a frame on a warm reader, want 0", allocs)
	}
}

// TestSilentPeerTornDownOnTheHeartbeatClock: the idle deadline is
// re-armed at most every half heartbeat, so a peer that goes silent is
// torn down no earlier than HeartbeatMiss intervals and no later than
// HeartbeatMiss+1 after its last frame, as a heartbeat timeout.
func TestSilentPeerTornDownOnTheHeartbeatClock(t *testing.T) {
	const every = 80 * time.Millisecond
	cfg := testConfig(1)
	cfg.HeartbeatEvery = every
	cfg.HeartbeatMiss = 3
	m, err := NewMesh(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	m.SetReceiver(func(*wire.Message) {})

	conn, err := net.Dial("tcp", m.ListenAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write(helloFrame(7)); err != nil {
		t.Fatal(err)
	}
	if !m.WaitReady(1, 5*time.Second) {
		t.Fatal("accepted face never came up")
	}
	// Two more frames inside the first half heartbeat — neither re-arms
	// the deadline — then silence. The mesh's own hello and pings are
	// read and ignored until it hangs up.
	var last time.Time
	for i := 0; i < 2; i++ {
		time.Sleep(every / 8)
		last = time.Now()
		if _, err := conn.Write(pongFrame.head); err != nil {
			t.Fatal(err)
		}
	}
	conn.SetReadDeadline(time.Now().Add(10 * every))
	if _, err := io.Copy(io.Discard, conn); err != nil {
		t.Fatalf("mesh never hung up: %v", err)
	}
	silent := time.Since(last)
	const slack = 60 * time.Millisecond // scheduling, on a shared box under -race
	if lo, hi := time.Duration(cfg.HeartbeatMiss)*every, time.Duration(cfg.HeartbeatMiss+1)*every+slack; silent < lo || silent > hi {
		t.Fatalf("silent peer torn down after %v, want within [%v, %v]", silent, lo, hi)
	}
	deadline := time.Now().Add(5 * time.Second)
	for m.Stats().HeartbeatTimeouts != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("teardown not counted as a heartbeat timeout: %+v", m.Stats())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// BenchmarkFaceBurst is the ARQ window's shape over one real face: a
// burst of 8 fragment-sized frames to a listed receiver, answered by 8
// acks. It reports the cost of a frame and how many frames one write
// carries.
func BenchmarkFaceBurst(b *testing.B) {
	const burst = 8
	newMesh := func(self wire.NodeID) *Mesh {
		m, err := NewMesh(testConfig(self))
		if err != nil {
			b.Skipf("cannot listen on loopback TCP: %v", err)
		}
		b.Cleanup(func() { m.Close() })
		return m
	}
	tx, rx := newMesh(1), newMesh(2)
	acks := make(chan struct{}, burst) // one slot per frame of the burst in flight
	tx.SetReceiver(func(m *wire.Message) {
		if m.Type == wire.TypeAck {
			acks <- struct{}{}
		}
	})
	rx.SetReceiver(func(m *wire.Message) { rx.Send(testAck(m.TransmitID, 2)) })
	tx.AddPeer(rx.ListenAddr().String())
	if !tx.WaitReady(1, 5*time.Second) || !rx.WaitReady(1, 5*time.Second) {
		b.Fatal("face never came up")
	}
	frames := make([]*wire.Message, burst)
	for i := range frames {
		frames[i] = testResponse(uint64(i+1), 2)
		frames[i].Response.Kind = wire.KindChunk
		frames[i].Response.Blobs = []wire.Blob{{Payload: make([]byte, 1400)}}
	}
	before := [2]Stats{tx.Stats(), rx.Stats()}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, f := range frames {
			if !tx.Send(f) {
				b.Fatal("send failed")
			}
		}
		for range frames {
			<-acks
		}
	}
	b.StopTimer()
	after := [2]Stats{tx.Stats(), rx.Stats()}
	var sent, writes uint64
	for i := range after {
		sent += after[i].FramesSent - before[i].FramesSent
		writes += after[i].Writes - before[i].Writes
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(sent), "ns/frame")
	b.ReportMetric(float64(writes)/float64(sent), "writes/frame")
}
