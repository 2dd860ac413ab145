package udptransport

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"sync"
	"testing"
	"time"

	"pds/internal/attr"
	"pds/internal/link"
	"pds/internal/sim"
	"pds/internal/wire"
)

// newPair binds two loopback transports wired at each other and
// returns them with a cleanup.
func newPair(t *testing.T, portA, portB int) (*Transport, *Transport) {
	t.Helper()
	a, err := New(LoopbackConfig(portA, []int{portB}))
	if err != nil {
		t.Skipf("cannot bind loopback UDP: %v", err)
	}
	b, err := New(LoopbackConfig(portB, []int{portA}))
	if err != nil {
		a.Close()
		t.Fatalf("bind second: %v", err)
	}
	t.Cleanup(func() {
		a.Close()
		b.Close()
	})
	return a, b
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

func TestSendReceive(t *testing.T) {
	a, b := newPair(t, 19801, 19802)
	var got collector
	b.SetReceiver(got.add)

	msg := &wire.Message{
		Type:       wire.TypeQuery,
		TransmitID: 9,
		From:       1,
		Query: &wire.Query{
			ID:   42,
			Kind: wire.KindMetadata,
			Sel:  attr.NewQuery(attr.Eq("a", attr.Int(1))),
		},
	}
	if !a.Send(msg) {
		t.Fatal("send failed")
	}
	msgs := got.wait(t, 1, 5*time.Second)
	if msgs[0].Query == nil || msgs[0].Query.ID != 42 {
		t.Fatalf("wrong message: %+v", msgs[0])
	}
	if a.Stats().DatagramsSent != 1 || b.Stats().DatagramsReceived != 1 {
		t.Fatalf("stats: %+v / %+v", a.Stats(), b.Stats())
	}
}

// TestVirtualFragmentMaterialization sends the fragments a link cuts, at the
// default size and at others a datagram can carry, through the socket
// and hands what arrives to a receiving link: it reassembles the message
// the sender fragmented. The transport is told nothing about fragment
// sizes.
func TestVirtualFragmentMaterialization(t *testing.T) {
	a, b := newPair(t, 19803, 19804)
	var got collector
	b.SetReceiver(got.add)

	sent := 0
	for _, fragBytes := range []int{600, 1400, a.MaxFragment()} {
		cfg := link.DefaultConfig(nil)
		cfg.FragmentBytes = fragBytes
		whole := chunkMessage()
		frames := linkFrames(whole, cfg)
		for i, frag := range frames {
			if !a.Send(frag) {
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

// TestMaxFragmentFitsDatagram: a fragment of MaxFragment bytes toward a
// full receiver list frames into no more than MaxDatagram bytes, so no
// receiver truncates it.
func TestMaxFragmentFitsDatagram(t *testing.T) {
	a, _ := newPair(t, 19811, 19812)
	cfg := link.DefaultConfig(nil)
	cfg.FragmentBytes = a.MaxFragment()
	whole := chunkMessage()
	for len(whole.Response.Receivers) < 16 {
		whole.Response.Receivers = append(whole.Response.Receivers, ^wire.NodeID(0))
	}
	for i, frag := range linkFrames(whole, cfg) {
		dg, err := wire.AppendChecked(nil, frag)
		if err != nil {
			t.Fatal(err)
		}
		if len(dg) > MaxDatagram {
			t.Fatalf("fragment %d frames into %d bytes, over MaxDatagram %d", i, len(dg), MaxDatagram)
		}
	}
}

func TestCloseStopsLoop(t *testing.T) {
	a, err := New(LoopbackConfig(19805, []int{19806}))
	if err != nil {
		t.Skipf("cannot bind: %v", err)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if err := a.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
}

func TestBadConfig(t *testing.T) {
	if _, err := New(Config{ListenAddr: "127.0.0.1:19807"}); err == nil {
		t.Fatal("config without destinations accepted")
	}
	if _, err := New(Config{ListenAddr: "not-an-address"}); err == nil {
		t.Fatal("bad listen address accepted")
	}
	if _, err := New(Config{ListenAddr: "127.0.0.1:19808", PeerAddrs: []string{"::bad::"}}); err == nil {
		t.Fatal("bad peer address accepted")
	}
}

func TestDecodeErrorCounted(t *testing.T) {
	a, b := newPair(t, 19809, 19810)
	b.SetReceiver(func(*wire.Message) {})
	conn := a.conn
	dst := a.dests[0]
	// Raw garbage fails the CRC framing check.
	if _, err := conn.WriteToUDP([]byte{0xde, 0xad, 0xbe, 0xef}, dst); err != nil {
		t.Fatal(err)
	}
	// A correctly framed datagram whose payload is not a valid message
	// passes the CRC but fails the codec.
	garbage := []byte{0xde, 0xad, 0xbe, 0xef}
	framed := append(binary.BigEndian.AppendUint32(nil, crc32.ChecksumIEEE(garbage)), garbage...)
	if _, err := conn.WriteToUDP(framed, dst); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		s := b.Stats()
		if s.ChecksumErrors > 0 && s.DecodeErrors > 0 {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("errors not counted: %+v", b.Stats())
}

// TestReceivedPayloadOutlivesLaterDatagrams: a data response decoded
// from a datagram holds the buffer it was read into, and the reader takes
// another for what follows, so later datagrams never write over the
// payload.
func TestReceivedPayloadOutlivesLaterDatagrams(t *testing.T) {
	a, b := newPair(t, 19815, 19816)
	var got collector
	b.SetReceiver(got.add)
	const n, size = 6, 1000
	fill := func(id uint64) byte { return byte(0x11 * id) }
	for id := uint64(1); id <= n; id++ {
		msg := &wire.Message{
			Type: wire.TypeResponse, TransmitID: id, From: 1,
			Response: &wire.Response{
				ID: id, Kind: wire.KindData, Sender: 1,
				Blobs: []wire.Blob{{Desc: attr.NewDescriptor().Set("n", attr.Int(int64(id))), Payload: bytes.Repeat([]byte{fill(id)}, size)}},
			},
		}
		if !a.Send(msg) {
			t.Fatalf("send %d failed", id)
		}
	}
	for _, msg := range got.wait(t, n, 5*time.Second) {
		id := msg.Response.ID
		if !bytes.Equal(msg.Response.Blobs[0].Payload, bytes.Repeat([]byte{fill(id)}, size)) {
			t.Errorf("the payload of response %d was written over by a datagram read after it", id)
		}
	}
}
