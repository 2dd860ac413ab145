package pds

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"pds/internal/link"
	"pds/internal/wire"
)

// fragmentingPair makes nodes 1 and 2 on the given transports with a
// link layer that cuts fragments of fragBytes.
func fragmentingPair(t *testing.T, ta, tb Transport, fragBytes int) (a, b *Node) {
	t.Helper()
	lcfg := link.DefaultConfig(nil)
	lcfg.FragmentBytes = fragBytes
	a, err := NewNode(ta, WithNodeID(1), WithSeed(1), WithLinkConfig(lcfg))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close() })
	b, err = NewNode(tb, WithNodeID(2), WithSeed(2), WithLinkConfig(lcfg))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { b.Close() })
	return a, b
}

// retrieveIdentical publishes a 32 KB item on a, retrieves it on b and
// holds the result to the published bytes and both links to zero
// reassembly errors.
func retrieveIdentical(t *testing.T, a, b *Node) {
	t.Helper()
	payload := make([]byte, 32<<10)
	for i := range payload {
		payload[i] = byte(i % 251)
	}
	item := a.PublishItem(NewDescriptor().Set(AttrName, String("clip")), payload, 8192)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	got, err := b.Retrieve(ctx, item)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("retrieved %d bytes that are not the %d published", len(got), len(payload))
	}
	for _, n := range []*Node{a, b} {
		var st link.Stats
		n.clk.Locked(func() { st = n.link.Stats() })
		if st.ReasmErrors != 0 || st.Fragmented+st.Reassembled == 0 {
			t.Fatalf("node %d: %d reassembly errors, %d fragmented, %d reassembled", n.ID(), st.ReasmErrors, st.Fragmented, st.Reassembled)
		}
	}
}

// TestAnyFragmentSizeOverFaces: the link's FragmentBytes is the only
// place a fragment size is set; a face mesh carries whatever the link
// cuts.
func TestAnyFragmentSizeOverFaces(t *testing.T) {
	for _, fragBytes := range []int{600, 1400, 2000, 5000} {
		t.Run(fmt.Sprint(fragBytes), func(t *testing.T) {
			ma, err := NewFaceTransport(DefaultFaceConfig("127.0.0.1:0"))
			if err != nil {
				t.Skipf("cannot listen on loopback TCP: %v", err)
			}
			mb, err := NewFaceTransport(DefaultFaceConfig("127.0.0.1:0"), ma.ListenAddr().String())
			if err != nil {
				ma.Close()
				t.Fatal(err)
			}
			a, b := fragmentingPair(t, ma, mb, fragBytes)
			if !ma.WaitReady(1, 5*time.Second) || !mb.WaitReady(1, 5*time.Second) {
				t.Fatal("faces never came up")
			}
			retrieveIdentical(t, a, b)
		})
	}
}

// TestAnyFragmentSizeOverLoopbackUDP: the same over datagrams, for every
// size one datagram carries — and a size it does not is refused when the
// node is made, not sent and truncated.
func TestAnyFragmentSizeOverLoopbackUDP(t *testing.T) {
	const most = 1919 // udptransport's MaxFragment at the default MaxDatagram
	for i, fragBytes := range []int{600, 1400, most} {
		t.Run(fmt.Sprint(fragBytes), func(t *testing.T) {
			pa, pb := 19761+2*i, 19762+2*i
			ta, err := NewLoopbackTransport(pa, []int{pb})
			if err != nil {
				t.Skipf("cannot bind loopback UDP: %v", err)
			}
			tb, err := NewLoopbackTransport(pb, []int{pa})
			if err != nil {
				ta.Close()
				t.Fatal(err)
			}
			a, b := fragmentingPair(t, ta, tb, fragBytes)
			retrieveIdentical(t, a, b)
		})
	}

	tr, err := NewLoopbackTransport(19767, []int{19768})
	if err != nil {
		t.Skipf("cannot bind loopback UDP: %v", err)
	}
	defer tr.Close()
	lcfg := link.DefaultConfig(nil)
	lcfg.FragmentBytes = most + 1
	_, err = NewNode(tr, WithLinkConfig(lcfg))
	if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("FragmentBytes %d exceeds", most+1)) ||
		!strings.Contains(err.Error(), fmt.Sprintf("(%d)", most)) {
		t.Fatalf("NewNode with FragmentBytes %d over UDP: %v; want a refusal naming both sizes", most+1, err)
	}
}

// ackOwedTransport counts the acks a node's own transmissions ask for:
// one per listed receiver of every frame it sends expecting acks.
type ackOwedTransport struct {
	Transport
	mu   sync.Mutex
	owed uint64
}

func (c *ackOwedTransport) Send(m *Message) bool {
	if !m.NoAck {
		c.mu.Lock()
		c.owed += uint64(len(m.Receivers()))
		c.mu.Unlock()
	}
	return c.Transport.Send(m)
}

// TestFaceMeshOverhearsButAcksOneFace: three nodes on a full face mesh,
// 3 retrieves a 1 MB item from 1. Node 2, named in no chunk's receiver
// list, ends up holding every chunk — overhearing is the paper's design
// and survives; no frame anyone was waiting for was refused by a queue;
// and the acks 3 owes 1 reach 1 alone, so 2's link hears no more acks
// than its own frames asked for.
func TestFaceMeshOverhearsButAcksOneFace(t *testing.T) {
	var meshes [3]*FaceMesh
	var owed [3]*ackOwedTransport
	var nodes [3]*Node
	lcfg := link.DefaultConfig(nil)
	lcfg.PaceEnabled = false
	for i := range meshes {
		cfg := DefaultFaceConfig("127.0.0.1:0")
		cfg.Self = wire.NodeID(i + 1)
		cfg.Seed = int64(i + 1)
		// Room for every fragment of the item: on a busy box a queue drops
		// overhear copies, by design, and this test is about where copies
		// go, not about bursts.
		cfg.OutboxFrames = 1024
		m, err := NewFaceTransport(cfg)
		if err != nil {
			t.Skipf("cannot bind loopback TCP: %v", err)
		}
		meshes[i], owed[i] = m, &ackOwedTransport{Transport: m}
		n, err := NewNode(owed[i], WithNodeID(NodeID(i+1)), WithSeed(int64(i+1)), WithLinkConfig(lcfg))
		if err != nil {
			m.Close()
			t.Fatal(err)
		}
		t.Cleanup(func() { n.Close() })
		nodes[i] = n
	}
	for i, m := range meshes {
		for _, o := range meshes[i+1:] {
			m.AddPeer(o.ListenAddr().String())
		}
	}
	for i, m := range meshes {
		if !m.WaitReady(2, 10*time.Second) {
			t.Fatalf("mesh %d never reached 2 up faces", i+1)
		}
	}

	payload := make([]byte, 1<<20)
	for i := range payload {
		payload[i] = byte(i % 251)
	}
	item := nodes[0].PublishItem(NewDescriptor().Set(AttrName, String("clip")), payload, 64<<10)
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	got, err := nodes[2].Retrieve(ctx, item)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("retrieved %d bytes that are not the %d published", len(got), len(payload))
	}

	if held, total := nodes[1].LocalData(item); held != total {
		t.Errorf("the overhearing node holds %d of %d chunks (overhear copies dropped at node 1: %d)",
			held, total, meshes[0].Stats().OverhearDrops)
	}
	var st [3]link.Stats
	for i, n := range nodes {
		n.clk.Locked(func() { st[i] = n.link.Stats() })
	}
	if st[0].RawDrops != 0 {
		t.Errorf("the producer's link counts %d raw drops; face stats %+v", st[0].RawDrops, meshes[0].Stats())
	}
	owed[1].mu.Lock()
	owed2 := owed[1].owed
	owed[1].mu.Unlock()
	if st[1].AcksReceived > owed2 {
		t.Errorf("node 2's link received %d acks, its own frames asked for %d: acks for node 1's frames reached it", st[1].AcksReceived, owed2)
	}
	if st[2].AcksSent == 0 || st[0].AcksReceived == 0 {
		t.Errorf("no acks flowed: 3 sent %d, 1 received %d", st[2].AcksSent, st[0].AcksReceived)
	}
}
