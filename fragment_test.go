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

// cutAt is the default link configuration set to cut fragments of
// fragBytes.
func cutAt(fragBytes int) link.Config {
	lcfg := link.DefaultConfig(nil)
	lcfg.FragmentBytes = fragBytes
	return lcfg
}

// nodePair makes nodes 1 and 2 on the given transports with the link
// configuration lcfg.
func nodePair(t testing.TB, ta, tb Transport, lcfg link.Config) (a, b *Node) {
	t.Helper()
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

// retrieveIdentical publishes an item of itemBytes in chunks of
// chunkBytes on a, retrieves it on b, holds the result to the published
// bytes and both links to zero reassembly errors, and returns the links'
// stats.
func retrieveIdentical(t *testing.T, a, b *Node, itemBytes, chunkBytes int) [2]link.Stats {
	t.Helper()
	payload := make([]byte, itemBytes)
	for i := range payload {
		payload[i] = byte(i % 251)
	}
	item := a.PublishItem(NewDescriptor().Set(AttrName, String("clip")), payload, chunkBytes)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	got, err := b.Retrieve(ctx, item)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("retrieved %d bytes that are not the %d published", len(got), len(payload))
	}
	var st [2]link.Stats
	for i, n := range []*Node{a, b} {
		n.clk.Locked(func() { st[i] = n.link.Stats() })
		if st[i].ReasmErrors != 0 {
			t.Fatalf("node %d: %d reassembly errors", n.ID(), st[i].ReasmErrors)
		}
	}
	return st
}

// retrieveFragmented retrieves a 32 KB item in 8 KB chunks, as
// retrieveIdentical does, and expects fragments to have crossed.
func retrieveFragmented(t *testing.T, a, b *Node) {
	t.Helper()
	for i, st := range retrieveIdentical(t, a, b, 32<<10, 8192) {
		if st.Fragmented+st.Reassembled == 0 {
			t.Fatalf("node %d: no fragment cut or reassembled", i+1)
		}
	}
}

// facePair makes two face meshes on cfg, the second dialing the first,
// with nodes 1 and 2 on them (see nodePair), and waits for the face to
// come up.
func facePair(t testing.TB, cfg FaceConfig, lcfg link.Config) (ma, mb *FaceMesh, a, b *Node) {
	t.Helper()
	cfg.ListenAddr = "127.0.0.1:0"
	ma, err := NewFaceTransport(cfg)
	if err != nil {
		t.Skipf("cannot listen on loopback TCP: %v", err)
	}
	mb, err = NewFaceTransport(cfg, ma.ListenAddr().String())
	if err != nil {
		ma.Close()
		t.Fatal(err)
	}
	a, b = nodePair(t, ma, mb, lcfg)
	if !ma.WaitReady(1, 5*time.Second) || !mb.WaitReady(1, 5*time.Second) {
		t.Fatal("faces never came up")
	}
	return ma, mb, a, b
}

// TestAnyFragmentSizeOverFaces: a face mesh's MaxFrame sets where the
// link cuts, and the mesh carries whatever the link cuts. Each mesh is
// sized so that its MaxFragment is fragBytes.
func TestAnyFragmentSizeOverFaces(t *testing.T) {
	for _, fragBytes := range []int{600, 1400, 2000, 5000} {
		t.Run(fmt.Sprint(fragBytes), func(t *testing.T) {
			cfg := DefaultFaceConfig("")
			cfg.MaxFrame = fragBytes + 1 + wire.FragmentOverhead()
			ma, _, a, b := facePair(t, cfg, link.DefaultConfig(nil))
			if got := ma.MaxFragment(); got != fragBytes {
				t.Fatalf("MaxFrame %d gives MaxFragment %d, want %d", cfg.MaxFrame, got, fragBytes)
			}
			retrieveFragmented(t, a, b)
		})
	}
}

// TestFaceMeshSendsChunksWhole: on a face mesh at the default MaxFrame
// the link cuts no fragment, whatever its FragmentBytes says: a stream
// has no shared air for a collision to cost a radio packet of.
func TestFaceMeshSendsChunksWhole(t *testing.T) {
	_, _, a, b := facePair(t, DefaultFaceConfig(""), cutAt(1400))
	for i, st := range retrieveIdentical(t, a, b, 32<<10, 8192) {
		if st.Fragmented != 0 || st.Reassembled != 0 {
			t.Errorf("node %d: %d messages fragmented, %d reassembled; want every chunk in one frame", i+1, st.Fragmented, st.Reassembled)
		}
	}
}

// TestFaceMeshFragmentsPastMaxFrame: a chunk bigger than MaxFrame goes in
// fragments cut at the frame bound, even from a link configured not to
// fragment; sent whole it would reset the receiving face, and every
// retransmission with it.
func TestFaceMeshFragmentsPastMaxFrame(t *testing.T) {
	cfg := DefaultFaceConfig("")
	cfg.MaxFrame = 64 << 10
	ma, mb, a, b := facePair(t, cfg, cutAt(0))
	st := retrieveIdentical(t, a, b, 256<<10, 128<<10)
	if st[0].Fragmented == 0 {
		t.Errorf("node 1 sent 128 KB chunks under a 64 KB MaxFrame without fragmenting them")
	}
	for i, m := range []*FaceMesh{ma, mb} {
		if r := m.Stats().ConnResets; r != 0 {
			t.Errorf("mesh %d: %d connection resets", i+1, r)
		}
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
			a, b := nodePair(t, ta, tb, cutAt(fragBytes))
			retrieveFragmented(t, a, b)
		})
	}

	tr, err := NewLoopbackTransport(19767, []int{19768})
	if err != nil {
		t.Skipf("cannot bind loopback UDP: %v", err)
	}
	defer tr.Close()
	_, err = NewNode(tr, WithLinkConfig(cutAt(most+1)))
	if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("FragmentBytes %d exceeds", most+1)) ||
		!strings.Contains(err.Error(), fmt.Sprintf("(%d)", most)) {
		t.Fatalf("NewNode with FragmentBytes %d over UDP: %v; want a refusal naming both sizes", most+1, err)
	}
}

// ackOwedTransport counts the acks a node's own transmissions ask for:
// one per listed receiver of every frame it sends expecting acks. Every
// other method is the mesh's, so the node runs as on the bare mesh.
type ackOwedTransport struct {
	*FaceMesh
	mu   sync.Mutex
	owed uint64
}

func (c *ackOwedTransport) Send(m *Message) bool {
	if !m.NoAck {
		c.mu.Lock()
		c.owed += uint64(len(m.Receivers()))
		c.mu.Unlock()
	}
	return c.FaceMesh.Send(m)
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
		m, err := NewFaceTransport(cfg)
		if err != nil {
			t.Skipf("cannot bind loopback TCP: %v", err)
		}
		meshes[i], owed[i] = m, &ackOwedTransport{FaceMesh: m}
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

	// Node 2 takes its overheard copies on its own goroutines: node 3's
	// Retrieve returning says nothing about whether 2 has stored the
	// last of them yet, so give it a moment before counting.
	held, total := nodes[1].LocalData(item)
	for deadline := time.Now().Add(5 * time.Second); held != total && time.Now().Before(deadline); {
		time.Sleep(5 * time.Millisecond)
		held, total = nodes[1].LocalData(item)
	}
	if held != total {
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

// BenchmarkFaceMeshRetrieve: node 2 retrieves a fresh 896 KB item in
// 128 KB chunks from node 1 over a loopback face mesh, pacing off — one
// live-swarm operation without the swarm. Publishing the item, and
// dropping it from both nodes afterwards, is outside the timer; allocs
// and bytes per op are both nodes' and both meshes' together.
func BenchmarkFaceMeshRetrieve(b *testing.B) {
	lcfg := link.DefaultConfig(nil)
	lcfg.PaceEnabled = false
	_, _, prod, cons := facePair(b, DefaultFaceConfig(""), lcfg)
	payload := make([]byte, 896<<10)
	for i := range payload {
		payload[i] = byte(i % 251)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		item := prod.PublishItem(NewDescriptor().Set(AttrName, String(fmt.Sprintf("clip-%d", i))), payload, 128<<10)
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		b.StartTimer()
		got, err := cons.Retrieve(ctx, item)
		b.StopTimer()
		cancel()
		if err != nil || !bytes.Equal(got, payload) {
			b.Fatalf("op %d: %d bytes retrieved, err %v", i, len(got), err)
		}
		for _, n := range []*Node{prod, cons} {
			n.Unpublish(item)
			for c := range item.TotalChunks() {
				n.Unpublish(item.WithChunk(c))
			}
		}
		b.StartTimer()
	}
}
