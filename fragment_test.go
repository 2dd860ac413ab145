package pds

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"pds/internal/link"
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
