package pds

import (
	"bytes"
	"context"
	"fmt"
	"slices"
	"testing"
	"time"

	"pds/internal/core"
	"pds/internal/link"
)

// TestFaceMeshRetrievesWithoutSpread: a face mesh declares no shared
// medium, so its nodes run without forward and response jitter, and a
// retrieval's phase 1 settles as the covering CDI answer lands rather than
// on the next RoundCheck tick. Three nodes on a loopback mesh; the third
// fetches seven multi-chunk items from the first, one after another. The
// median stays under half a RoundCheck, with room for the race detector:
// the jittered path waits a whole RoundCheck for phase 1 alone.
func TestFaceMeshRetrievesWithoutSpread(t *testing.T) {
	var meshes [3]*FaceMesh
	var nodes [3]*Node
	lcfg := link.DefaultConfig(nil)
	lcfg.PaceEnabled = false
	for i := range meshes {
		cfg := DefaultFaceConfig("127.0.0.1:0")
		cfg.Seed = int64(i + 1)
		m, err := NewFaceTransport(cfg)
		if err != nil {
			t.Skipf("cannot bind loopback TCP: %v", err)
		}
		meshes[i] = m
		n, err := NewNode(m, WithNodeID(NodeID(i+1)), WithSeed(int64(i+1)), WithLinkConfig(lcfg))
		if err != nil {
			m.Close()
			t.Fatal(err)
		}
		t.Cleanup(func() { n.Close() })
		nodes[i] = n
		if c := n.core.Config(); c.ForwardJitterMax != 0 || c.ResponseJitterMax != 0 {
			t.Fatalf("node %d on a face mesh runs jitters %v / %v, want none", i+1, c.ForwardJitterMax, c.ResponseJitterMax)
		}
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

	payload := make([]byte, 64<<10)
	for i := range payload {
		payload[i] = byte(i % 251)
	}
	var lat []time.Duration
	for k := 0; k < 7; k++ {
		item := nodes[0].PublishItem(NewDescriptor().Set(AttrName, String(fmt.Sprintf("clip-%d", k))), payload, 16<<10)
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		start := time.Now()
		got, err := nodes[2].Retrieve(ctx, item)
		lat = append(lat, time.Since(start))
		cancel()
		if err != nil {
			t.Fatalf("item %d: %v", k, err)
		}
		if !bytes.Equal(got, payload) {
			t.Fatalf("item %d: retrieved %d bytes that are not the %d published", k, len(got), len(payload))
		}
	}
	slices.Sort(lat)
	if lat[len(lat)/2] >= core.RoundCheck/2 {
		t.Fatalf("median retrieval %v, want under %v; all %v", lat[len(lat)/2], core.RoundCheck/2, lat)
	}
}

// TestSharedMediaKeepTheSpread: transports that declare nothing — the
// in-process hub and UDP — are taken for a shared medium, and their nodes
// run the configured jitters.
func TestSharedMediaKeepTheSpread(t *testing.T) {
	want := core.DefaultConfig()
	hub := NewChanHub()
	transports := map[string]Transport{"hub": hub.Attach()}
	if u, err := NewLoopbackTransport(19771, []int{19772}); err == nil {
		transports["udp"] = u
	} else {
		t.Logf("UDP not checked: cannot bind loopback UDP: %v", err)
	}
	for name, tr := range transports {
		n, err := NewNode(tr, WithNodeID(1), WithSeed(1))
		if err != nil {
			tr.Close()
			t.Fatal(err)
		}
		c := n.core.Config()
		n.Close()
		if c.ForwardJitterMax != want.ForwardJitterMax || c.ResponseJitterMax != want.ResponseJitterMax {
			t.Errorf("%s: node runs jitters %v / %v, want the defaults %v / %v", name,
				c.ForwardJitterMax, c.ResponseJitterMax, want.ForwardJitterMax, want.ResponseJitterMax)
		}
	}
}
