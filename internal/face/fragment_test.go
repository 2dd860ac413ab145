package face

import (
	"encoding/hex"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"pds/internal/attr"
	"pds/internal/link"
	"pds/internal/sim"
	"pds/internal/wire"
)

// chunkMessage is a chunk response from node 2 to node 1 whose encoding
// takes three fragments at the link's default FragmentBytes.
func chunkMessage() *wire.Message {
	payload := make([]byte, 3000)
	for i := range payload {
		payload[i] = byte(i)
	}
	return &wire.Message{
		Type: wire.TypeResponse,
		Response: &wire.Response{
			ID:        7,
			Kind:      wire.KindChunk,
			Sender:    2,
			Receivers: []wire.NodeID{1},
			Blobs:     []wire.Blob{{Desc: attr.NewDescriptor().Set("c", attr.Int(0)), Payload: payload}},
		},
	}
}

// linkFrames returns the frames node 2's link layer hands its raw
// sender for msg: the fragments are cut by the code that cuts them in a
// node, not by a copy of its arithmetic.
func linkFrames(msg *wire.Message, cfg link.Config) []*wire.Message {
	var frames []*wire.Message
	l := link.New(sim.NewEngine(1), 2, func(m *wire.Message) bool {
		frames = append(frames, m)
		return true
	}, cfg)
	l.Send(msg)
	return frames
}

// TestFragmentFramesPinned holds the bytes a fragmented message puts on
// a face to testdata/fragment_frames.hex, captured at e855bbc: one line
// per frame of chunkMessage under the default link config.
func TestFragmentFramesPinned(t *testing.T) {
	golden, err := os.ReadFile("testdata/fragment_frames.hex")
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Fields(string(golden))
	frames := linkFrames(chunkMessage(), link.DefaultConfig(nil))
	if len(frames) != 3 || len(want) != 3 {
		t.Fatalf("%d frames against %d pinned, want 3 and 3", len(frames), len(want))
	}
	for i, f := range frames {
		frame, err := encodeMsgFrame(f)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if got := hex.EncodeToString(frame.joined()); got != want[i] {
			t.Errorf("frame %d differs from the pinned bytes:\n got %s\nwant %s", i, got, want[i])
		}
	}
}

// sendWatchedFragment sends whole as one virtual fragment whose
// memo is its own allocation, and reports by closing the returned
// channel when that memo — and the encoded whole, which nothing else can
// reach — has been collected. Built and sent here so the caller's frame
// holds no reference.
func sendWatchedFragment(t *testing.T, whole *wire.Message, send func(*wire.Message) bool) <-chan struct{} {
	t.Helper()
	enc := new(wire.Encoding)
	gone := make(chan struct{})
	runtime.SetFinalizer(enc, func(*wire.Encoding) { close(gone) })
	if !send(&wire.Message{
		Type: wire.TypeFragment, TransmitID: 9, From: 2, NoAck: true,
		Fragment: &wire.Fragment{OrigID: 5, Count: 1, Size: wire.EncodedSize(whole), Whole: whole, Enc: enc},
	}) {
		t.Fatal("send failed")
	}
	return gone
}

// TestMeshKeepsNoEncodedWhole: a mesh frames a fragment and keeps
// neither it nor the encoded message it was cut from.
func TestMeshKeepsNoEncodedWhole(t *testing.T) {
	a := newTestMesh(t, 1)
	b := newTestMesh(t, 2)
	var got collector
	a.SetReceiver(got.add)
	b.SetReceiver(func(*wire.Message) {})
	b.AddPeer(a.ListenAddr().String())
	if !b.WaitReady(1, 5*time.Second) {
		t.Fatal("face never came up")
	}
	gone := sendWatchedFragment(t, chunkMessage(), b.Send)
	got.wait(t, 1, 5*time.Second)
	for i := 0; ; i++ {
		runtime.GC()
		select {
		case <-gone:
			runtime.KeepAlive(b)
			return
		case <-time.After(5 * time.Millisecond):
		}
		if i == 100 {
			t.Fatal("the mesh still references a sent fragment's encoded whole")
		}
	}
}
