package face

import (
	"encoding/hex"
	"os"
	"strings"
	"testing"

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
	m := &Mesh{cfg: Config{FragmentBytes: 1400}, encCache: make(map[uint64][]byte)}
	for i, f := range frames {
		frame, err := m.encodeFrame(f)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if got := hex.EncodeToString(frame); got != want[i] {
			t.Errorf("frame %d differs from the pinned bytes:\n got %s\nwant %s", i, got, want[i])
		}
	}
}
