package wire_test

import (
	"bytes"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"pds/internal/attr"
	"pds/internal/link"
	"pds/internal/sim"
	"pds/internal/wire"
)

// blobResponse is a chunk response carrying one payload of n bytes.
func blobResponse(rng *rand.Rand, n int) *wire.Message {
	payload := make([]byte, n)
	rng.Read(payload)
	return &wire.Message{
		Type: wire.TypeResponse,
		Response: &wire.Response{
			ID:        rng.Uint64(),
			Kind:      wire.KindChunk,
			Sender:    2,
			Receivers: []wire.NodeID{1, 3},
			Item:      attr.NewDescriptor().Set("name", attr.String("item")),
			Blobs:     []wire.Blob{{Desc: attr.NewDescriptor().Set("c", attr.Int(int64(n))), Payload: payload}},
		},
	}
}

// cut returns the frames a link hands its raw sender for msg at the
// given FragmentBytes, all at once (no acks to wait for, no pacing): the
// link's own cutting, not a copy of its arithmetic.
func cut(msg *wire.Message, fragBytes int) []*wire.Message {
	var frames []*wire.Message
	l := link.New(sim.NewEngine(1), 2, func(m *wire.Message) bool {
		frames = append(frames, m)
		return true
	}, link.Config{FragmentBytes: fragBytes})
	l.Send(msg)
	return frames
}

// TestVirtualFragmentsEncodeTheirRanges: for random messages and
// fragment sizes, what the fragments of one cutting carry after
// AppendEncode and Decode, concatenated, is the encoded whole, and each
// frame is as long as EncodedSize says.
func TestVirtualFragmentsEncodeTheirRanges(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	for trial := 0; trial < 200; trial++ {
		fragBytes := 64 + rng.Intn(4096-64+1)
		whole := blobResponse(rng, rng.Intn(6*fragBytes))
		want, err := wire.Encode(whole)
		if err != nil {
			t.Fatal(err)
		}
		frames := cut(whole, fragBytes)
		if len(want) <= fragBytes {
			if len(frames) != 1 || frames[0].Type != wire.TypeResponse {
				t.Fatalf("%d bytes at FragmentBytes %d: want the message itself, got %d frames", len(want), fragBytes, len(frames))
			}
			continue
		}
		var got, buf []byte
		for i, f := range frames {
			if buf, err = wire.AppendEncode(buf[:0], f); err != nil {
				t.Fatalf("%d bytes at FragmentBytes %d: fragment %d: %v", len(want), fragBytes, i, err)
			}
			if len(buf) != wire.EncodedSize(f) {
				t.Fatalf("fragment %d: EncodedSize %d, encoded %d", i, wire.EncodedSize(f), len(buf))
			}
			d, err := wire.Decode(buf)
			if err != nil {
				t.Fatalf("fragment %d does not decode: %v", i, err)
			}
			if d.Fragment.Index != i || d.Fragment.Count != len(frames) || d.Fragment.Whole != nil {
				t.Fatalf("fragment %d decoded as %+v", i, d.Fragment)
			}
			got = append(got, d.Fragment.Data...)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%d bytes at FragmentBytes %d: %d fragments carry %d bytes that are not the encoded whole",
				len(want), fragBytes, len(frames), len(got))
		}
		// A retransmission narrowed to one receiver shares the memo and
		// carries the same range.
		narrowed := frames[1].WithReceivers([]wire.NodeID{3})
		if narrowed.Fragment.Enc != frames[1].Fragment.Enc {
			t.Fatal("WithReceivers dropped the fragment's memo")
		}
		nb, err := wire.Encode(narrowed)
		if err != nil {
			t.Fatal(err)
		}
		if d, err := wire.Decode(nb); err != nil || !bytes.Equal(d.Fragment.Data, want[fragBytes:min(2*fragBytes, len(want))]) {
			t.Fatalf("narrowed fragment 1 carries the wrong range (%v)", err)
		}
	}
}

// TestFragmentsEncodeWholeOnce: the N fragments of one cutting encode
// the whole message once — the first pass over a 256 KB blob allocates
// about one copy of it, not N — and from then on encoding a fragment
// allocates nothing.
func TestFragmentsEncodeWholeOnce(t *testing.T) {
	whole := blobResponse(rand.New(rand.NewSource(21)), 256<<10)
	frames := cut(whole, 1400)
	if len(frames) < 180 {
		t.Fatalf("%d fragments", len(frames))
	}
	buf := make([]byte, 0, 2048)
	pass := func() {
		for _, f := range frames {
			var err error
			if buf, err = wire.AppendEncode(buf[:0], f); err != nil {
				t.Fatal(err)
			}
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	pass()
	runtime.ReadMemStats(&after)
	size := uint64(wire.EncodedSize(whole))
	if got := after.TotalAlloc - before.TotalAlloc; got < size || got > size+size/2 {
		t.Fatalf("first pass over %d fragments of a %d-byte message allocated %d bytes, want about one copy", len(frames), size, got)
	}
	if allocs := testing.AllocsPerRun(10, pass); allocs != 0 {
		t.Fatalf("a pass over an encoded cutting allocates %.1f objects, want 0", allocs)
	}
}

// TestFragmentsEncodeConcurrently: many goroutines encoding the
// fragments of one fresh cutting, as a node's send paths may, each get
// their fragment's range (run under -race).
func TestFragmentsEncodeConcurrently(t *testing.T) {
	whole := blobResponse(rand.New(rand.NewSource(22)), 64<<10)
	want, err := wire.Encode(whole)
	if err != nil {
		t.Fatal(err)
	}
	const fragBytes = 1000
	frames := cut(whole, fragBytes)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := range frames {
				i := (k + g*7) % len(frames)
				b, err := wire.Encode(frames[i])
				if err != nil {
					t.Errorf("fragment %d: %v", i, err)
					return
				}
				d, err := wire.Decode(b)
				if err != nil || !bytes.Equal(d.Fragment.Data, want[i*fragBytes:min((i+1)*fragBytes, len(want))]) {
					t.Errorf("fragment %d carries the wrong range (%v)", i, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
