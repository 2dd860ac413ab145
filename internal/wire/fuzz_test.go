package wire

import (
	"bytes"
	"errors"
	"math/rand"
	"slices"
	"testing"
)

// FuzzDecode hammers the codec with arbitrary bytes: it must never
// panic, and everything it accepts must re-encode to the same bytes
// (canonical form).
func FuzzDecode(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 8; i++ {
		m := randomMessage(rng)
		buf, err := Encode(m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(buf)
	}
	f.Add([]byte{})
	f.Add([]byte{frameMagic, frameVersion, byte(TypeQuery)})
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Decode(data)
		if err != nil {
			return
		}
		re, err := Encode(m)
		if err != nil {
			t.Fatalf("decoded message does not re-encode: %v", err)
		}
		re2, err := Decode(re)
		if err != nil {
			t.Fatalf("re-encoded message does not decode: %v", err)
		}
		re3, err := Encode(re2)
		if err != nil || string(re3) != string(re) {
			t.Fatal("encode/decode not idempotent")
		}
		if EncodedSize(m) != len(re) {
			t.Fatalf("EncodedSize %d != %d", EncodedSize(m), len(re))
		}
	})
}

// TestEncodeRejectsBadFragments: a virtual fragment that does not fit
// the message it claims to be cut from, or a fragment with nothing to
// carry, is an error from AppendEncode — never a panic, never a frame
// shorter than EncodedSize promised.
func TestEncodeRejectsBadFragments(t *testing.T) {
	whole := randomResponseMessage(rand.New(rand.NewSource(5)))
	enc, err := Encode(whole)
	if err != nil {
		t.Fatal(err)
	}
	n := len(enc)
	if n < 40 {
		t.Fatalf("sample message encodes to %d bytes, too short for the table", n)
	}
	const maxInt = int(^uint(0) >> 1)
	count := func(size int) int { return (n + size - 1) / size }
	for _, c := range []struct {
		name string
		f    Fragment
		ok   bool
	}{
		{"first of a cutting", Fragment{Index: 0, Count: count(16), Size: 16, Whole: whole}, true},
		{"last of a cutting", Fragment{Index: count(16) - 1, Count: count(16), Size: n - (count(16)-1)*16, Whole: whole}, true},
		{"the whole in one", Fragment{Index: 0, Count: 1, Size: n, Whole: whole}, true},
		{"empty data", Fragment{Index: 0, Count: 1, Data: []byte{}}, true},
		{"neither data nor whole", Fragment{Index: 0, Count: 1, Size: 10}, false},
		{"index past count", Fragment{Index: count(16), Count: count(16), Size: 16, Whole: whole}, false},
		{"negative index", Fragment{Index: -1, Count: count(16), Size: 16, Whole: whole}, false},
		{"count too large for size", Fragment{Index: count(16), Count: count(16) + 2, Size: 16, Whole: whole}, false},
		{"count too small for size", Fragment{Index: 0, Count: 2, Size: 16, Whole: whole}, false},
		{"size past the message", Fragment{Index: 0, Count: 1, Size: n + 1, Whole: whole}, false},
		{"zero size", Fragment{Index: 0, Count: 1, Size: 0, Whole: whole}, false},
		{"negative size", Fragment{Index: 0, Count: 2, Size: -16, Whole: whole}, false},
		{"index times size overflows", Fragment{Index: maxInt/2 + 1, Count: maxInt, Size: 2, Whole: whole}, false},
		{"unencodable whole", Fragment{Index: 0, Count: 1, Size: 10, Whole: &Message{Type: TypeQuery}}, false},
	} {
		f := c.f
		m := &Message{Type: TypeFragment, Fragment: &f}
		buf, err := AppendEncode(nil, m)
		if c.ok {
			if err != nil || len(buf) != EncodedSize(m) {
				t.Errorf("%s: %d bytes, EncodedSize %d, error %v", c.name, len(buf), EncodedSize(m), err)
			} else if d, err := Decode(buf); err != nil || d.Fragment.Data == nil || len(d.Fragment.Data) != f.Size {
				t.Errorf("%s: decodes to %+v (%v)", c.name, d, err)
			}
			continue
		}
		if !errors.Is(err, ErrBadMessage) || buf != nil {
			t.Errorf("%s: encoded %d bytes, error %v; want ErrBadMessage", c.name, len(buf), err)
		}
	}
}

// FuzzSplit holds the codec's two frame shapes to one encoding for every
// message Decode accepts (checkSplit). The seeds are responses, most of
// them carrying payloads.
func FuzzSplit(f *testing.F) {
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 8; i++ {
		buf, err := Encode(randomResponseMessage(rng))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(buf)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if m, err := Decode(data); err == nil {
			checkSplit(t, m)
		}
	})
}

// TestSplitMatchesChecked runs checkSplit over random messages of every
// type.
func TestSplitMatchesChecked(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 500; i++ {
		checkSplit(t, randomMessage(rng))
	}
}

// checkSplit: AppendSplit's head and rest, joined, are AppendChecked's
// bytes; a dst sized as its doc says is not grown; each payload segment is
// the message's own slice, and there is none without payload bytes; and
// the joined frame decodes back to the message, each payload aliasing the
// frame where its segment went.
func checkSplit(t *testing.T, m *Message) {
	t.Helper()
	want, err := AppendChecked([]byte{0xee}, m)
	if err != nil {
		t.Fatal(err)
	}
	dst := append(make([]byte, 0, 1+ChecksumSize+EncodedSize(m)-PayloadBytes(m)), 0xee)
	head, rest, err := AppendSplit(dst, m)
	if err != nil {
		t.Fatal(err)
	}
	joined := slices.Concat(append([][]byte{head}, rest...)...)
	if !bytes.Equal(joined, want) {
		t.Fatalf("split frame differs from the checked encoding:\n got %x\nwant %x", joined, want)
	}
	if &head[0] != &dst[0] {
		t.Fatal("AppendSplit grew a dst sized for it")
	}
	var payloads, decoded [][]byte
	if m.Response != nil {
		payloads = nonEmpty(m.Response.Blobs)
	}
	if (rest == nil) != (len(payloads) == 0) {
		t.Fatalf("%d payloads, %d segments after the head", len(payloads), len(rest))
	}
	d, err := DecodeChecked(joined[1:])
	if err != nil || !messagesEquivalent(d, m) {
		t.Fatalf("joined frame does not decode back to the message: %v", err)
	}
	if d.Response != nil {
		decoded = nonEmpty(d.Response.Blobs)
	}
	off := len(head)
	for i, seg := range rest {
		if i%2 == 0 { // payload i/2, then the encoding up to the next
			if &seg[0] != &payloads[i/2][0] {
				t.Fatalf("segment %d is a copy of payload %d, not the payload", i, i/2)
			}
			if &decoded[i/2][0] != &joined[off] {
				t.Fatalf("decoded payload %d does not alias the frame", i/2)
			}
		}
		off += len(seg)
	}
}

// nonEmpty returns the payloads of blobs that have any.
func nonEmpty(blobs []Blob) [][]byte {
	var out [][]byte
	for _, b := range blobs {
		if len(b.Payload) > 0 {
			out = append(out, b.Payload)
		}
	}
	return out
}
