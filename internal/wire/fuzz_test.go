package wire

import (
	"errors"
	"math/rand"
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
