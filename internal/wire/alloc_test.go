package wire

import (
	"math/rand"
	"testing"
)

// These tests pin the copy-on-write ownership contract: which sections
// Clone and WithReceivers share, and how many allocations the hot
// encode/share paths are allowed. They are regression tests — a change
// that silently reintroduces deep copies or per-call garbage fails here
// before it shows up in the figure benchmarks.

// sampleResponse returns a deterministic response message with every
// section populated.
func sampleResponse() *Message {
	rng := rand.New(rand.NewSource(7))
	for {
		m := randomResponseMessage(rng)
		if len(m.Response.Entries) > 0 && len(m.Response.Blobs) > 0 &&
			len(m.Response.CDI) > 0 && len(m.Response.Receivers) > 0 {
			return m
		}
	}
}

// sampleQuery returns a deterministic query message with a Bloom filter
// and receivers.
func sampleQuery() *Message {
	rng := rand.New(rand.NewSource(11))
	for {
		m := randomQueryMessage(rng)
		if m.Query.Bloom != nil && len(m.Query.Receivers) > 0 {
			return m
		}
	}
}

// TestCloneSharesImmutableSections asserts Clone does NOT deep-copy
// payload bytes or descriptor lists: those sections are immutable after
// publish and sharing them is the point of the ownership model.
func TestCloneSharesImmutableSections(t *testing.T) {
	m := sampleResponse()
	c := m.Clone()
	if &c.Response.Blobs[0].Payload[0] != &m.Response.Blobs[0].Payload[0] {
		t.Error("Clone copied blob payload bytes; payloads are immutable and must be shared")
	}
	if &c.Response.Entries[0] != &m.Response.Entries[0] {
		t.Error("Clone copied the Entries slice; descriptors are immutable and must be shared")
	}
	if &c.Response.CDI[0] != &m.Response.CDI[0] {
		t.Error("Clone copied the CDI slice")
	}
	// Receivers stay private: link-layer retransmission narrows them.
	c.Response.Receivers[0] = 0xdead
	if m.Response.Receivers[0] == 0xdead {
		t.Error("Clone shares the Receivers slice; retransmit narrowing would corrupt the original")
	}
}

// TestWithReceiversCoW asserts WithReceivers rewrites only the receiver
// list: the body struct is copied, everything inside it is shared.
func TestWithReceiversCoW(t *testing.T) {
	m := sampleQuery()
	v := m.WithReceivers([]NodeID{42})
	if v.Query == m.Query {
		t.Fatal("WithReceivers must copy the body struct before rewriting it")
	}
	if got := v.Receivers(); len(got) != 1 || got[0] != 42 {
		t.Fatalf("Receivers() = %v, want [42]", got)
	}
	if len(m.Query.Receivers) == 1 {
		t.Error("original receiver list was rewritten")
	}
	if v.Query.Bloom != m.Query.Bloom {
		t.Error("WithReceivers must share the Bloom filter")
	}
	if len(m.Query.ChunkIDs) > 0 && &v.Query.ChunkIDs[0] != &m.Query.ChunkIDs[0] {
		t.Error("WithReceivers must share ChunkIDs")
	}

	r := sampleResponse()
	vr := r.WithReceivers([]NodeID{7})
	if vr.Response == r.Response {
		t.Fatal("WithReceivers must copy the Response struct")
	}
	if &vr.Response.Blobs[0].Payload[0] != &r.Response.Blobs[0].Payload[0] {
		t.Error("WithReceivers must share payload bytes")
	}
}

// TestAppendEncodeZeroAlloc asserts the steady-state encode path — a
// reused destination buffer, as the transports hold — performs no
// allocation at all.
func TestAppendEncodeZeroAlloc(t *testing.T) {
	m := sampleResponse()
	buf, err := Encode(m)
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]byte, 0, 2*len(buf))
	allocs := testing.AllocsPerRun(100, func() {
		var err error
		dst, err = AppendEncode(dst[:0], m)
		if err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("AppendEncode into a warm buffer: %v allocs/op, want 0", allocs)
	}
}

// sink keeps what the allocation tests build reachable, so the compiler
// cannot inline a builder and keep its result on the stack.
var sink *Message

// TestShareAllocBudget pins the allocation cost of the builders and of
// WithReceivers: each is one allocation, a Message and the body after
// it.
func TestShareAllocBudget(t *testing.T) {
	q, r := sampleQuery(), sampleResponse()
	rs := []NodeID{42}
	for name, build := range map[string]func() *Message{
		"NewQuery":               func() *Message { return NewQuery(*q.Query) },
		"NewResponse":            func() *Message { return NewResponse(*r.Response) },
		"query WithReceivers":    func() *Message { return q.WithReceivers(rs) },
		"response WithReceivers": func() *Message { return r.WithReceivers(rs) },
	} {
		if got := testing.AllocsPerRun(100, func() { sink = build() }); got > 1 {
			t.Errorf("%s: %v allocs/op, want <= 1", name, got)
		}
	}
}

// TestDecodeAllocsPerKind: a decoded message is one allocation, the
// envelope and its body together, plus what the body's sections need. A
// bare ack, query or response needs nothing more: an empty descriptor
// is the zero Descriptor.
func TestDecodeAllocsPerKind(t *testing.T) {
	for _, c := range []struct {
		m    *Message
		want float64
	}{
		{&Message{Type: TypeAck, TransmitID: 9, From: 3, NoAck: true, Ack: &Ack{MsgID: 8, From: 3}}, 1},
		{NewQuery(Query{ID: 1, Kind: KindMetadata, Sender: 3}), 1},
		{NewResponse(Response{ID: 2, Kind: KindMetadata, Sender: 3}), 1},
	} {
		buf, err := Encode(c.m)
		if err != nil {
			t.Fatal(err)
		}
		got := testing.AllocsPerRun(100, func() {
			if sink, err = Decode(buf); err != nil {
				t.Fatal(err)
			}
		})
		if got > c.want {
			t.Errorf("Decode(%s): %v allocs/op, want <= %v", c.m.Type, got, c.want)
		}
	}
}

// TestDecodeAllocBudget keeps Decode's materialization cost bounded: it
// copies out everything but blob payloads, which alias the input, and the
// per-message overhead must stay small and flat.
func TestDecodeAllocBudget(t *testing.T) {
	m := sampleResponse()
	buf, err := Encode(m)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := Decode(buf); err != nil {
			t.Fatal(err)
		}
	})
	// Sections of the sample: message, response, serves, entries (with
	// attribute lists and strings), CDI, blobs (payloads not copied). The
	// exact figure depends on the sample's shape; the bound catches an
	// accidental quadratic or per-byte regression.
	if allocs > 60 {
		t.Errorf("Decode: %v allocs/op, want <= 60", allocs)
	}
}

// BenchmarkEncode / BenchmarkAppendEncode / BenchmarkDecode report the
// codec's allocation profile for before/after comparisons.
func BenchmarkEncode(b *testing.B) {
	m := sampleResponse()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Encode(m); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAppendEncode(b *testing.B) {
	m := sampleResponse()
	dst := make([]byte, 0, 4096)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var err error
		dst, err = AppendEncode(dst[:0], m)
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecode(b *testing.B) {
	m := sampleResponse()
	buf, err := Encode(m)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Decode(buf); err != nil {
			b.Fatal(err)
		}
	}
}
