package wire

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"pds/internal/attr"
	"pds/internal/bloom"
)

func randomDescriptor(rng *rand.Rand) attr.Descriptor {
	d := attr.NewDescriptor()
	for i, n := 0, rng.Intn(4); i < n; i++ {
		switch rng.Intn(3) {
		case 0:
			d = d.Set("s", attr.String("v"))
		case 1:
			d = d.Set("i", attr.Int(rng.Int63()))
		default:
			d = d.Set("f", attr.Float(rng.Float64()))
		}
	}
	return d
}

func randomNodeIDs(rng *rand.Rand) []NodeID {
	n := rng.Intn(4)
	if n == 0 {
		return nil
	}
	out := make([]NodeID, n)
	for i := range out {
		out[i] = NodeID(rng.Uint32())
	}
	return out
}

func randomQueryMessage(rng *rand.Rand) *Message {
	q := &Query{
		ID:        rng.Uint64(),
		Kind:      QueryKind(1 + rng.Intn(4)),
		TTL:       time.Duration(rng.Int63n(int64(time.Minute))),
		Sender:    NodeID(rng.Uint32()),
		Receivers: randomNodeIDs(rng),
		Origin:    NodeID(rng.Uint32()),
		Round:     rng.Uint32(),
		Sel:       attr.NewQuery(attr.Eq("a", attr.Int(int64(rng.Intn(10))))),
		Item:      randomDescriptor(rng),
	}
	for i, n := 0, rng.Intn(4); i < n; i++ {
		q.ChunkIDs = append(q.ChunkIDs, rng.Intn(100))
	}
	if rng.Intn(2) == 0 {
		f := bloom.NewForCapacity(64, 0.01, rng.Uint64())
		f.Add("x")
		f.Add("y")
		q.Bloom = f
	}
	return &Message{
		Type:       TypeQuery,
		TransmitID: rng.Uint64(),
		From:       NodeID(rng.Uint32()),
		NoAck:      rng.Intn(2) == 0,
		Query:      q,
	}
}

func randomResponseMessage(rng *rand.Rand) *Message {
	r := &Response{
		ID:        rng.Uint64(),
		Kind:      QueryKind(1 + rng.Intn(4)),
		Sender:    NodeID(rng.Uint32()),
		Receivers: randomNodeIDs(rng),
		Item:      randomDescriptor(rng),
	}
	for i, n := 0, rng.Intn(3); i < n; i++ {
		r.Serves = append(r.Serves, Serve{Node: NodeID(rng.Uint32()), QueryID: rng.Uint64()})
	}
	for i, n := 0, rng.Intn(4); i < n; i++ {
		r.Entries = append(r.Entries, randomDescriptor(rng))
	}
	for i, n := 0, rng.Intn(3); i < n; i++ {
		r.CDI = append(r.CDI, CDIPair{ChunkID: rng.Intn(100), HopCount: rng.Intn(10)})
	}
	for i, n := 0, rng.Intn(3); i < n; i++ {
		payload := make([]byte, rng.Intn(64))
		rng.Read(payload)
		r.Blobs = append(r.Blobs, Blob{Desc: randomDescriptor(rng), Payload: payload})
	}
	return &Message{
		Type:       TypeResponse,
		TransmitID: rng.Uint64(),
		From:       NodeID(rng.Uint32()),
		Response:   r,
	}
}

func randomMessage(rng *rand.Rand) *Message {
	switch rng.Intn(3) {
	case 0:
		return randomQueryMessage(rng)
	case 1:
		return randomResponseMessage(rng)
	default:
		return &Message{
			Type:       TypeAck,
			TransmitID: rng.Uint64(),
			From:       NodeID(rng.Uint32()),
			NoAck:      true,
			Ack:        &Ack{MsgID: rng.Uint64(), From: NodeID(rng.Uint32())},
		}
	}
}

// messagesEquivalent compares two messages through re-encoding, which
// sidesteps pointer-vs-value differences in nested structures.
func messagesEquivalent(a, b *Message) bool {
	ea, err1 := Encode(a)
	eb, err2 := Encode(b)
	if err1 != nil || err2 != nil {
		return false
	}
	return reflect.DeepEqual(ea, eb)
}

// TestEncodeDecodeRoundTrip property-tests decode(encode(m)) == m.
func TestEncodeDecodeRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := randomMessage(rng)
		buf, err := Encode(m)
		if err != nil {
			return false
		}
		got, err := Decode(buf)
		if err != nil {
			return false
		}
		return messagesEquivalent(m, got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestEncodedSizeMatches is the contract the simulator relies on:
// EncodedSize must equal len(Encode()) exactly for every message.
func TestEncodedSizeMatches(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := randomMessage(rng)
		buf, err := Encode(m)
		if err != nil {
			return false
		}
		return EncodedSize(m) == len(buf)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeRejectsTruncation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := randomResponseMessage(rng)
	buf, err := Encode(m)
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(buf); cut++ {
		if _, err := Decode(buf[:cut]); err == nil {
			t.Fatalf("decode of %d/%d bytes succeeded", cut, len(buf))
		}
	}
	// Trailing garbage must also be rejected.
	if _, err := Decode(append(buf, 0)); err == nil {
		t.Fatal("decode accepted trailing bytes")
	}
}

func TestDecodeRejectsBadMagic(t *testing.T) {
	if _, err := Decode([]byte{0x00, 0x01, byte(TypeAck), 0, 0, 0, 0, 0}); err == nil {
		t.Fatal("bad magic accepted")
	}
}

func TestEncodeRejectsMismatchedBody(t *testing.T) {
	if _, err := Encode(&Message{Type: TypeQuery}); err == nil {
		t.Fatal("query without body accepted")
	}
	if _, err := Encode(&Message{Type: TypeResponse}); err == nil {
		t.Fatal("response without body accepted")
	}
	if _, err := Encode(&Message{Type: TypeAck}); err == nil {
		t.Fatal("ack without body accepted")
	}
	if _, err := Encode(&Message{Type: MessageType(99)}); err == nil {
		t.Fatal("unknown type accepted")
	}
}

func TestFragmentCodec(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	data := make([]byte, 100)
	rng.Read(data)
	m := &Message{
		Type:       TypeFragment,
		TransmitID: 7,
		From:       3,
		Fragment: &Fragment{
			OrigID:    42,
			Index:     1,
			Count:     3,
			Receivers: []NodeID{9},
			Size:      len(data),
			Data:      data,
		},
	}
	buf, err := Encode(m)
	if err != nil {
		t.Fatal(err)
	}
	if len(buf) != EncodedSize(m) {
		t.Fatalf("EncodedSize %d != %d", EncodedSize(m), len(buf))
	}
	got, err := Decode(buf)
	if err != nil {
		t.Fatal(err)
	}
	f := got.Fragment
	if f.OrigID != 42 || f.Index != 1 || f.Count != 3 || len(f.Data) != 100 {
		t.Fatalf("fragment fields wrong: %+v", f)
	}
	// A virtual fragment (Whole set, Data nil) encodes as its own range
	// of the encoded whole: here all of it.
	virt := &Message{Type: TypeFragment, Fragment: &Fragment{OrigID: 1, Count: 1, Size: len(buf), Whole: m}}
	vbuf, err := Encode(virt)
	if err != nil {
		t.Fatal(err)
	}
	if len(vbuf) != EncodedSize(virt) {
		t.Fatalf("virtual fragment: EncodedSize %d != %d", EncodedSize(virt), len(vbuf))
	}
	if got, err = Decode(vbuf); err != nil || !bytes.Equal(got.Fragment.Data, buf) {
		t.Fatalf("virtual fragment carried %x (%v), want the encoded whole", got.Fragment.Data, err)
	}
}

func TestIsIntendedFor(t *testing.T) {
	q := &Message{Type: TypeQuery, Query: &Query{Receivers: []NodeID{5, 6}}}
	if !q.IsIntendedFor(5) || q.IsIntendedFor(7) {
		t.Fatal("explicit receiver list misevaluated")
	}
	flood := &Message{Type: TypeQuery, Query: &Query{}}
	if !flood.IsIntendedFor(99) {
		t.Fatal("empty receiver list must mean everyone")
	}
	ack := &Message{Type: TypeAck, Ack: &Ack{}}
	if ack.IsIntendedFor(1) {
		t.Fatal("acks are not 'intended for' anyone")
	}
}

func TestCloneIndependence(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := randomQueryMessage(rng)
	m.Query.Receivers = []NodeID{1, 2}
	c := m.Clone()
	c.Query.Receivers[0] = 99
	c.Query.ChunkIDs = append(c.Query.ChunkIDs, 1234)
	if m.Query.Receivers[0] == 99 {
		t.Fatal("clone shares receiver slice")
	}
	if m.Query.Bloom != nil {
		c.Query.Bloom.Add("mutate")
		if m.Query.Bloom.Contains("mutate") && !m.Query.Bloom.Overloaded() {
			// Could be a false positive, but with a fresh small filter
			// this indicates shared state.
			t.Log("possible shared bloom (false positive tolerated)")
		}
	}
}

// TestTransmitIDLayout pins the one layout of a TransmitID: the node in
// the high half, its counter in the low, each read back whole — a counter
// below 2³² never reaches the node half.
func TestTransmitIDLayout(t *testing.T) {
	for _, tc := range []struct {
		node NodeID
		seq  uint64
		want uint64
	}{
		{0, 0, 0},
		{1, 1, 1<<32 | 1},
		{7, 0, 7 << 32},
		{3, 1<<32 - 1, 3<<32 | 0xffffffff},
		{1<<32 - 1, 1<<32 - 1, 1<<64 - 1},
		{0x80000000, 5, 0x80000000<<32 | 5},
	} {
		id := NewTransmitID(tc.node, tc.seq)
		if id != tc.want {
			t.Errorf("NewTransmitID(%d, %d) = %#x, want %#x", tc.node, tc.seq, id, tc.want)
		}
		if got := TransmitNode(id); got != tc.node {
			t.Errorf("TransmitNode(%#x) = %d, want %d", id, got, tc.node)
		}
		if got := id & 0xffffffff; got != tc.seq {
			t.Errorf("low half of %#x = %d, want the counter %d", id, got, tc.seq)
		}
	}
}
