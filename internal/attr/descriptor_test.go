package attr

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
	"unsafe"
)

func sampleDescriptor() Descriptor {
	return NewDescriptor().
		Set(AttrNamespace, String("env")).
		Set(AttrDataType, String("nox")).
		Set(AttrName, String("s1")).
		Set(AttrTime, Int(1600000000))
}

func TestDescriptorSetIsImmutable(t *testing.T) {
	d := sampleDescriptor()
	d2 := d.Set(AttrName, String("s2"))
	if v, _ := d.Get(AttrName); v.StringVal() != "s1" {
		t.Fatalf("original mutated: name=%v", v)
	}
	if v, _ := d2.Get(AttrName); v.StringVal() != "s2" {
		t.Fatalf("copy not updated: name=%v", v)
	}
}

func TestDescriptorAccessors(t *testing.T) {
	d := sampleDescriptor()
	if d.Namespace() != "env" || d.DataType() != "nox" || d.Name() != "s1" {
		t.Fatalf("accessors wrong: %s %s %s", d.Namespace(), d.DataType(), d.Name())
	}
	if d.Len() != 4 {
		t.Fatalf("Len = %d", d.Len())
	}
	names := d.Names()
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatalf("Names not sorted: %v", names)
		}
	}
	if _, ok := d.Get("absent"); ok {
		t.Fatal("Get(absent) reported present")
	}
}

func TestChunkDescriptors(t *testing.T) {
	item := sampleDescriptor().Set(AttrTotalChunks, Int(4))
	if item.TotalChunks() != 4 {
		t.Fatalf("TotalChunks = %d", item.TotalChunks())
	}
	if _, ok := item.ChunkID(); ok {
		t.Fatal("item descriptor reports a chunk id")
	}
	c2 := item.WithChunk(2)
	id, ok := c2.ChunkID()
	if !ok || id != 2 {
		t.Fatalf("ChunkID = %d,%v", id, ok)
	}
	back := c2.ItemDescriptor()
	if !back.Equal(item) {
		t.Fatalf("ItemDescriptor() != item: %s vs %s", back, item)
	}
	// ItemDescriptor of a chunkless descriptor is itself.
	if !item.ItemDescriptor().Equal(item) {
		t.Fatal("ItemDescriptor of item changed it")
	}
}

// TestItemKey holds ItemKey to ItemDescriptor().Key() over random
// descriptors — with and without a chunk id of any kind, with names
// sorting before and after chunkid — and pins a standard chunk
// descriptor's item key to no allocation.
func TestItemKey(t *testing.T) {
	names := []string{"a", "chunk", "chunkic", "chunkidx", AttrDataType, AttrName, AttrTime, AttrTotalChunks}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		d := NewDescriptor()
		for n := rng.Intn(5); n > 0; n-- {
			d = d.Set(names[rng.Intn(len(names))], randomValue(rng))
		}
		switch rng.Intn(3) {
		case 0:
			d = d.WithChunk(rng.Intn(1 << 20))
		case 1:
			d = d.Set(AttrChunkID, randomValue(rng))
		}
		if got, want := d.ItemKey(), d.ItemDescriptor().Key(); got != want {
			t.Fatalf("%s: ItemKey %q, ItemDescriptor().Key() %q", d, got, want)
		}
	}
	if (Descriptor{}).ItemKey() != "" {
		t.Fatal("the zero descriptor has an item key")
	}
	c := sampleDescriptor().Set(AttrTotalChunks, Int(10)).WithChunk(7)
	if got := testing.AllocsPerRun(100, func() { c.ItemKey() }); got != 0 {
		t.Errorf("ItemKey of a standard chunk descriptor: %v allocs", got)
	}
}

func TestDescriptorKeyEquality(t *testing.T) {
	a := sampleDescriptor()
	b := NewDescriptor().
		Set(AttrTime, Int(1600000000)).
		Set(AttrName, String("s1")).
		Set(AttrDataType, String("nox")).
		Set(AttrNamespace, String("env"))
	if a.Key() != b.Key() {
		t.Fatal("same attributes in different insert order give different keys")
	}
	c := a.Set(AttrName, String("other"))
	if a.Key() == c.Key() {
		t.Fatal("different descriptors share a key")
	}
}

func randomDescriptor(rng *rand.Rand) Descriptor {
	d := NewDescriptor()
	n := rng.Intn(6)
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("a%d", rng.Intn(8))
		d = d.Set(name, randomValue(rng))
	}
	return d
}

// TestDescriptorKeyInjective property-tests: equal keys iff Equal.
func TestDescriptorKeyInjective(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randomDescriptor(rng)
		b := randomDescriptor(rng)
		return (a.Key() == b.Key()) == a.Equal(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestDescriptorEncodeRoundTrip property-tests the codec.
func TestDescriptorEncodeRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := randomDescriptor(rng)
		buf := d.AppendBinary(nil)
		if len(buf) != d.EncodedSize() {
			return false
		}
		got, rest, err := DecodeDescriptor(buf)
		if err != nil || len(rest) != 0 {
			return false
		}
		return got.Equal(d)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeDescriptorTruncated(t *testing.T) {
	buf := sampleDescriptor().AppendBinary(nil)
	for cut := 0; cut < len(buf); cut++ {
		if _, _, err := DecodeDescriptor(buf[:cut]); err == nil {
			t.Fatalf("decode of %d/%d bytes succeeded", cut, len(buf))
		}
	}
}

// TestDecodeDescriptorNonCanonical: a descriptor arrives in canonical
// order or not at all. Names out of order, or one name twice, must not
// be re-sorted or collapsed into something the sender did not encode.
func TestDecodeDescriptorNonCanonical(t *testing.T) {
	pair := func(dst []byte, name string, v Value) []byte {
		dst = append(dst, byte(len(name)))
		return v.appendBinary(append(dst, name...))
	}
	for name, buf := range map[string][]byte{
		"out of order":           pair(pair([]byte{2}, "b", Int(1)), "a", Int(2)),
		"repeated":               pair(pair([]byte{2}, "a", Int(1)), "a", Int(2)),
		"repeated after another": pair(pair(pair([]byte{3}, "a", Int(1)), "b", Int(2)), "b", Int(3)),
	} {
		if d, _, err := DecodeDescriptor(buf); err == nil {
			t.Errorf("%s: decoded to %s", name, d)
		}
	}
	ok := pair(pair([]byte{2}, "a", Int(1)), "b", Int(2))
	if _, _, err := DecodeDescriptor(ok); err != nil {
		t.Fatalf("canonical order refused: %v", err)
	}
}

// descriptorSink keeps what TestDescriptorCost builds reachable, so the
// compiler cannot keep a result on the stack.
var descriptorSink Descriptor

// TestDescriptorCost pins what a descriptor costs. Every message entry
// and store record holds a descriptor by value, so it stays three words:
// the shared attribute list's pointer and the key. Building one costs
// the list, its header and the key; decoding adds each name and each
// string value.
func TestDescriptorCost(t *testing.T) {
	if got := unsafe.Sizeof(Descriptor{}); got != 24 {
		t.Errorf("Descriptor is %d bytes, want 24", got)
	}
	item := sampleDescriptor().Set(AttrTotalChunks, Int(10))
	chunk := item.WithChunk(7)
	buf := item.AppendBinary(nil)
	for _, c := range []struct {
		name string
		want float64
		f    func()
	}{
		{"WithChunk", 3, func() { descriptorSink = item.WithChunk(7) }},
		{"ItemDescriptor", 3, func() { descriptorSink = chunk.ItemDescriptor() }},
		{"DecodeDescriptor", 11, func() { descriptorSink, _, _ = DecodeDescriptor(buf) }},
	} {
		if got := testing.AllocsPerRun(100, c.f); got > c.want {
			t.Errorf("%s: %v allocs, want <= %v", c.name, got, c.want)
		}
	}
}

func TestDescriptorString(t *testing.T) {
	d := NewDescriptor().Set("b", Int(2)).Set("a", String("x"))
	want := `{a="x", b=2}`
	if got := d.String(); got != want {
		t.Fatalf("String() = %s, want %s", got, want)
	}
}
