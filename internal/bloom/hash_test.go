package bloom

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// hashPairFNV is hashPair as it was written over hash/fnv — two passes
// through a hash.Hash64 — kept as the reference the one-loop version
// must equal bit for bit: a different bit position would change which
// entries every filter on the air suppresses.
func hashPairFNV(salt uint64, key string) (uint64, uint64) {
	h := fnv.New64a()
	var saltBuf [8]byte
	binary.BigEndian.PutUint64(saltBuf[:], salt)
	h.Write(saltBuf[:])
	h.Write([]byte(key))
	h1 := h.Sum64()
	h.Reset()
	h.Write([]byte{0xd6})
	h.Write(saltBuf[:])
	h.Write([]byte(key))
	return h1, h.Sum64() | 1
}

func checkHashPair(t *testing.T, salt uint64, key string) {
	t.Helper()
	f := New(64, 3, salt)
	h1, h2 := f.hashPair(key)
	w1, w2 := hashPairFNV(salt, key)
	if h1 != w1 || h2 != w2 {
		t.Fatalf("hashPair(salt %#x, %q) = (%#x, %#x), hash/fnv gives (%#x, %#x)", salt, key, h1, h2, w1, w2)
	}
}

func TestHashPairEqualsFNV(t *testing.T) {
	salts := []uint64{0, 1, 0xd6, 0xff, 1 << 8, 1 << 56, 0x0123456789abcdef, ^uint64(0)}
	rng := rand.New(rand.NewSource(1))
	for n := 0; n <= 300; n++ {
		key := make([]byte, n)
		rng.Read(key)
		for _, salt := range append(salts, rng.Uint64()) {
			checkHashPair(t, salt, string(key))
			checkHashPair(t, salt, strings.Repeat("\xff", n))
		}
	}
}

func FuzzHashPair(f *testing.F) {
	f.Add(uint64(0), "")
	f.Add(uint64(7), "namespace\x03env")
	f.Add(^uint64(0), strings.Repeat("k", 300))
	f.Fuzz(func(t *testing.T, salt uint64, key string) { checkHashPair(t, salt, key) })
}

// TestOverloadedMemo: Overloaded — a comparison against a threshold
// fixed by the geometry — is the direct formula's answer at every count
// from empty to past full, on a built, a cloned and a decoded filter
// alike; it turns true once and leaves the filter's bytes as they were.
func TestOverloadedMemo(t *testing.T) {
	direct := func(f *Filter) bool { return f.EstimatedFPR() > 0.25 }
	for _, geom := range [][2]uint64{{8, 1}, {64, 2}, {64, 7}, {1024, 4}, {4808, 3}, {MaxBits, 9}, {MaxBits, 1}} {
		f := New(geom[0], uint32(geom[1]), 11)
		f.Add("k")
		g, rest, err := Decode(f.AppendBinary(nil))
		if err != nil || len(rest) != 0 {
			t.Fatal(err)
		}
		for name, f := range map[string]*Filter{"built": f, "cloned": f.Clone(), "decoded": g} {
			before, flips, last := *f, 0, false
			for c := uint64(0); c <= geom[0]+3; c++ {
				if f.count = c; c == geom[0]+3 {
					f.count = 1 << 62
				}
				got := f.Overloaded()
				if got != direct(f) {
					t.Fatalf("%s, geometry %v, count %d: Overloaded %v, formula %v", name, geom, f.count, got, direct(f))
				}
				if got != last {
					flips, last = flips+1, got
				}
			}
			if flips != 1 || !last {
				t.Fatalf("%s, geometry %v: the answer changed %d times and ended %v", name, geom, flips, last)
			}
			if f.count = before.count; !reflect.DeepEqual(*f, before) {
				t.Fatalf("%s, geometry %v: Overloaded wrote to the filter", name, geom)
			}
		}
	}
	// A hash count of 0 only comes off the wire; the formula reads 1.
	zero, _, err := Decode([]byte{8, 0, 0, 0, 0})
	if err != nil || !zero.Overloaded() || !direct(zero) {
		t.Fatalf("zero hashes: %v", err)
	}
}

func TestFilterOpsDoNotAllocate(t *testing.T) {
	f := NewForCapacity(320, 0.01, 5)
	key := strings.Repeat("descriptor-key/", 5)
	f.Add(key)
	for name, op := range map[string]func(){
		"Contains hit":  func() { f.Contains(key) },
		"Contains miss": func() { f.Contains(key[1:]) },
		"Add":           func() { f.Add(key) },
		"Overloaded":    func() { f.Overloaded() },
	} {
		if got := testing.AllocsPerRun(100, op); got != 0 {
			t.Errorf("%s: %v allocs", name, got)
		}
	}
}

var sinkBool bool

// BenchmarkBloomContains is one Offer's filter test at the flood's
// shape: a filter sized for 320 entries, a descriptor key of ~70 bytes.
func BenchmarkBloomContains(b *testing.B) {
	f := NewForCapacity(320, 0.01, 5)
	keys := make([]string, 320)
	for i := range keys {
		keys[i] = fmt.Sprintf("\x08datatype\x01\x03nox\x04name\x01\x07s%06d\x09namespace\x01\x03env\x04time\x02%08d", i, i)
		f.Add(keys[i])
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkBool = f.Contains(keys[i%len(keys)])
	}
}
