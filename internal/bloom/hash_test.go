package bloom

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand"
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

// TestOverloadedMemo: the remembered answer is the direct formula's at
// every count an Add sequence passes through — asked once, twice or
// only now and then — and a clone or a decoded copy, which start with
// nothing remembered, agree with the filter they came from.
func TestOverloadedMemo(t *testing.T) {
	direct := func(f *Filter) bool { return f.EstimatedFPR() > 0.25 }
	for _, geom := range [][2]uint64{{8, 1}, {64, 2}, {64, 7}, {1024, 4}, {MaxBits, 9}} {
		f := New(geom[0], uint32(geom[1]), 11)
		flips, last := 0, f.Overloaded()
		for i := 0; i < 3000; i++ {
			f.Add(fmt.Sprintf("k%d", i))
			if i%3 == 0 {
				continue // the count moved with nobody asking
			}
			if f.Overloaded() != direct(f) || f.Overloaded() != direct(f) {
				t.Fatalf("geometry %v count %d: memo %v, formula %v", geom, f.Count(), f.Overloaded(), direct(f))
			}
			if f.Overloaded() != last {
				flips, last = flips+1, !last
			}
			if i%97 == 0 {
				g, rest, err := Decode(f.AppendBinary(nil))
				if err != nil || len(rest) != 0 {
					t.Fatal(err)
				}
				if c := f.Clone(); c.Overloaded() != direct(f) || g.Overloaded() != direct(f) {
					t.Fatalf("geometry %v count %d: clone/decoded copy disagree", geom, f.Count())
				}
			}
		}
		if geom[0] <= 1024 && flips != 1 {
			t.Fatalf("geometry %v: answer flipped %d times over the run, want once", geom, flips)
		}
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
