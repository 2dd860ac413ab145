// Package fixture exercises the allocfree analyzer: annotated hot-path
// functions with every flagged construct, plus alloc-free shapes that
// must stay silent.
package fixture

import (
	"fmt"
	"slices"
	"sort"
)

type codec struct {
	buf   []byte
	stats map[string]int
}

// seededEncode is on the analyzer's seeded list but lacks the
// annotation.
func seededEncode(dst []byte) []byte { // want "seeded hot path seededEncode lacks the //pds:hotpath annotation"
	return dst
}

//pds:hotpath
func allocsEverywhere(c *codec, name string, n int) {
	m := make([]int, n) // want "make in hot path allocsEverywhere allocates"
	_ = m
	p := new(codec)       // want "new in hot path allocsEverywhere allocates"
	q := &codec{}         // want "composite literal allocates in hot path allocsEverywhere"
	s := []int{1, 2}      // want "composite literal allocates in hot path allocsEverywhere"
	go func() { _ = s }() // want "go statement in hot path allocsEverywhere" "closure literal in hot path allocsEverywhere"
	_ = name + "!"        // want "runtime string concatenation in hot path allocsEverywhere"
	_ = []byte(name)      // want "conversion in hot path allocsEverywhere copies"
	fmt.Println(name)     // want "fmt.Println in hot path allocsEverywhere allocates"
	_, _ = p, q
}

//pds:hotpath
func appendProvenance(c *codec, dst []byte, vals []int) []byte {
	vals = append(vals[:0], 1) // fine: the parameter's own backing array
	tmp := lookup()
	tmp = append(tmp, 2) // want "append in hot path appendProvenance has unknown capacity provenance"
	c.buf = append(c.buf, 3)
	return append(dst, c.buf...)
}

func lookup() []int { return nil }

type sink interface{ accept(v any) }

//pds:hotpath
func boxing(s sink, c *codec, v int) {
	s.accept(v) // want "interface boxing of non-pointer value in hot path boxing"
	s.accept(c) // fine: pointers fit the interface word
}

// A size taken by encoding into a throwaway buffer allocates on every
// call; the filter's EncodedSize now sums the field widths.
//
// history: 86e82c5 internal/bloom/bloom.go:193
//
//pds:hotpath
func (f *filter) EncodedSize() int { return len(f.AppendBinary(nil)) } // want "AppendBinary.nil. in hot path EncodedSize allocates a fresh slice"

type filter struct{ bits []uint64 }

// AppendBinary appends the wire form.
func (f *filter) AppendBinary(dst []byte) []byte { return append(dst, byte(len(f.bits))) }

// --- Non-findings ----------------------------------------------------

// The error return is the cold path: fmt.Errorf inside a return stays
// allowed, as do plain appends to caller-managed buffers.
//
//pds:hotpath
func encode(dst []byte, v uint64, bad bool) ([]byte, error) {
	if bad {
		return nil, fmt.Errorf("encode: bad value %d", v)
	}
	for v >= 0x80 {
		dst = append(dst, byte(v)|0x80)
		v >>= 7
	}
	dst = append(dst, byte(v))
	return dst, nil
}

// Sort comparators passed directly to sort/slices never escape; the
// generic slices.SortFunc keeps the slice monomorphic too.
//
//pds:hotpath
func order(xs []int) {
	slices.SortFunc(xs, func(a, b int) int { return a - b })
}

// sort.Slice's any parameter boxes the slice header on every call —
// the closure itself is exempt, the boxing is not.
//
//pds:hotpath
func orderBoxed(xs []int) {
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] }) // want "interface boxing of non-pointer value in hot path orderBoxed"
}

// A disabled-path wrapper: the nil guard is the hot path, the enabled
// body may allocate freely.
//
//pds:hotpath
func (c *codec) count(name string) {
	if c == nil {
		return
	}
	c.stats[name+"!"]++
}

// Locally constructed slices are flagged at the creation site only;
// appending to them afterwards is not a second finding.
//
//pds:hotpath
func localAppend(n int) []int {
	out := make([]int, 0, n) // want "make in hot path localAppend allocates"
	for i := 0; i < n; i++ {
		out = append(out, i)
	}
	return out
}

// The audited escape hatch: suppressed at Run time, still visible to
// the fixture's raw-diagnostic check.
//
//pds:hotpath
func auditedAlloc() []byte {
	//lint:allow allocfree one-time warmup buffer, amortized across the run
	return make([]byte, 1024) // want "make in hot path auditedAlloc allocates"
}

// Unannotated functions are never scanned.
func coldPath(name string) string { return name + name }

// Value struct literals stay on the stack (spatial's Cell map keys).
type cellKey struct{ x, y int32 }

//pds:hotpath
func valueLit(m map[cellKey]int, x, y int32) int {
	return m[cellKey{x: x, y: y}]
}
