// Package fixture exercises the allocfree analyzer: annotated hot-path
// functions with every flagged construct, plus alloc-free shapes that
// must stay silent.
package fixture

import (
	"fmt"
	"slices"
	"sort"
)

type medium struct {
	active int
	nodes  map[int]*radio
	rxCand []*radio
}

type radio struct {
	id   int
	recs []int64
}

// busyUntil is on the analyzer's seeded list; the radio shipped it
// without the annotation.
//
// history: b13fc01 internal/radio/radio.go:440
func (m *medium) busyUntil(r *radio) int64 { // want "seeded hot path busyUntil lacks the //pds:hotpath annotation"
	if m.active == 0 {
		return 0
	}
	var until int64
	for _, rec := range r.recs {
		until = max(until, rec)
	}
	return until
}

// The medium sorted a fresh slice of every node id for each frame it
// delivered.
//
// history: 89c9108 internal/radio/radio.go:524
//
//pds:hotpath
func (m *medium) finishTransmission() {
	ids := make([]int, 0, len(m.nodes)) // want "make in hot path finishTransmission allocates"
	for id := range m.nodes {
		ids = append(ids, id)
	}
	slices.Sort(ids)
}

// Reusing the candidate buffer did not save the frame: sort.Slice's
// any parameter boxed the slice header on every call.
//
// history: 86e82c5 internal/radio/radio.go:630
//
//pds:hotpath
func (m *medium) deliver(cand []*radio) {
	cand = append(m.rxCand[:0], cand...)
	sort.Slice(cand, func(i, j int) bool { return cand[i].id < cand[j].id }) // want "interface boxing of non-pointer value in hot path deliver"
}

type sink interface{ accept(v any) }

//pds:hotpath
func boxing(s sink, m *medium, v int, name string) {
	s.accept(v)       // want "interface boxing of non-pointer value in hot path boxing"
	s.accept(m)       // fine: pointers fit the interface word
	fmt.Println(name) // want "interface boxing of non-pointer value in hot path boxing"
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

// The error return is the cold path: fmt.Errorf's operands inside a
// return may box, and appends to caller-managed buffers are the point.
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

// The generic slices.SortFunc keeps the slice monomorphic.
//
//pds:hotpath
func order(xs []int) {
	slices.SortFunc(xs, func(a, b int) int { return a - b })
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
func coldPath(n int) []int { return make([]int, n) }
