// Package fixture exercises the determinism analyzer.
package fixture

import (
	"sort"
	"time"
)

// Wall-clock reads diverge between runs: the real clock read the wall
// inside the deterministic core until its bridge was audited with a
// //lint:allow.
type Real struct{ epoch time.Time }

// history: 3a8a4ef internal/clock/clock.go:33
func NewReal() *Real {
	return &Real{epoch: time.Now()} // want "time.Now reads the wall clock"
}

// history: 3a8a4ef internal/clock/clock.go:37
func (r *Real) Now() time.Duration { return time.Since(r.epoch) } // want "time.Since reads the wall clock"

// Map iteration feeding an ordered sink is order-sensitive.
func mapOrderLeak(m map[int]string, sink func(string)) {
	for _, v := range m { // want "map iteration order is random"
		sink(v)
	}
}

func mapArgmax(m map[string]int) string {
	best, bestK := -1, ""
	for k, v := range m { // want "map iteration order is random"
		if v > best {
			best, bestK = v, k
		}
	}
	return bestK
}

// Commutative accumulation is order-insensitive.
func mapCount(m map[int]string) (n int, total int) {
	for k, v := range m {
		n++
		total += k + len(v)
	}
	return n, total
}

// A min/max fold reaches the same value in any order; picking the
// extreme some other way, or keeping which entry held it, does not.
func mapEarliest(m map[string]int) (lo, hi int) {
	for _, v := range m {
		lo = min(lo, v)
		hi = max(hi, v, 0)
	}
	return lo, hi
}

func mapLastSmaller(m map[string]int, lo int) int {
	for _, v := range m { // want "map iteration order is random"
		lo = min(v, 10)
	}
	return lo
}

// Inserting into another map and deleting are order-insensitive.
func mapTransfer(src map[int]int, dst map[int]int) {
	for k, v := range src {
		if v > 0 {
			dst[k] = v
		}
		delete(src, k)
	}
}

// Collect-then-sort is the canonical deterministic iteration idiom.
func mapSorted(m map[int]string, sink func(int)) {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	for _, k := range keys {
		sink(k)
	}
}

// Append-style: what was collected is the tail of dst, sorted as such.
func mapAppendedSorted(dst []int, m map[int]string) []int {
	from := len(dst)
	for k := range m {
		dst = append(dst, k)
	}
	sort.Ints(dst[from:])
	return dst
}

// Collecting without sorting leaks map order into the result: the
// link handed its give-up callback the unacked receivers in map order.
//
// history: 3a8a4ef internal/link/link.go:487
func giveUp(remaining map[uint32]bool, onGiveUp func([]uint32)) {
	unacked := make([]uint32, 0, len(remaining))
	for id := range remaining { // want "map iteration order is random"
		unacked = append(unacked, id)
	}
	onGiveUp(unacked)
}

// Early return of constants is the quantifier shape: whichever entry
// triggers it, the result is identical.
func allPositive(m map[string]int) bool {
	for _, v := range m {
		if v <= 0 {
			return false
		}
	}
	return true
}

// Early return of a non-constant leaks which entry was seen first.
func anyKey(m map[string]int) string {
	for k := range m { // want "map iteration order is random"
		return k
	}
	return ""
}

// break at the map level stops at an order-dependent element.
func mapBreak(m map[string]int) {
	n := 0
	for range m { // want "map iteration order is random"
		n++
		if n > 3 {
			break
		}
	}
}

// Per-entry rewrites: each iteration only touches its own entry's
// state (the value variable, body-locals, nested slice scans with
// break, in-place sorts), so order cannot leak.
func perEntryRewrite(m map[string][]int, expired func(int) bool) {
	for key, vals := range m {
		kept := vals[:0]
		for _, v := range vals {
			if expired(v) {
				continue
			}
			kept = append(kept, v)
			if len(kept) > 8 {
				break
			}
		}
		sort.Ints(kept)
		if len(kept) == 0 {
			delete(m, key)
		} else {
			m[key] = kept
		}
	}
}

// Writes through a pointer-typed range value update that entry alone.
type record struct{ done bool }

func markAll(m map[int]*record) {
	for _, r := range m {
		r.done = true
	}
}

// The audited escape hatch: a justified //lint:allow silences the
// finding at Run time while the raw diagnostic stays visible here.
func throughputClock() int64 {
	//lint:allow determinism wall-clock here measures harness throughput, never simulated behavior
	return time.Now().UnixNano() // want "time.Now reads the wall clock"
}
