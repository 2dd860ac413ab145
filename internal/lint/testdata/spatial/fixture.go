// Package fixture exercises the determinism analyzer's strict mode for
// the spatial index: here ANY range over a map is flagged, including
// commutative-accumulation shapes the general rule accepts elsewhere.
package fixture

// countBuckets is safe under the general rule (a pure counter), but
// the spatial package bans the construct outright.
func countBuckets(cells map[int][]int32) int {
	n := 0
	for range cells { // want "map iteration order is random"
		n++
	}
	return n
}

// collectSorted would pass the collect-then-sort idiom elsewhere; in
// strict mode it is still flagged.
func keysOf(cells map[int][]int32) []int {
	var keys []int
	for c := range cells { // want "map iteration order is random"
		keys = append(keys, c)
	}
	return keys
}

// Map lookups, inserts and deletes remain fine — only iteration order
// is the hazard.
func touch(cells map[int][]int32, c int, v int32) {
	cells[c] = append(cells[c], v)
	if len(cells[c]) > 8 {
		delete(cells, c)
	}
}
