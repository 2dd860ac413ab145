// Package spatial provides a uniform-grid spatial index for the radio
// medium. Nodes are dense int32 ids; the grid buckets them into square
// cells by the position they were inserted or moved to, so that "who
// could be within radius r of point p" scans only the 3×3 cell
// neighborhood around p instead of every node — the change that takes
// city-scale neighbor queries from O(nodes) to O(local density). The
// grid holds cell membership only, never positions: the caller keeps
// each node's position and does the distance filtering.
//
// The cell edge must be at least the largest query radius: then every
// point within that radius of p lies in one of the nine cells around
// p's cell, so the neighborhood visit yields a superset of any in-range
// set and callers only distance-filter.
//
// Determinism contract (enforced by pds-lint's strict mode for this
// package): no code here ranges over a map. Cells are reached by
// computed key lookup, and the fixed dx/dy scan order plus append /
// swap-remove slice maintenance make the visit order a pure function of
// the operation history, which is itself seed-deterministic.
package spatial

import "math"

// Cell identifies a grid cell by its integer coordinates.
type Cell struct {
	X, Y int32
}

// Grid is a uniform-grid index of dense int32 ids by cell. The zero
// value is not usable; construct with NewGrid. Not safe for concurrent
// use.
type Grid struct {
	inv   float64 // 1 / cell edge length
	cells map[Cell][]int32

	// Dense per-id state, indexed by id. A node's entry is live iff
	// slot[id] >= 0.
	home []Cell
	slot []int32 // index within cells[home[id]], or -1 when absent
}

// NewGrid returns a grid with the given cell edge length, which must be
// positive and at least the largest radius ever passed to in-range
// queries built on VisitNeighborhood.
func NewGrid(cellSize float64) *Grid {
	if !(cellSize > 0) {
		panic("spatial: cell size must be positive")
	}
	return &Grid{inv: 1 / cellSize, cells: make(map[Cell][]int32)}
}

// CellOf returns the cell containing the point.
func (g *Grid) CellOf(x, y float64) Cell {
	return Cell{
		X: int32(math.Floor(x * g.inv)),
		Y: int32(math.Floor(y * g.inv)),
	}
}

// grow extends the dense arrays to cover id.
func (g *Grid) grow(id int32) {
	for int32(len(g.slot)) <= id {
		g.home = append(g.home, Cell{})
		g.slot = append(g.slot, -1)
	}
}

// Contains reports whether id is currently indexed.
func (g *Grid) Contains(id int32) bool {
	return id >= 0 && id < int32(len(g.slot)) && g.slot[id] >= 0
}

// Insert adds id to the cell holding (x, y). It panics if id is
// negative or already present — a double insert means the caller's id
// allocation is broken.
func (g *Grid) Insert(id int32, x, y float64) {
	if id < 0 {
		panic("spatial: negative id")
	}
	g.grow(id)
	if g.slot[id] >= 0 {
		panic("spatial: duplicate insert")
	}
	g.put(id, g.CellOf(x, y))
}

// put appends the absent id to cell c's bucket.
func (g *Grid) put(id int32, c Cell) {
	g.home[id] = c
	bucket := g.cells[c]
	g.slot[id] = int32(len(bucket))
	g.cells[c] = append(bucket, id)
}

// Remove deletes id from the index. It panics if id is absent.
func (g *Grid) Remove(id int32) {
	if !g.Contains(id) {
		panic("spatial: remove of absent id")
	}
	c := g.home[id]
	bucket := g.cells[c]
	i := g.slot[id]
	last := int32(len(bucket)) - 1
	moved := bucket[last]
	bucket[i] = moved
	g.slot[moved] = i
	// An emptied bucket stays, capacity and all: the next node to enter
	// the cell reuses it instead of allocating a new one.
	g.cells[c] = bucket[:last]
	g.slot[id] = -1
}

// Move re-homes id to the cell holding (x, y) when that is not its
// cell already; the common same-cell move writes nothing. It panics if
// id is absent.
//
//pds:hotpath
func (g *Grid) Move(id int32, x, y float64) {
	if !g.Contains(id) {
		panic("spatial: move of absent id")
	}
	c := g.CellOf(x, y)
	if c == g.home[id] {
		return
	}
	g.Remove(id)
	g.put(id, c)
}

// VisitNeighborhood calls fn for every id in the 3×3 cell block
// centered on the cell containing (x, y). Cells are scanned in fixed
// dx, dy order and each cell's bucket in slice order, so the sequence
// of callbacks is fully determined by the operation history. fn must
// not mutate the grid.
//
//pds:hotpath
func (g *Grid) VisitNeighborhood(x, y float64, fn func(id int32)) {
	c := g.CellOf(x, y)
	for dy := int32(-1); dy <= 1; dy++ {
		for dx := int32(-1); dx <= 1; dx++ {
			bucket := g.cells[Cell{X: c.X + dx, Y: c.Y + dy}]
			for _, id := range bucket {
				fn(id)
			}
		}
	}
}

// AppendNeighborhood appends the ids of the 3×3 cell block centered on
// the cell containing (x, y) to dst and returns it — the allocation-free
// form of VisitNeighborhood for hot query paths.
//
//pds:hotpath
func (g *Grid) AppendNeighborhood(x, y float64, dst []int32) []int32 {
	c := g.CellOf(x, y)
	for dy := int32(-1); dy <= 1; dy++ {
		for dx := int32(-1); dx <= 1; dx++ {
			dst = append(dst, g.cells[Cell{X: c.X + dx, Y: c.Y + dy}]...)
		}
	}
	return dst
}

// Len returns the number of indexed ids.
func (g *Grid) Len() int {
	n := 0
	for _, s := range g.slot {
		if s >= 0 {
			n++
		}
	}
	return n
}
