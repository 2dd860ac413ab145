package spatial

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// naive is the obvious O(n) reference: a flat list of (id, x, y).
type naive struct {
	ids  []int32
	x, y map[int32]float64
}

func newNaive() *naive {
	return &naive{x: make(map[int32]float64), y: make(map[int32]float64)}
}

func (n *naive) insert(id int32, x, y float64) {
	n.ids = append(n.ids, id)
	n.x[id], n.y[id] = x, y
}

func (n *naive) remove(id int32) {
	for i, v := range n.ids {
		if v == id {
			n.ids = append(n.ids[:i], n.ids[i+1:]...)
			break
		}
	}
	delete(n.x, id)
	delete(n.y, id)
}

func (n *naive) inRange(x, y, r float64) []int32 {
	var out []int32
	for _, id := range n.ids {
		dx, dy := n.x[id]-x, n.y[id]-y
		if math.Hypot(dx, dy) <= r {
			out = append(out, id)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// sortedInRange is the grid's query as its callers make it: the ids of
// the 3×3 block, filtered by distance. The grid keeps no positions, so
// they come from the reference model, which tracks the same moves.
func sortedInRange(g *Grid, ref *naive, x, y, r float64) []int32 {
	var out []int32
	g.VisitNeighborhood(x, y, func(id int32) {
		if math.Hypot(ref.x[id]-x, ref.y[id]-y) <= r {
			out = append(out, id)
		}
	})
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// TestGridMatchesNaive runs a randomized insert/move/remove workload
// and checks that every in-range query (radius <= cell size) agrees
// with the brute-force reference, including for points near cell
// boundaries and negative coordinates.
func TestGridMatchesNaive(t *testing.T) {
	const cell = 50.0
	rng := rand.New(rand.NewSource(42))
	g := NewGrid(cell)
	ref := newNaive()
	present := map[int32]bool{}
	var next int32

	pos := func() (float64, float64) {
		// Spread across negative and positive coordinates to cover
		// floor-division cell math.
		return rng.Float64()*800 - 400, rng.Float64()*800 - 400
	}

	for op := 0; op < 4000; op++ {
		switch r := rng.Intn(10); {
		case r < 4 || len(present) == 0:
			x, y := pos()
			g.Insert(next, x, y)
			ref.insert(next, x, y)
			present[next] = true
			next++
		case r < 7:
			id := int32(rng.Intn(int(next)))
			if !present[id] {
				continue
			}
			x, y := pos()
			g.Move(id, x, y)
			ref.remove(id)
			ref.insert(id, x, y)
		case r < 8:
			id := int32(rng.Intn(int(next)))
			if !present[id] {
				continue
			}
			g.Remove(id)
			ref.remove(id)
			delete(present, id)
		default:
			x, y := pos()
			radius := rng.Float64() * cell
			got := sortedInRange(g, ref, x, y, radius)
			want := ref.inRange(x, y, radius)
			if len(got) != len(want) {
				t.Fatalf("op %d: got %v, want %v", op, got, want)
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("op %d: got %v, want %v", op, got, want)
				}
			}
		}
	}
	if g.Len() != len(present) {
		t.Fatalf("Len = %d, want %d", g.Len(), len(present))
	}
}

func TestGridPanics(t *testing.T) {
	expectPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: no panic", name)
			}
		}()
		f()
	}
	g := NewGrid(10)
	g.Insert(3, 1, 1)
	expectPanic("duplicate insert", func() { g.Insert(3, 2, 2) })
	expectPanic("negative id", func() { g.Insert(-1, 0, 0) })
	expectPanic("remove absent", func() { g.Remove(7) })
	expectPanic("move absent", func() { g.Move(7, 0, 0) })
	expectPanic("zero cell", func() { NewGrid(0) })
}

func TestGridSameCellMoveKeepsSlot(t *testing.T) {
	g := NewGrid(100)
	g.Insert(0, 10, 10)
	g.Insert(1, 20, 20)
	g.Move(0, 30, 30) // same cell: must not reorder the bucket
	var order []int32
	g.VisitNeighborhood(15, 15, func(id int32) { order = append(order, id) })
	if len(order) != 2 || order[0] != 0 || order[1] != 1 {
		t.Fatalf("bucket order %v, want [0 1]", order)
	}
	if c := g.home[0]; c != g.CellOf(30, 30) || c != g.CellOf(10, 10) {
		t.Fatalf("home cell %v, want %v", c, g.CellOf(30, 30))
	}
	g.Move(0, 150, 30) // the next cell over
	if c := g.home[0]; c != g.CellOf(150, 30) {
		t.Fatalf("home cell after a cross-cell move %v, want %v", c, g.CellOf(150, 30))
	}
}
