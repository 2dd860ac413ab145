// Package assign implements the chunk-to-neighbor load balancing of PDR
// phase 2 (§IV-B).
//
// Each requested chunk must be fetched via some neighbor that has a
// route to it; the hop count d_ij of the route is the cost. Assigning
// every chunk to its nearest neighbor can overload one direction, so PDS
// balances by minimizing the maximum per-neighbor load Σ_j d_ij·x_ij — a
// max-min Generalized Assignment Problem, NP-hard in general. The paper
// uses (and we implement) the O(|N|·|C|²) heuristic: start from the
// least-hop assignment, then repeatedly move one chunk off the
// most-loaded neighbor to the alternative with the next-smallest hop
// count while that lowers the maximum load.
package assign

import (
	"sort"

	"pds/internal/wire"
)

// Option is one way to retrieve a chunk: via Neighbor at Hop hops.
type Option struct {
	Neighbor wire.NodeID
	Hop      int
}

// Request asks for an assignment of the chunks, where Options[i] lists
// the known routes for Chunks[i]. Chunks without options are returned in
// Unassigned.
type Request struct {
	Chunks  []int
	Options [][]Option
}

// Result is the computed assignment.
type Result struct {
	// ByNeighbor maps each used neighbor to the sorted chunk ids
	// assigned to it.
	ByNeighbor map[wire.NodeID][]int
	// Unassigned lists chunks with no route, sorted.
	Unassigned []int
	// MaxLoad is the maximum per-neighbor load (sum of hop counts of
	// assigned chunks) achieved.
	MaxLoad int
}

// loadOf is a helper computing Σ hops for a neighbor's chunk set.
type state struct {
	assign []int // index into Options[i] for each chunk, -1 = none
	load   map[wire.NodeID]int
}

// Balance computes the min-max assignment heuristically. Every chunk
// with at least one option is assigned to exactly one of its option
// neighbors (the §IV-B constraint Σ_i x_ij = 1 with x_ij ≤ e_ij,
// relaxed during rebalancing to any known route, exactly as the paper's
// "possibly next smallest hop count" move allows).
func Balance(req Request) Result {
	n := len(req.Chunks)
	st := state{assign: make([]int, n), load: make(map[wire.NodeID]int)}

	// Canonicalize option order: by hop count, then neighbor id.
	opts := make([][]Option, n)
	for i := range req.Chunks {
		o := append([]Option(nil), req.Options[i]...)
		sort.Slice(o, func(a, b int) bool {
			if o[a].Hop != o[b].Hop {
				return o[a].Hop < o[b].Hop
			}
			return o[a].Neighbor < o[b].Neighbor
		})
		opts[i] = o
	}

	// Initial assignment: least hop count; among ties pick the
	// currently least-loaded neighbor so the start is already spread.
	for i := range req.Chunks {
		if len(opts[i]) == 0 {
			st.assign[i] = -1
			continue
		}
		best := 0
		minHop := opts[i][0].Hop
		for j := 1; j < len(opts[i]); j++ {
			if opts[i][j].Hop != minHop {
				break
			}
			if st.load[opts[i][j].Neighbor] < st.load[opts[i][best].Neighbor] {
				best = j
			}
		}
		st.assign[i] = best
		st.load[opts[i][best].Neighbor] += weight(opts[i][best].Hop)
	}

	// Rebalance: move one chunk off the most loaded neighbor while that
	// strictly decreases the maximum load.
	for iter := 0; iter <= n*n; iter++ {
		hot, hotLoad := maxLoad(st.load)
		if hotLoad == 0 {
			break
		}
		bestChunk, bestOpt, bestNewMax := -1, -1, hotLoad
		for i := range req.Chunks {
			cur := st.assign[i]
			if cur < 0 || opts[i][cur].Neighbor != hot {
				continue
			}
			// Candidate: the alternative with the next-smallest hop.
			for j := range opts[i] {
				if opts[i][j].Neighbor == hot {
					continue
				}
				moved := st.load[opts[i][j].Neighbor] + weight(opts[i][j].Hop)
				relieved := hotLoad - weight(opts[i][cur].Hop)
				newMax := otherMax(st.load, hot, opts[i][j].Neighbor)
				if moved > newMax {
					newMax = moved
				}
				if relieved > newMax {
					newMax = relieved
				}
				if newMax < bestNewMax {
					bestNewMax, bestChunk, bestOpt = newMax, i, j
				}
				break // options are hop-sorted; the first alternative is the cheapest
			}
		}
		if bestChunk < 0 {
			break // no improving move: highest load no longer decreases
		}
		old := st.assign[bestChunk]
		st.load[opts[bestChunk][old].Neighbor] -= weight(opts[bestChunk][old].Hop)
		st.assign[bestChunk] = bestOpt
		st.load[opts[bestChunk][bestOpt].Neighbor] += weight(opts[bestChunk][bestOpt].Hop)
	}

	res := Result{ByNeighbor: make(map[wire.NodeID][]int)}
	for i, c := range req.Chunks {
		if st.assign[i] < 0 {
			res.Unassigned = append(res.Unassigned, c)
			continue
		}
		nb := opts[i][st.assign[i]].Neighbor
		res.ByNeighbor[nb] = append(res.ByNeighbor[nb], c)
	}
	for _, cs := range res.ByNeighbor {
		sort.Ints(cs)
	}
	sort.Ints(res.Unassigned)
	_, res.MaxLoad = maxLoad(st.load)
	return res
}

// weight converts a hop count to a load contribution. Local copies
// (hop 0) still cost one transmission to fetch, so weight is hop+1.
func weight(hop int) int { return hop + 1 }

func maxLoad(load map[wire.NodeID]int) (wire.NodeID, int) {
	var (
		hot  wire.NodeID
		best = -1
	)
	//lint:allow determinism argmax with a total-order tie-break on neighbor id; the result is iteration-order independent
	for nb, l := range load {
		if l > best || (l == best && nb < hot) {
			hot, best = nb, l
		}
	}
	if best < 0 {
		return 0, 0
	}
	return hot, best
}

// otherMax returns the maximum load over all neighbors except the two
// whose loads are changing.
func otherMax(load map[wire.NodeID]int, a, b wire.NodeID) int {
	best := 0
	for nb, l := range load {
		if nb != a && nb != b {
			best = max(best, l)
		}
	}
	return best
}

// NearestOnly returns the naive assignment used by the ablation bench:
// every chunk goes to its first least-hop neighbor with no balancing.
func NearestOnly(req Request) Result {
	res := Result{ByNeighbor: make(map[wire.NodeID][]int)}
	load := make(map[wire.NodeID]int)
	for i, c := range req.Chunks {
		if len(req.Options[i]) == 0 {
			res.Unassigned = append(res.Unassigned, c)
			continue
		}
		best := req.Options[i][0]
		for _, o := range req.Options[i][1:] {
			if o.Hop < best.Hop || (o.Hop == best.Hop && o.Neighbor < best.Neighbor) {
				best = o
			}
		}
		res.ByNeighbor[best.Neighbor] = append(res.ByNeighbor[best.Neighbor], c)
		load[best.Neighbor] += weight(best.Hop)
	}
	for _, cs := range res.ByNeighbor {
		sort.Ints(cs)
	}
	sort.Ints(res.Unassigned)
	_, res.MaxLoad = maxLoad(load)
	return res
}
