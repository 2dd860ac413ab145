package core

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"pds/internal/attr"
	"pds/internal/store"
	"pds/internal/wire"
)

// cdiPairsByMap and missingByMap are the cdiPairsFor and missing bodies
// the scratch reads replaced — a map from chunk id to hop count, local
// chunks written last; a set of held ids probed for every id below
// total — kept as the reference the merge and the gap scan are held to.
func (n *Node) cdiPairsByMap(itemKey string, now time.Duration) []wire.CDIPair {
	local := n.ds.ChunksHeld(itemKey)
	pairs := n.cdi.AppendPairs(nil, itemKey, now)
	merged := make(map[int]int, len(local)+len(pairs))
	for _, p := range pairs {
		merged[p.ChunkID] = p.HopCount
	}
	for _, c := range local {
		merged[c] = 0
	}
	out := make([]wire.CDIPair, 0, len(merged))
	for c, h := range merged {
		out = append(out, wire.CDIPair{ChunkID: c, HopCount: h})
	}
	slices.SortFunc(out, func(a, b wire.CDIPair) int { return cmp.Compare(a.ChunkID, b.ChunkID) })
	return out
}

func (r *retrieval) missingByMap() []int {
	held := make(map[int]bool)
	for _, c := range r.n.ds.ChunksHeld(r.itemKey) {
		held[c] = true
	}
	var out []int
	for c := 0; c < r.total; c++ {
		if !held[c] {
			out = append(out, c)
		}
	}
	return out
}

// cdiItem is an item of total chunks, in the scenarios' descriptor shape.
func cdiItem(total int) attr.Descriptor {
	return testEntry(0).Set(attr.AttrTotalChunks, attr.Int(int64(total)))
}

// TestCDIPairsMatchMapMerge drives random local chunk sets (owned,
// cached, some ids at or past total) and CDI rows (overlapping the local
// set, expiring at random) through a node, and holds cdiPairsFor,
// missing and complete to the map-based bodies they replaced after every
// step. Every response slice handed out earlier must still read as it
// did: none aliases the node's scratch.
func TestCDIPairsMatchMapMerge(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p := newPassNode(DefaultConfig())
		n, total := p.n, 1+rng.Intn(12)
		item := cdiItem(total)
		itemKey := item.Key()
		r := &retrieval{n: n, item: item, itemKey: itemKey, total: total}
		var outs, wants [][]wire.CDIPair
		for step := 0; step < 60; step++ {
			c := rng.Intn(total + 3)
			now := time.Duration(rng.Intn(40)) * time.Second
			switch rng.Intn(5) {
			case 0:
				n.ds.PutPayloadOwned(item.WithChunk(c), []byte{1})
			case 1:
				n.ds.PutPayloadCached(item.WithChunk(c), []byte{2}, now, now+time.Minute)
			case 2:
				n.ds.DeleteOwned(item.WithChunk(c))
			default:
				n.cdi.Update(itemKey, store.CDIEntry{ChunkID: c, HopCount: 1 + rng.Intn(4),
					Neighbor: wire.NodeID(1 + rng.Intn(3)), ExpireAt: time.Duration(rng.Intn(40)) * time.Second})
			}
			where := fmt.Sprintf("seed %d step %d", seed, step)
			got, want := n.cdiPairsFor(itemKey, now), n.cdiPairsByMap(itemKey, now)
			if !slices.Equal(got, want) {
				t.Fatalf("%s: cdiPairsFor\n got %v\nwant %v", where, got, want)
			}
			outs, wants = append(outs, got), append(wants, want)
			if gaps, want := r.missing(), r.missingByMap(); !slices.Equal(gaps, want) {
				t.Fatalf("%s: missing\n got %v\nwant %v", where, gaps, want)
			} else if r.complete() != (len(want) == 0) {
				t.Fatalf("%s: complete %v with %v missing", where, r.complete(), want)
			}
		}
		for i := range outs {
			if !slices.Equal(outs[i], wants[i]) {
				t.Fatalf("seed %d: response %d changed after it was handed out: %v, was %v", seed, i, outs[i], wants[i])
			}
		}
	}
}

// newCDINode returns a node holding 4 of an item's 10 chunks, with CDI
// routes for the other six, two neighbors apiece, and a retrieval of the
// item; the read paths are warmed once.
func newCDINode() (*Node, *retrieval) {
	n := newPassNode(DefaultConfig()).n
	item := cdiItem(10)
	itemKey := item.Key()
	for c := 0; c < 10; c++ {
		if c%3 == 0 {
			n.ds.PutPayloadOwned(item.WithChunk(c), []byte{byte(c)})
			continue
		}
		for nb := wire.NodeID(1); nb <= 2; nb++ {
			n.cdi.Update(itemKey, store.CDIEntry{ChunkID: c, HopCount: 1 + c%2, Neighbor: nb, ExpireAt: time.Hour})
		}
	}
	r := &retrieval{n: n, item: item, itemKey: itemKey, total: 10}
	n.cdiPairsFor(itemKey, 0)
	r.missing()
	return n, r
}

// TestCDIReadsAllocate: a warm cdiPairsFor allocates the response's
// slice and nothing else; a warm missing and complete, nothing.
func TestCDIReadsAllocate(t *testing.T) {
	n, r := newCDINode()
	if got := n.cdiPairsFor(r.itemKey, 0); len(got) != 10 {
		t.Fatalf("cdiPairsFor = %v, want 10 pairs", got)
	}
	if got := testing.AllocsPerRun(50, func() { n.cdiPairsFor(r.itemKey, 0) }); got != 1 {
		t.Errorf("warm cdiPairsFor: %v allocs, want 1", got)
	}
	if got := testing.AllocsPerRun(50, func() { r.missing() }); got != 0 {
		t.Errorf("warm missing: %v allocs", got)
	}
	if got := testing.AllocsPerRun(50, func() { r.complete() }); got != 0 {
		t.Errorf("complete: %v allocs", got)
	}
}

// BenchmarkCDIPairs is one CDI response's contents at a node holding 4
// of 10 chunks, with routes for the rest.
func BenchmarkCDIPairs(b *testing.B) {
	n, r := newCDINode()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.cdiPairsFor(r.itemKey, 0)
	}
}
