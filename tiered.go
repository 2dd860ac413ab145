package pds

// Tiered retrieval: the deployment-plane fallback ladder around the
// paper's two-phase PDR. A tiered retrieval tries the cheapest source
// first and escalates only for the chunks still missing:
//
//	local cache → P2P swarm (PDR) → origin
//
// With an origin configured the P2P tier gets a slice of the caller's
// time budget, so a dead swarm cannot eat the whole retrieval window
// before the origin gets its turn. The result attributes every chunk
// to the tier that served it — mirrored into the trace (ChunkTier
// events) and the metrics plane (metrics.TierCounters) so pds-trace
// and pds-node show where the bytes actually came from.

import (
	"context"
	"fmt"
	"sort"
	"time"

	"pds/internal/core"
	"pds/internal/metrics"
)

// Tier identifies which rung of the fallback ladder produced a chunk.
type Tier uint8

const (
	// TierNone marks a chunk no tier produced (missing).
	TierNone Tier = iota
	// TierLocal: the chunk was already in the local store.
	TierLocal
	// TierP2P: the chunk arrived through the P2P protocol (PDR).
	TierP2P
	// TierOrigin: the chunk was fetched from the origin backend.
	TierOrigin
)

// Tier note strings as they appear in ChunkTier trace events.
const (
	tierNoteMissing = "missing"
	tierNoteLocal   = "local"
	tierNoteP2P     = "p2p"
	tierNoteOrigin  = "origin"
)

func (t Tier) String() string {
	switch t {
	case TierLocal:
		return tierNoteLocal
	case TierP2P:
		return tierNoteP2P
	case TierOrigin:
		return tierNoteOrigin
	default:
		return tierNoteMissing
	}
}

// TieredResult is the outcome of RetrieveTiered.
type TieredResult struct {
	// Item is the retrieved item's descriptor.
	Item Descriptor
	// Chunks maps chunk id to payload for every chunk obtained.
	Chunks map[int][]byte
	// TierOf records, per obtained chunk, the tier that served it.
	TierOf map[int]Tier
	// Missing enumerates chunk ids no tier produced, sorted.
	Missing []int
	// Complete reports whether every chunk was obtained.
	Complete bool
	// Counters is the metrics-plane view of the same attribution.
	Counters metrics.TierCounters
	// Duration is the wall time of the whole tiered retrieval.
	Duration time.Duration
}

// Assemble concatenates the chunks in order; ok is false when any
// chunk is missing.
func (r *TieredResult) Assemble() ([]byte, bool) {
	return core.AssembleChunks(r.Chunks, r.Item.TotalChunks())
}

// defaultTieredBudget bounds a tiered retrieval when ctx carries no
// deadline.
const defaultTieredBudget = 30 * time.Second

// minTierBudget is the floor for one network tier's time slice.
const minTierBudget = 50 * time.Millisecond

// RetrieveTiered fetches a large item through the fallback ladder:
// local cache, then the P2P swarm (standard PDR under a time budget),
// then the origin backend when WithOrigin configured one. The
// descriptor must carry totalchunks.
//
// The ctx deadline (default 30s) is the overall budget; WithP2PShare
// tunes how much of it the P2P tier may consume before escalation.
// The call returns a partial result rather than failing: Complete and
// Missing say what a later retry must fetch, TierOf says where every
// obtained chunk came from. The error is non-nil only for an invalid
// descriptor or a canceled context.
func (n *Node) RetrieveTiered(ctx context.Context, item Descriptor) (*TieredResult, error) {
	item = item.ItemDescriptor()
	total := item.TotalChunks()
	if total <= 0 {
		return nil, fmt.Errorf("pds: retrieve tiered %s: descriptor has no totalchunks", item)
	}
	start := time.Now()
	budget := defaultTieredBudget
	if dl, ok := ctx.Deadline(); ok {
		budget = time.Until(dl)
	}
	if budget <= 0 {
		return nil, fmt.Errorf("pds: retrieve tiered: %w", ctx.Err())
	}

	res := &TieredResult{
		Item:   item,
		Chunks: make(map[int][]byte, total),
		TierOf: make(map[int]Tier, total),
	}

	// Tier 0: chunks already held locally.
	for c, p := range n.heldPayloads(item) {
		res.Chunks[c] = p
		res.TierOf[c] = TierLocal
	}

	haveOrigin := n.origin != nil

	// Tier 1: the P2P swarm. With an origin to escalate to the pass gets
	// its share of the budget; otherwise the whole window.
	if len(res.Chunks) < total {
		p2pBudget := budget
		if haveOrigin {
			p2pBudget = budget * time.Duration(n.p2pShare) / 100
		}
		n.runP2PPass(ctx, item, res, p2pBudget)
	}

	// Tier 2: fetch the stragglers straight from the origin. Each
	// fetched chunk is injected into the node, completing any protocol
	// bookkeeping and making this node a cache its peers can draw on.
	if len(res.Chunks) < total && haveOrigin && ctx.Err() == nil {
		for c := 0; c < total && ctx.Err() == nil; c++ {
			if _, ok := res.Chunks[c]; ok {
				continue
			}
			payload, ok := n.origin.GetPayload(item.WithChunk(c).Key())
			if !ok {
				continue
			}
			n.clk.Locked(func() { n.core.InjectChunk(item, c, payload) })
			res.Chunks[c] = payload
			res.TierOf[c] = TierOrigin
		}
	}

	// Finalize attribution: counters, missing set, per-chunk trace.
	for c := 0; c < total; c++ {
		tier, ok := res.TierOf[c]
		if !ok {
			res.Missing = append(res.Missing, c)
			res.Counters.MissingChunks++
			n.nt.ChunkTier(c, 0, tierNoteMissing)
			continue
		}
		switch tier {
		case TierLocal:
			res.Counters.LocalChunks++
		case TierP2P:
			res.Counters.P2PChunks++
		case TierOrigin:
			res.Counters.OriginChunks++
		}
		n.nt.ChunkTier(c, len(res.Chunks[c]), tier.String())
	}
	sort.Ints(res.Missing)
	res.Complete = len(res.Missing) == 0
	res.Duration = time.Since(start)
	if err := ctx.Err(); err != nil {
		return res, fmt.Errorf("pds: retrieve tiered %s: %w", item, err)
	}
	return res, nil
}

// runP2PPass runs one PDR session under a time budget and attributes
// every newly arrived chunk to the P2P tier.
func (n *Node) runP2PPass(ctx context.Context, item Descriptor, res *TieredResult, budget time.Duration) {
	if budget < minTierBudget {
		budget = minTierBudget
	}
	if dl, ok := ctx.Deadline(); ok {
		if until := time.Until(dl); until < budget {
			budget = until
		}
	}
	if budget <= 0 {
		return
	}
	done := make(chan RetrievalResult, 1)
	n.clk.Locked(func() {
		n.core.RetrieveWithOptions(item, core.RetrieveOptions{Deadline: budget}, func(r RetrievalResult) {
			done <- r
		})
	})
	var r RetrievalResult
	select {
	case r = <-done:
	case <-ctx.Done():
		n.abandonRetrieve(item, done)
		return
	case <-n.closed:
		return
	}
	for c, p := range r.Chunks {
		if _, ok := res.Chunks[c]; ok {
			continue
		}
		res.Chunks[c] = p
		res.TierOf[c] = TierP2P
	}
}

// heldPayloads snapshots the chunk payloads of item the node already
// holds.
func (n *Node) heldPayloads(item Descriptor) map[int][]byte {
	out := make(map[int][]byte)
	key := item.Key()
	n.clk.Locked(func() {
		st := n.core.Store()
		for _, c := range st.ChunksHeld(key) {
			if p, ok := st.ChunkPayload(key, c); ok {
				out[c] = p
			}
		}
	})
	return out
}
