package core

// Deployment-plane hooks: the entry points the tiered retrieval path
// and the unicast face plane use to feed externally obtained state
// into the protocol engine. Both are called under the deployment's
// clock lock, like every other Node method.

import (
	"pds/internal/attr"
	"pds/internal/wire"
)

// InjectChunk stores a chunk payload obtained outside the P2P protocol
// (an edge peer fetched over a unicast face, or the origin backend)
// as a cached payload and drives any active retrieval session for the
// item forward, exactly as if the chunk had arrived in a response.
// The node then serves the chunk to peers like any cached copy — an
// origin fetch turns the node into an edge cache. It reports false
// when the node is down or the store rejected the payload.
func (n *Node) InjectChunk(item attr.Descriptor, chunkID int, payload []byte) bool {
	if n.crashed || n.stopped {
		return false
	}
	item = item.ItemDescriptor()
	cd := item.WithChunk(chunkID)
	now := n.clk.Now()
	n.arm(now + n.cfg.EntryTTL)
	if !n.ds.PutPayloadCached(cd, payload, now, now+n.cfg.EntryTTL) {
		if !n.ds.HasPayload(cd) {
			return false
		}
	}
	n.stats.ChunksInjected++
	n.tr.CacheInsert(cd.Key(), len(payload))
	n.notifyChunk(cd, now)
	return true
}

// NotePeerFailure records a transport-level delivery failure toward
// the neighbor — a unicast face's circuit breaker opening after
// consecutive connection failures — in the neighbor-health blacklist,
// as a strike, like a link-layer give-up (see strike).
func (n *Node) NotePeerFailure(nb wire.NodeID) {
	if n.crashed || n.stopped || nb == 0 || nb == n.id {
		return
	}
	n.stats.FacePeerFailures++
	n.strike(nb, n.clk.Now())
}
