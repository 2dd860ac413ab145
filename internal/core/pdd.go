package core

import (
	"cmp"
	"slices"
	"time"

	"pds/internal/attr"
	"pds/internal/store"
	"pds/internal/wire"
)

// handleQuery implements Algorithm 1 (PDD Query Processing) for
// metadata, small-data and CDI queries and for flooded content
// advertisements (strategy plane), and dispatches chunk queries to the
// PDR path. Steps: LQT lookup, DS lookup (respond), receiver check,
// forwarding.
func (n *Node) handleQuery(q *wire.Query) {
	n.stats.QueriesReceived++
	n.health.recordSuccess(q.Sender)
	if q.Kind == wire.KindChunk {
		n.handleChunkQuery(q)
		return
	}
	now := n.clk.Now()

	// LQT Lookup: drop redundant copies, insert new queries.
	if n.lqt.Exists(q.ID, now) {
		n.stats.QueriesDuplicate++
		return
	}
	n.lqt.Insert(q, now+q.TTL)
	n.arm(now + q.TTL)

	// DS Lookup: answer from the local store toward the query sender.
	// Per Algorithm 1 this happens before the receiver check, so even
	// overheard queries are answered — overhearing is what spreads
	// cached copies toward consumers.
	switch q.Kind {
	case wire.KindMetadata, wire.KindData:
		n.scheduleServe(q.Kind)
	case wire.KindCDI:
		n.respondCDI(q)
	case wire.KindAdvert:
		// Nothing to answer: the frozen advert goes to the advert
		// table, if the node keeps one. Nodes that keep none still relay
		// it below — strategies are per-node and a mixed network must
		// stay connected.
		n.adverts.ObserveAdvert(q, now)
	}
	n.reflood(q)
}

// reflood is the receiver check and forwarding step of Algorithm 1 for
// every flooded kind.
func (n *Node) reflood(q *wire.Query) {
	// Receiver Check: forward only if we are an intended receiver (an
	// empty list means all neighbors).
	if len(q.Receivers) > 0 && !containsID(q.Receivers, n.id) {
		return
	}
	// Hop scope: a query arriving with one hop left has spent its
	// budget (§III-A's optional hop counter).
	if q.HopsLeft == 1 {
		return
	}

	// Forwarding: copy-on-write, never clone-then-mutate. The received
	// query is shared with every node that heard the same frame, so the
	// forwarded variant is a fresh Query struct sharing the immutable
	// sections (Sel, Item, ChunkIDs) with only the rewritten fields
	// replaced: sender, receiver list (flooded planes keep it empty),
	// hop budget, and an advert's hop count. The selector is never
	// copied, and neither is the Bloom filter: the forwarded filter is the
	// received one. Rewriting (§III-B.2) happens in this node's private
	// LQT copy — nothing has been served yet, serving is always deferred
	// — and shows downstream as entries missing from this node's
	// responses, not as bits in the queries it forwards.
	fwd := *q
	fwd.Sender = n.id
	fwd.Receivers = nil
	if fwd.HopsLeft > 1 {
		fwd.HopsLeft--
	}
	if q.Kind == wire.KindAdvert {
		// An advert's filter travels frozen; Round carries the hops
		// traveled so downstream nodes learn their distance to the origin.
		fwd.Round = q.Round + 1
	}
	n.stats.QueriesForwarded++
	n.tr.QueryForward(q.ID, q.Sender, int(fwd.HopsLeft))
	n.sendJittered(wire.NewQuery(fwd), n.cfg.ForwardJitterMax)
}

// scheduleServe coalesces response generation for a query kind: the
// first query arms a jittered serve event; queries arriving within the
// jitter window are answered by the same pass. This is where mixedcast
// originates (§III-B.1): the single pass serves the union of lingering
// queries, so entries wanted by several consumers leave in one message
// with one role per (receiver, query).
func (n *Node) scheduleServe(kind wire.QueryKind) {
	if n.servePending[kind] {
		return
	}
	n.servePending[kind] = true
	n.later(n.jitter(n.cfg.ResponseJitterMax), nil, kind)
}

// serveQueries answers every lingering query of the kind from the local
// store in one mixedcast pass.
func (n *Node) serveQueries(kind wire.QueryKind) {
	now := n.clk.Now()
	n.routes = n.lqt.AllOfKind(n.routes[:0], kind, now)
	defer clear(n.routes) // an expired query is not kept alive from here
	// Serve each query once (Algorithm 1 answers at query receipt);
	// already-served queries participate only in relaying. Without this
	// every later round would be re-answered from scratch by every
	// node, multiplying traffic.
	routes := n.routes[:0]
	for _, lq := range n.routes {
		if !lq.Served && !lq.Exhausted {
			lq.Served = true
			routes = append(routes, lq)
		}
	}
	if len(routes) == 0 {
		return
	}
	// Candidates: every live entry (every held payload for small data) in
	// key order, walked out of the store's index into the node's scratch.
	// No selector is applied here — mixedcast offers each candidate to
	// each route and Offer tests that route's selector — so what leaves is
	// the union of the routes' matches, each once, sorted by key.
	if kind == wire.KindData {
		n.units = n.ds.AppendMatchPayloads(n.units[:0], attr.Query{}, now)
	} else {
		n.units = n.ds.AppendMatch(n.units[:0], attr.Query{}, now)
	}
	n.answer(routes, content{entries: n.units}, nil)
}

// relayUnits is the LQT lookup of Algorithm 2 for a metadata or
// small-data response: the node forwards each unit only for the queries
// it was addressed under (the response's Serves bindings), so every
// response copy stays on one query's reverse tree; forwarding toward
// every lingering query would flood each unit across the whole mesh
// once per consumer.
func (n *Node) relayUnits(r *wire.Response, now time.Duration) {
	n.routes = n.routes[:0]
	for _, sv := range r.Serves {
		if sv.Node != n.id {
			continue
		}
		lq, ok := n.lqt.Get(sv.QueryID, now)
		if !ok || lq.Query.Kind != r.Kind || lq.Exhausted {
			continue
		}
		n.tr.LQMatch(r.ID, sv.QueryID)
		n.routes = append(n.routes, lq)
	}
	// By kind, not by what the frame happens to carry: a malformed
	// response must not put both lists behind one index.
	units := content{entries: r.Entries}
	if r.Kind == wire.KindData {
		units = content{blobs: r.Blobs}
	}
	n.answer(n.routes, units, r)
	clear(n.routes)
}

// content is the unit list of a PDD response: metadata entries or
// payload blobs (small data, or chunks under MDR), never both. Serving,
// relaying and packing treat the two alike through it.
type content struct {
	entries []attr.Descriptor
	blobs   []wire.Blob
}

func (c content) len() int { return len(c.entries) + len(c.blobs) }

func (c content) desc(i int) attr.Descriptor {
	if c.blobs != nil {
		return c.blobs[i].Desc
	}
	return c.entries[i]
}

// size is unit i's share of a response's byte budget.
func (c content) size(i int) int {
	if c.blobs != nil {
		return c.blobs[i].Desc.EncodedSize() + len(c.blobs[i].Payload)
	}
	return c.entries[i].EncodedSize()
}

// pick returns the units at the indices, copied into a content of
// exactly that size: it shares nothing with c, which may be scratch.
func (c content) pick(idx []int) content {
	if c.blobs != nil {
		out := make([]wire.Blob, len(idx))
		for j, i := range idx {
			out[j] = c.blobs[i]
		}
		return content{blobs: out}
	}
	out := make([]attr.Descriptor, len(idx))
	for j, i := range idx {
		out[j] = c.entries[i]
	}
	return content{entries: out}
}

// slice returns units [lo, hi) as a content that cannot grow into its
// neighbors.
func (c content) slice(lo, hi int) content {
	if c.blobs != nil {
		return content{blobs: c.blobs[lo:hi:hi]}
	}
	return content{entries: c.entries[lo:hi:hi]}
}

// cast is the outcome of one mixedcast pass.
type cast struct {
	// kept are the units at least one route still wants, one copy each.
	kept content
	// receivers and serves are the upstream senders of the routes that
	// want them and the (receiver, query) bindings, sorted and made once.
	receivers []wire.NodeID
	serves    []wire.Serve
	// suppressed counts (unit, route) pairs a Bloom filter turned down;
	// unwanted counts units that no route takes.
	suppressed, unwanted uint64
}

// mixedcast is the paper's serve/relay rule (§III-B.1, §III-B.2),
// written once: offer every unit to every route — a lingering query
// this node answers or was addressed under — and keep what at least one
// route still wants, one copy per unit, addressed to the union of those
// routes' upstream senders with one Serves binding per (receiver,
// query). The per-pair verdict, and the Bloom rewriting that goes with
// it, is LingeringQuery.Offer. Kept units are copied out of units unless
// frozen (a received list, DESIGN.md §8) and the pass keeps every one.
func (n *Node) mixedcast(routes []*store.LingeringQuery, units content, frozen bool) cast {
	var c cast
	n.keep, n.receivers, n.serves = n.keep[:0], n.receivers[:0], n.serves[:0]
	traced := n.tr.Enabled()
	for i := 0; i < units.len(); i++ {
		d := units.desc(i)
		key := d.Key()
		forward, wanted := false, false
		for _, lq := range routes {
			// A traced pass notes which filter decided each verdict:
			// whether the filter was overloaded before Offer's Add, and
			// whether a suppressing key was in the received filter or
			// only in this relay's private copy.
			failOpen := traced && lq.Bloom != nil && lq.Bloom.Overloaded()
			switch lq.Offer(d, key) {
			case store.Suppressed:
				c.suppressed++
				if traced {
					n.tr.BloomSuppress(lq.Query.ID, key, !lq.Query.Bloom.Contains(key))
				}
			case store.Fresh:
				wanted = true
				if failOpen {
					n.tr.BloomFailOpen(lq.Query.ID, key)
				}
				// A query this node originated is a sink: the unit is
				// recorded against it but travels no further.
				if lq.Query.Origin != n.id {
					n.receivers = insertSorted(n.receivers, lq.Query.Sender, cmp.Compare)
					n.serves = insertSorted(n.serves, wire.Serve{Node: lq.Query.Sender, QueryID: lq.Query.ID}, compareServes)
					forward = true
				}
				// The one-shot Interest ablation: with lingering disabled
				// a query is exhausted by the first response it steers,
				// as CCN/NDN Interests are (§VIII). It stays in the table
				// purely for flood deduplication, and routes are resolved
				// before the pass, so that one response goes out whole.
				if !n.cfg.LingeringEnabled {
					lq.Exhausted = true
				}
			}
		}
		if forward {
			n.keep = append(n.keep, i)
		} else if !wanted {
			c.unwanted++
		}
	}
	c.kept, c.receivers, c.serves = units, slices.Clone(n.receivers), slices.Clone(n.serves)
	if !frozen || len(n.keep) < units.len() {
		c.kept = units.pick(n.keep)
	}
	return c
}

// answer runs the mixedcast pass over the routes and sends what it
// keeps: served from the local store when src is nil, else relayed from
// the received response src. With MixedcastEnabled off the same pass
// runs once per route — one response per query, the multicast-style
// ablation.
func (n *Node) answer(routes []*store.LingeringQuery, units content, src *wire.Response) {
	step := len(routes)
	if !n.cfg.MixedcastEnabled {
		step = 1
	}
	for i := 0; i < len(routes); i += step {
		c := n.mixedcast(routes[i:i+step], units, src != nil)
		kind := routes[i].Query.Kind
		if src != nil {
			// The upstream node chose the units, so a prune is a unit
			// nobody downstream of here wants.
			n.stats.EntriesPruned += c.unwanted
		} else {
			// The store matched every unit for some route, so a prune
			// is a Bloom hit.
			n.stats.EntriesPruned += c.suppressed
			if kind == wire.KindData {
				// Payloads are loaded only for the units that travel.
				descs := c.kept.entries
				c.kept = content{blobs: make([]wire.Blob, 0, len(descs))}
				for _, d := range descs {
					if payload, ok := n.ds.Payload(d); ok {
						c.kept.blobs = append(c.kept.blobs, wire.Blob{Desc: d, Payload: payload})
					}
				}
			}
		}
		if c.kept.len() > 0 && len(c.receivers) > 0 {
			n.sendResponses(kind, c, src)
		}
	}
}

// sendResponses packs the kept units into response messages bounded by
// maxResponseBytes each (mirroring the prototype's 1.5 KB packets) and
// sends them to the receivers. A unit larger than the budget (a 256 KB
// chunk) travels alone, as a unit (§VI-A). Messages share the unit,
// receiver and serve arrays: sent messages are frozen.
func (n *Node) sendResponses(kind wire.QueryKind, c cast, src *wire.Response) {
	budget := maxResponseBytes
	lo, used := 0, 0
	flush := func(hi int) {
		batch := c.kept.slice(lo, hi)
		n.emit(wire.Response{Kind: kind, Receivers: c.receivers, Serves: c.serves,
			Entries: batch.entries, Blobs: batch.blobs}, src, hi-lo)
		lo, used = hi, 0
	}
	for i := 0; i < c.kept.len(); i++ {
		sz := c.kept.size(i)
		if used+sz > budget && i > lo {
			flush(i)
		}
		used += sz
	}
	flush(c.kept.len())
}

// handleResponse implements Algorithm 2 (PDD Response Processing) and
// its PDR variants: RR lookup, DS lookup (opportunistic caching),
// receiver check, LQT lookup, forwarding.
func (n *Node) handleResponse(r *wire.Response) {
	n.stats.ResponsesReceived++
	now := n.clk.Now()
	// Hearing from a neighbor clears its failure record: the link works.
	n.health.recordSuccess(r.Sender)

	// RR Lookup: drop redundant copies (e.g. the same response heard
	// from several relaying neighbors).
	n.arm(now + min(n.cfg.RecentRespRetention, n.cfg.EntryTTL, n.cfg.CDITTL))
	if n.rr.Seen(r.ID, now) {
		n.stats.ResponsesDuplicate++
		return
	}

	// DS Lookup: cache everything new, whether or not we are an
	// intended receiver — opportunistic caching from overhearing.
	n.cacheResponse(r, now)

	// Receiver Check: only nodes on return paths relay further.
	if !containsID(r.Receivers, n.id) {
		return
	}

	// LQT Lookup + Forwarding.
	switch r.Kind {
	case wire.KindMetadata, wire.KindData:
		n.relayUnits(r, now)
	case wire.KindCDI:
		n.relayCDI(r, now)
	case wire.KindChunk:
		n.relayChunks(r, now)
	}
}

// cacheResponse absorbs a response's content into local state and
// notifies consumer sessions.
func (n *Node) cacheResponse(r *wire.Response, now time.Duration) {
	switch r.Kind {
	case wire.KindMetadata:
		for _, d := range r.Entries {
			if n.ds.PutCached(d, now+n.cfg.EntryTTL) {
				n.stats.EntriesCached++
			}
		}
		n.notifyDiscovery(r, now)
	case wire.KindData:
		for _, b := range r.Blobs {
			if n.wantsPayload(b.Desc) {
				// Data this node's own collection session asked for is
				// stored unconditionally — the opportunistic cache cap
				// only applies to third-party traffic.
				n.ds.PutPayloadOwned(b.Desc, b.Payload)
			} else if n.ds.PutPayloadCached(b.Desc, b.Payload, now, now+n.cfg.EntryTTL) {
				n.stats.PayloadsCached++
			}
		}
		n.notifyDiscovery(r, now)
	case wire.KindCDI:
		itemKey := r.Item.Key()
		updates := 0
		for _, p := range r.CDI {
			e := store.CDIEntry{
				ChunkID:  p.ChunkID,
				HopCount: p.HopCount + 1,
				Neighbor: r.Sender,
				ExpireAt: now + n.cfg.CDITTL,
			}
			if n.cdi.Update(itemKey, e) {
				updates++
				n.tr.CDIUpdate(r.ID, r.Sender, p.ChunkID, p.HopCount+1)
			}
		}
		// A CDI response also implies the item exists: cache its entry
		// so later discoveries see it.
		if r.Item.Len() > 0 {
			n.ds.PutCached(r.Item, now+n.cfg.EntryTTL)
		}
		if updates > 0 {
			n.notifyCDI(itemKey, now)
		}
	case wire.KindChunk:
		for _, b := range r.Blobs {
			if n.ds.HasPayload(b.Desc) {
				// Already held: a retransmission or a second route raced
				// the first copy. Counted so chaos tests can bound
				// duplicate delivery; stores below are idempotent.
				n.stats.ChunkDupDeliveries++
			}
			if _, mine := n.retrievals[b.Desc.ItemKey()]; mine {
				// Chunks of an item this node is actively retrieving are
				// the retrieval's output, not opportunistic cache.
				n.ds.PutPayloadOwned(b.Desc, b.Payload)
			} else if n.ds.PutPayloadCached(b.Desc, b.Payload, now, now+n.cfg.EntryTTL) {
				n.stats.PayloadsCached++
			}
			// Cache the item-level entry too so this node answers
			// discovery and CDI queries for the item (§II-C).
			item := b.Desc.ItemDescriptor()
			if item.Len() > 0 {
				n.ds.PutCached(item, now+n.cfg.EntryTTL)
			}
			n.notifyChunk(b.Desc, now)
		}
	}
}

func containsID(ids []wire.NodeID, id wire.NodeID) bool {
	for _, x := range ids {
		if x == id {
			return true
		}
	}
	return false
}
