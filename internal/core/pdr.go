package core

import (
	"cmp"
	"slices"
	"time"

	"pds/internal/assign"
	"pds/internal/attr"
	"pds/internal/clock"
	"pds/internal/wire"
)

// RetrievalResult reports the outcome of a PDR (or MDR) session.
type RetrievalResult struct {
	// Item is the retrieved item's descriptor.
	Item attr.Descriptor
	// Chunks maps chunk id to payload for every retrieved chunk.
	Chunks map[int][]byte
	// Complete reports whether all TotalChunks chunks were retrieved.
	Complete bool
	// Missing enumerates the chunk ids not retrieved, sorted — the
	// graceful-degradation contract: a partial result names exactly what
	// a later retry must fetch. Empty when Complete.
	Missing []int
	// Deadline reports that the session was cut off by
	// Config.RetrievalDeadline rather than finishing on its own.
	Deadline bool
	// CDILatency is the duration of phase 1 (zero for MDR).
	CDILatency time.Duration
	// Latency is the time from the session start to the arrival of the
	// last chunk.
	Latency time.Duration
	// Duration is the total session wall time.
	Duration time.Duration
	// Rounds counts phase-2 request rounds (or MDR query rounds).
	Rounds int
}

// Assemble concatenates the chunks in id order; ok is false when any
// chunk is missing.
func (r *RetrievalResult) Assemble() ([]byte, bool) {
	return AssembleChunks(r.Chunks, r.Item.TotalChunks())
}

// AssembleChunks joins chunks 0 to total−1 in one buffer sized once; ok is false if one is missing.
func AssembleChunks(chunks map[int][]byte, total int) ([]byte, bool) {
	size := 0
	for c := 0; c < total; c++ {
		p, ok := chunks[c]
		if !ok {
			return nil, false
		}
		size += len(p)
	}
	out := make([]byte, 0, size)
	for c := 0; c < total; c++ {
		out = append(out, chunks[c]...)
	}
	return out, true
}

// retrieval is an active consumer-side PDR session: phase 1 collects
// chunk distribution information; phase 2 recursively requests chunks
// from nearest neighbors (§IV).
type retrieval struct {
	n        *Node
	item     attr.Descriptor
	itemKey  string
	total    int
	cb       func(RetrievalResult)
	progress func(done, total int)
	// window is this session's request-window size (chunks requested
	// but undelivered); 0 falls back to OutstandingChunks.
	window int
	// gaps is the buffer missing fills.
	gaps []int

	phase         int // 1 = CDI retrieval, 2 = chunk retrieval
	rounds        int
	start         time.Duration
	phase2Start   time.Duration
	lastCDIUpdate time.Duration
	lastChunkAt   time.Duration
	// lastRoundAt is when the current retry cycle began (CDI flood or
	// phase-2 entry); the no-progress watchdog compares against it.
	lastRoundAt time.Duration
	// deadline is when the session gives up with a partial result; 0
	// for none.
	deadline time.Duration
	// requestedAt tracks when each chunk was last requested; entries
	// older than the adaptive retry window are considered lost and
	// eligible again.
	requestedAt map[int]time.Duration
	// chunkEWMA estimates the typical inter-chunk arrival time, used to
	// size the retry window: a stalled request should be reclaimed after
	// a few typical service times, not a fixed worst case.
	chunkEWMA time.Duration

	done        bool
	deadlineHit bool
	checkTimer  clock.Timer // runs check every RoundCheck, and at the deadline, until done
}

// Retrieve starts a PDR session for the item (whose descriptor must
// carry totalchunks, normally obtained from discovery) and calls cb
// exactly once. Chunks already cached locally are used directly.
func (n *Node) Retrieve(item attr.Descriptor, cb func(RetrievalResult)) {
	n.RetrieveWithOptions(item, RetrieveOptions{}, cb)
}

// RetrieveOptions tune one retrieval session.
type RetrieveOptions struct {
	// Deadline overrides Config.RetrievalDeadline for this session
	// when positive. The tiered retrieval path budgets each P2P pass
	// with it so a dead swarm cannot eat the whole retrieval window
	// before the origin tier gets its turn.
	Deadline time.Duration
	// Progress, if set, is invoked after every chunk arrival with
	// (chunks held, total chunks).
	Progress func(done, total int)
	// OutstandingChunks overrides the OutstandingChunks constant for this
	// session when positive. Workload drivers running several pipelined
	// retrievals at once (streaming prefetch) shrink each session's
	// request window so the aggregate in-flight load stays what one
	// foreground retrieval would impose.
	OutstandingChunks int
}

// RetrieveWithOptions is Retrieve with per-session options.
func (n *Node) RetrieveWithOptions(item attr.Descriptor, opts RetrieveOptions, cb func(RetrievalResult)) {
	item = item.ItemDescriptor()
	r := &retrieval{
		n:           n,
		item:        item,
		itemKey:     item.Key(),
		total:       item.TotalChunks(),
		cb:          cb,
		progress:    opts.Progress,
		window:      opts.OutstandingChunks,
		start:       n.clk.Now(),
		requestedAt: make(map[int]time.Duration),
	}
	r.lastChunkAt = r.start
	r.checkTimer = clock.NewTimer(n.clk, func() { r.check(); r.scheduleCheck() })
	if r.total <= 0 {
		// Nothing to do: a malformed descriptor retrieves nothing.
		cb(RetrievalResult{Item: item, Chunks: map[int][]byte{}, Complete: false})
		return
	}
	if old, ok := n.retrievals[r.itemKey]; ok {
		// One active session per item; the newer call supersedes.
		old.finish(n.clk.Now())
	}
	if n.retrievals == nil {
		n.retrievals = make(map[string]*retrieval)
	}
	n.retrievals[r.itemKey] = r
	if r.complete() {
		r.finish(n.clk.Now())
		return
	}
	deadline := n.cfg.RetrievalDeadline
	if opts.Deadline > 0 {
		deadline = opts.Deadline
	}
	if deadline > 0 {
		r.deadline = r.start + deadline
	}
	r.startCDIRound()
	r.scheduleCheck()
}

// CancelRetrieve aborts the active retrieval session for the item, if
// any, reporting its partial result through the session's callback. It
// returns whether a session was cancelled. Streaming drivers use it to
// abandon segments the playhead has irrecoverably passed.
func (n *Node) CancelRetrieve(item attr.Descriptor) bool {
	r, ok := n.retrievals[item.ItemKey()]
	if !ok || r.done {
		return false
	}
	r.finish(n.clk.Now())
	return true
}

// missing returns the chunk ids not yet held locally, sorted, in the
// session's own buffer: the next call overwrites it, so no caller may
// hold the result across a call that can re-enter the session.
//
//pds:hotpath
func (r *retrieval) missing() []int {
	r.gaps = r.gaps[:0]
	for c := 0; c < r.total; c++ {
		if !r.n.ds.HoldsChunk(r.itemKey, c) {
			r.gaps = append(r.gaps, c)
		}
	}
	return r.gaps
}

// complete reports whether every chunk is held locally.
//
//pds:hotpath
func (r *retrieval) complete() bool {
	for c := 0; c < r.total; c++ {
		if !r.n.ds.HoldsChunk(r.itemKey, c) {
			return false
		}
	}
	return true
}

// startCDIRound floods a CDI query for the item (phase 1, §IV-A).
func (r *retrieval) startCDIRound() {
	n := r.n
	r.phase = 1
	r.rounds++
	now := n.clk.Now()
	r.lastCDIUpdate = now
	r.lastRoundAt = now
	msg := wire.NewQuery(wire.Query{
		ID:     n.newID(),
		Kind:   wire.KindCDI,
		TTL:    n.cfg.QueryTTL,
		Sender: n.id,
		Origin: n.id,
		Round:  uint32(r.rounds),
		Item:   r.item,
	})
	q := msg.Query
	n.lqt.Insert(q, now+q.TTL)
	n.arm(now + q.TTL)
	n.tr.QueryStart(q.ID, r.rounds, q.Kind.String())
	n.transmit(msg)
}

// scheduleCheck arms the session's one timer for the next RoundCheck
// tick, or for the deadline if that comes first.
func (r *retrieval) scheduleCheck() {
	if r.done {
		return
	}
	d := RoundCheck
	if left := r.deadline - r.n.clk.Now(); r.deadline > 0 && left < d {
		d = left
	}
	r.checkTimer.Reset(d)
}

// check drives the phase machine on every RoundCheck tick: it ends the
// session at its deadline; phase 1 is settle's to decide; phase 2 is
// watched by a retry timer that falls back to a fresh CDI round.
func (r *retrieval) check() {
	if r.done {
		return
	}
	n := r.n
	now := n.clk.Now()
	if r.deadline > 0 && now >= r.deadline {
		r.deadlineHit = true
		r.finish(now)
		return
	}
	if r.complete() {
		r.finish(now)
		return
	}
	switch r.phase {
	case 1:
		r.settle(now)
	case 2:
		// Keep the request window full; stale requests re-issue here.
		r.topUp(now)
		// No chunk progress for a whole ChunkRetry since the cycle
		// began: the routes have gone bad regardless of how many
		// re-requests are still being issued. Fall back to a fresh CDI
		// round (bounded by RetrievalRounds).
		if now-r.lastChunkAt >= n.cfg.ChunkRetry && now-r.lastRoundAt >= n.cfg.ChunkRetry {
			if r.rounds >= n.cfg.RetrievalRounds {
				r.finish(now)
				return
			}
			r.startCDIRound()
		}
	}
}

// settle is phase 1's decision (§IV-A), taken on every RoundCheck tick
// and whenever a CDI update lands, once one response spread
// (ResponseJitterMax) has passed since the round's query left: by then
// every neighbor that heard the query has answered it. A round settles
// into phase 2 when CDI covers every missing chunk, or once CDI has been
// quiet for cdiWindow — which only a tick can find, as an update resets
// it. A quiet round with no CDI at all floods a new one.
func (r *retrieval) settle(now time.Duration) {
	n := r.n
	if now-r.lastRoundAt < n.cfg.ResponseJitterMax {
		return
	}
	quiet := now-r.lastCDIUpdate >= cdiWindow
	switch {
	case r.cdiCovers():
		r.enterPhase2(now)
	case quiet && r.knownChunks() > 0:
		// Partial knowledge after a quiet window: request what we
		// can; the phase-2 watchdog will re-run CDI for the rest.
		r.enterPhase2(now)
	case quiet:
		// No CDI at all: re-flood unless out of budget.
		if r.rounds >= n.cfg.RetrievalRounds {
			r.finish(now)
			return
		}
		r.startCDIRound()
	}
}

// hasRoute reports whether a chunk query for the chunk would be offered
// any next hop — from the CDI table, or failing that the advert table —
// counting nothing and allocating nothing.
func (n *Node) hasRoute(itemKey string, chunkID int, now time.Duration) bool {
	return n.cdi.Has(itemKey, chunkID, now) || n.adverts.Has(itemKey, now)
}

// cdiCovers reports whether every missing chunk has a routing option.
func (r *retrieval) cdiCovers() bool {
	now := r.n.clk.Now()
	for _, c := range r.missing() {
		if !r.n.hasRoute(r.itemKey, c, now) {
			return false
		}
	}
	return true
}

// knownChunks counts missing chunks that have at least one routing
// option.
func (r *retrieval) knownChunks() int {
	now := r.n.clk.Now()
	k := 0
	for _, c := range r.missing() {
		if r.n.hasRoute(r.itemKey, c, now) {
			k++
		}
	}
	return k
}

// enterPhase2 starts the windowed chunk-request loop.
func (r *retrieval) enterPhase2(now time.Duration) {
	r.phase = 2
	if r.phase2Start == 0 {
		r.phase2Start = now
	}
	r.lastRoundAt = now
	r.topUp(now)
}

// retryAfter returns how long a requested chunk stays blocked before it
// becomes eligible for re-request: a few typical chunk service times,
// clamped to [5s, ChunkRetry]. Fast networks reclaim stalled slots in
// seconds; the configured ceiling still bounds duplicate requests when
// service times are genuinely long.
func (r *retrieval) retryAfter() time.Duration {
	retry := r.n.cfg.ChunkRetry
	if r.chunkEWMA > 0 {
		adaptive := 5 * r.chunkEWMA
		if adaptive < 5*time.Second {
			adaptive = 5 * time.Second
		}
		if adaptive < retry {
			retry = adaptive
		}
	}
	return retry
}

// topUp keeps up to OutstandingChunks chunks requested-but-undelivered,
// balancing each batch across least-hop neighbors (§IV-B). Chunks whose
// requests have aged past the adaptive retry window become eligible
// again, typically after OnSendFailure dropped the dead route.
func (r *retrieval) topUp(now time.Duration) {
	if r.phase != 2 || r.done {
		return
	}
	n := r.n
	window := r.window
	if window <= 0 {
		window = OutstandingChunks
	}
	retry := r.retryAfter()
	outstanding := 0
	var eligible []int
	for _, c := range r.missing() {
		if at, ok := r.requestedAt[c]; ok && now-at < retry {
			outstanding++
		} else {
			eligible = append(eligible, c)
		}
	}
	budget := window - outstanding
	if budget <= 0 || len(eligible) == 0 {
		return
	}
	if budget > len(eligible) {
		budget = len(eligible)
	}
	batch := eligible[:budget]
	sent := n.sendChunkQueries(r.item, batch, n.id, 0, 0)
	if len(sent) == 0 {
		return // no routes: leave the watchdog to trigger a CDI round
	}
	for _, c := range sent {
		r.requestedAt[c] = now
	}
}

// finish reports the result exactly once.
func (r *retrieval) finish(now time.Duration) {
	if r.done {
		return
	}
	r.done = true
	r.checkTimer.Stop()
	if n := r.n; n.retrievals[r.itemKey] == r {
		delete(n.retrievals, r.itemKey)
	}
	chunks := make(map[int][]byte)
	for _, c := range r.n.ds.ChunksHeld(r.itemKey) {
		if c < r.total {
			if p, ok := r.n.ds.ChunkPayload(r.itemKey, c); ok {
				chunks[c] = p
			}
		}
	}
	var missing []int
	for c := 0; c < r.total; c++ {
		if _, ok := chunks[c]; !ok {
			missing = append(missing, c)
		}
	}
	cdiLat := time.Duration(0)
	if r.phase2Start > 0 {
		cdiLat = r.phase2Start - r.start
	}
	res := RetrievalResult{
		Item:       r.item,
		Chunks:     chunks,
		Complete:   len(missing) == 0,
		Missing:    missing,
		Deadline:   r.deadlineHit,
		CDILatency: cdiLat,
		Latency:    r.lastChunkAt - r.start,
		Duration:   now - r.start,
		Rounds:     r.rounds,
	}
	if r.cb != nil {
		r.cb(res)
	}
}

// notifyChunk is called when a chunk payload lands in the store; it
// completes sessions and resets watchdogs.
func (n *Node) notifyChunk(chunkDesc attr.Descriptor, now time.Duration) {
	itemKey := chunkDesc.ItemKey()
	r, ok := n.retrievals[itemKey]
	if !ok || r.done {
		return
	}
	if r.lastChunkAt > r.start {
		interval := now - r.lastChunkAt
		if r.chunkEWMA == 0 {
			r.chunkEWMA = interval
		} else {
			r.chunkEWMA = (3*r.chunkEWMA + interval) / 4
		}
	}
	r.lastChunkAt = now
	if r.progress != nil {
		r.progress(r.total-len(r.missing()), r.total)
	}
	if r.complete() {
		r.finish(now)
		return
	}
	r.topUp(now)
}

// notifyCDI is called when CDI updates land: a phase-1 session measures
// quiescence from the last one, and a covering one may settle its round.
func (n *Node) notifyCDI(itemKey string, now time.Duration) {
	if r, ok := n.retrievals[itemKey]; ok && !r.done {
		r.lastCDIUpdate = now
		if r.phase == 1 {
			r.settle(now)
		}
	}
}

// --- CDI plane -----------------------------------------------------

// cdiPairsFor merges locally held chunks (hop 0) with the CDI table's
// pairs: the contents of a CDI response from this node (§IV-A). Both
// lists are read into node scratch, held chunks first, so the stable
// sort keeps a held chunk ahead of the table's pair for it and Compact
// keeps that one; the response gets an exact-size copy.
func (n *Node) cdiPairsFor(itemKey string, now time.Duration) []wire.CDIPair {
	n.chunks, n.pairs = n.ds.AppendChunksHeld(n.chunks[:0], itemKey), n.pairs[:0]
	for _, c := range n.chunks {
		n.pairs = append(n.pairs, wire.CDIPair{ChunkID: c})
	}
	n.pairs = n.cdi.AppendPairs(n.pairs, itemKey, now)
	slices.SortStableFunc(n.pairs, func(a, b wire.CDIPair) int { return cmp.Compare(a.ChunkID, b.ChunkID) })
	return slices.Clone(slices.CompactFunc(n.pairs, func(a, b wire.CDIPair) bool { return a.ChunkID == b.ChunkID }))
}

// respondCDI answers a CDI query from local chunks and CDI entries.
func (n *Node) respondCDI(q *wire.Query) {
	now := n.clk.Now()
	pairs := n.cdiPairsFor(q.Item.Key(), now)
	if len(pairs) == 0 {
		return
	}
	n.emit(wire.Response{
		Kind:      wire.KindCDI,
		Receivers: []wire.NodeID{q.Sender},
		Serves:    []wire.Serve{{Node: q.Sender, QueryID: q.ID}},
		Item:      q.Item,
		CDI:       pairs,
	}, nil, len(pairs))
}

// relayCDI forwards a CDI response along the reverse paths of the CDI
// queries it was addressed under, rewriting the pairs to this node's
// own (just updated) distances — the distance-vector step of §IV-A.
func (n *Node) relayCDI(r *wire.Response, now time.Duration) {
	itemKey := r.Item.Key()
	var recv []wire.NodeID
	var serves []wire.Serve
	for _, sv := range r.Serves {
		if sv.Node != n.id {
			continue
		}
		lq, ok := n.lqt.Get(sv.QueryID, now)
		if !ok || lq.Query.Kind != wire.KindCDI || lq.Query.Item.Key() != itemKey {
			continue
		}
		if lq.Query.Origin == n.id {
			continue
		}
		n.tr.LQMatch(r.ID, sv.QueryID)
		recv = insertSorted(recv, lq.Query.Sender, cmp.Compare)
		serves = insertSorted(serves, wire.Serve{Node: lq.Query.Sender, QueryID: sv.QueryID}, compareServes)
	}
	if len(recv) == 0 {
		return
	}
	pairs := n.cdiPairsFor(itemKey, now)
	if len(pairs) == 0 {
		return
	}
	n.emit(wire.Response{
		Kind:      wire.KindCDI,
		Receivers: recv,
		Serves:    serves,
		Item:      r.Item,
		CDI:       pairs,
	}, r, len(pairs))
}

// --- Chunk plane -----------------------------------------------------

// sendChunkQueries balances the wanted chunks over the neighbors that
// CDI says are nearest and sends one directed chunk query to each. It
// excludes routes via `exclude` (the upstream sender, to avoid
// ping-pong). Chunks without any route are dropped here; the consumer
// watchdog re-runs CDI for them. It returns the chunks actually
// requested, sorted. parentQID is the incoming chunk query that
// triggered the recursion (0 at the consumer), recorded with each
// sub-query's assignment vector in the trace.
func (n *Node) sendChunkQueries(item attr.Descriptor, chunks []int, origin wire.NodeID, exclude wire.NodeID, parentQID uint64) []int {
	if len(chunks) == 0 {
		return nil
	}
	now := n.clk.Now()
	itemKey := item.Key()
	req := assign.Request{Chunks: chunks, Options: make([][]assign.Option, len(chunks))}
	for i, c := range chunks {
		routes := n.cdi.Lookup(itemKey, c, now)
		if len(routes) == 0 {
			routes = n.adverts.Routes(itemKey, now)
		}
		usable, blocked := routes[:0], 0
		for _, o := range routes {
			if o.Neighbor == exclude || o.Neighbor == n.id {
				continue
			}
			if n.health.blocked(o.Neighbor, now) {
				blocked++
				continue
			}
			usable = append(usable, o)
		}
		n.stats.BlacklistSkips += uint64(blocked)
		req.Options[i] = usable
	}
	var res assign.Result
	if n.cfg.LoadBalanceEnabled {
		res = assign.Balance(req)
	} else {
		res = assign.NearestOnly(req)
	}
	neighbors := make([]wire.NodeID, 0, len(res.ByNeighbor))
	for nb := range res.ByNeighbor {
		neighbors = append(neighbors, nb)
	}
	slices.Sort(neighbors)
	var sent []int
	for _, nb := range neighbors {
		msg := wire.NewQuery(wire.Query{
			ID:        n.newID(),
			Kind:      wire.KindChunk,
			TTL:       n.cfg.QueryTTL,
			Sender:    n.id,
			Receivers: []wire.NodeID{nb},
			Origin:    origin,
			Item:      item,
			ChunkIDs:  res.ByNeighbor[nb],
		})
		n.stats.SubQueriesSent++
		if parentQID == 0 {
			// Consumer-originated chunk query: a root in the trace's
			// message tree, like a discovery round.
			n.tr.QueryStart(msg.Query.ID, 0, wire.KindChunk.String())
		}
		n.tr.SubQuery(msg.Query.ID, parentQID, nb, res.ByNeighbor[nb])
		sent = append(sent, res.ByNeighbor[nb]...)
		n.transmit(msg)
	}
	slices.Sort(sent)
	return sent
}

// handleChunkQuery serves held chunks toward the sender and recursively
// divides the rest among nearest neighbors (§IV-B). Unlike the flooded
// planes, chunk queries are directed: only intended receivers act, so a
// chunk is never served twice.
func (n *Node) handleChunkQuery(q *wire.Query) {
	if len(q.Receivers) > 0 && !containsID(q.Receivers, n.id) {
		return
	}
	now := n.clk.Now()
	if n.lqt.Exists(q.ID, now) {
		n.stats.QueriesDuplicate++
		return
	}

	itemKey := q.Item.Key()
	// Cycle damping: chunks already wanted on behalf of the same origin
	// by another lingering query are being fetched already; drop them
	// from this query. Chunk lingering queries expire quickly (see
	// chunkLinger below), so a dead chain only damps retries briefly.
	inFlight := make(map[int]bool)
	n.routes = n.lqt.MatchItem(n.routes[:0], wire.KindChunk, itemKey, now)
	for _, lq := range n.routes {
		if lq.Query.Origin == q.Origin {
			for _, c := range lq.Wanted {
				inFlight[c] = true
			}
		}
	}
	clear(n.routes)

	var held, missing []int
	for _, c := range q.ChunkIDs {
		switch {
		case n.ds.HasPayload(q.Item.WithChunk(c)):
			held = append(held, c)
		case inFlight[c]:
			// Another query chain is already fetching it; the relayed
			// response will match this lingering query too.
		default:
			missing = append(missing, c)
		}
	}

	// Linger, narrowing the wanted set to the still-missing chunks, so
	// returning chunks route back to q.Sender. Held chunks are served
	// directly and need no routing.
	// The lingering TTL is short: a chunk chain either makes progress
	// within seconds or is dead, and a dead chain must stop damping
	// retries quickly (flooded discovery queries keep the long TTL).
	chunkLinger := q.TTL
	if chunkLinger > n.cfg.ChunkRetry/2 {
		chunkLinger = n.cfg.ChunkRetry / 2
	}
	lq := n.lqt.Insert(q, now+chunkLinger)
	n.arm(now + chunkLinger)
	lq.Wanted = append([]int(nil), missing...)

	// Recurse first (sub-queries are small; chunk payloads would delay
	// them in the pacing queue).
	n.sendChunkQueries(q.Item, missing, q.Origin, q.Sender, q.ID)

	// Serve held chunks, one response message per chunk (§VI-A: 256 KB
	// chunks transmit as a unit).
	for _, c := range held {
		payload, ok := n.ds.ChunkPayload(itemKey, c)
		if !ok {
			continue
		}
		msg := wire.NewResponse(wire.Response{
			ID:        n.newID(),
			Kind:      wire.KindChunk,
			Sender:    n.id,
			Receivers: []wire.NodeID{q.Sender},
			Item:      q.Item,
			Blobs:     []wire.Blob{{Desc: q.Item.WithChunk(c), Payload: payload}},
		})
		n.stats.ResponsesSent++
		// Chunk responses carry no Serves bindings (the chunk plane
		// routes via lingering-query wanted sets), so the serve edge is
		// recorded against the incoming query directly.
		n.tr.RespServe(msg.Response.ID, q.ID, 1)
		n.transmit(msg)
	}
}

// relayChunks forwards chunk payloads along the reverse paths of
// lingering chunk queries that still want them, consuming the wanted
// sets so each chunk travels each edge at most once per consumer chain.
func (n *Node) relayChunks(r *wire.Response, now time.Duration) {
	itemKey := r.Item.Key()
	n.routes = n.lqt.MatchItem(n.routes[:0], wire.KindChunk, itemKey, now)
	defer clear(n.routes)
	for _, b := range r.Blobs {
		cid, ok := b.Desc.ChunkID()
		if !ok {
			continue
		}
		var recv []wire.NodeID
		for _, lq := range n.routes {
			idx := indexOf(lq.Wanted, cid)
			if idx < 0 {
				continue
			}
			// Consume: this lingering query no longer waits for cid.
			// The wanted set is the LQT's private copy — the delivered
			// query and its ChunkIDs stay frozen (DESIGN.md §8).
			lq.Wanted = append(lq.Wanted[:idx], lq.Wanted[idx+1:]...)
			if lq.Query.Origin != n.id {
				n.tr.LQMatch(r.ID, lq.Query.ID)
				recv = insertSorted(recv, lq.Query.Sender, cmp.Compare)
			}
		}
		if len(recv) == 0 {
			continue
		}
		n.emit(wire.Response{
			Kind:      wire.KindChunk,
			Receivers: recv,
			Item:      r.Item,
			Blobs:     []wire.Blob{b},
		}, r, 1)
	}
}

// OnSendFailure lets the deployment report per-hop delivery give-ups
// (link layer exhausting retransmissions), for every message kind. Each
// unacked neighbor takes a health-tracker strike: the first blacklists
// it with exponential backoff so the next route computation avoids it,
// and the second declares it dead, invalidating every CDI entry through
// it across all items. (The pre-tracker behavior — dropping only the
// failed item's routes — had no memory: the next stale CDI response
// re-installed the dead neighbor and the retrieval re-selected it
// indefinitely.) For directed chunk queries the failed item's routes
// are additionally dropped at once, and a consumer's own failed request
// frees the affected chunks' window slots immediately instead of
// waiting out the retry timer.
func (n *Node) OnSendFailure(msg *wire.Message, unacked []wire.NodeID) {
	if n.crashed {
		return
	}
	now := n.clk.Now()
	n.stats.SendFailures++
	n.lastSendFailAt = now
	for _, nb := range unacked {
		n.strike(nb, now)
	}
	if msg.Type != wire.TypeQuery || msg.Query == nil || msg.Query.Kind != wire.KindChunk {
		return
	}
	q := msg.Query
	itemKey := q.Item.Key()
	for _, nb := range unacked {
		n.cdi.DropNeighbor(itemKey, nb)
	}
	if q.Origin == n.id {
		if r, ok := n.retrievals[itemKey]; ok && !r.done {
			for _, c := range q.ChunkIDs {
				delete(r.requestedAt, c)
			}
			r.topUp(now)
		}
	}
}

func indexOf(xs []int, x int) int {
	for i, v := range xs {
		if v == x {
			return i
		}
	}
	return -1
}
