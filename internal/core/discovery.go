package core

import (
	"sort"
	"time"

	"pds/internal/attr"
	"pds/internal/bloom"
	"pds/internal/clock"
	"pds/internal/wire"
)

// DiscoveryResult reports the outcome of a discovery or collection
// session.
type DiscoveryResult struct {
	// Entries are the distinct descriptors received (metadata entries,
	// or payload descriptors for data collection), key-sorted.
	Entries []attr.Descriptor
	// Payloads maps descriptor keys to payload bytes for data sessions.
	Payloads map[string][]byte
	// Rounds is the number of discovery rounds run.
	Rounds int
	// Latency is the time from the first query to the arrival of the
	// last new entry — the paper's latency metric (§VI-A).
	Latency time.Duration
	// Duration is the total session wall time including the final idle
	// window that confirmed the last round was over.
	Duration time.Duration
}

// session is an active consumer-side discovery (KindMetadata) or data
// collection (KindData; also the MDR baseline) running the multi-round
// controller of §III-B.2.
type session struct {
	n    *Node
	kind wire.QueryKind
	sel  attr.Query
	cb   func(DiscoveryResult)

	received map[string]attr.Descriptor
	payloads map[string][]byte

	window     time.Duration
	maxRounds  int
	round      int
	roundStart time.Duration
	start      time.Duration
	arrivals   []time.Duration // response arrival times in this round
	roundNew   int             // new entries in this round
	lastNewAt  time.Duration
	bloomSalt  uint64
	// wantTotal stops the session early once this many entries are
	// received (MDR knows the chunk count up front); 0 disables.
	wantTotal int
	// hopLimit scopes query floods (0 = unlimited).
	hopLimit int
	// collectPayloads records payload bytes (data sessions).
	collectPayloads bool
	// extensions counts consecutive loss-triggered extra rounds
	// (ExtendRoundsOnLoss); capped at 2, reset by any progress.
	extensions int

	done       bool
	checkTimer clock.Timer // runs check every RoundCheck until done
}

// DiscoverOptions tune a discovery session beyond the node defaults.
type DiscoverOptions struct {
	// Kind selects metadata discovery (default) or data collection.
	Kind wire.QueryKind
	// WantTotal stops early after this many distinct entries (0 = run
	// the round controller to quiescence).
	WantTotal int
	// CollectPayloads retains payload bytes for data sessions.
	CollectPayloads bool
	// Window overrides Config.Window for this session (0 = default).
	// Payload-heavy collections need a wider window: chunk responses
	// arrive seconds apart under contention, which the metadata-tuned
	// 1 s window would misread as a finished round.
	Window time.Duration
	// MaxRounds overrides Config.MaxRounds for this session (0 = default).
	MaxRounds int
	// HopLimit scopes the query flood to this many hops (0 = whole
	// network, the paper's default for its limited-size targets).
	HopLimit int
}

// Discover starts a PDD session for the selector and invokes cb exactly
// once when the round controller decides no more data is coming (or
// MaxRounds is hit). Entries already cached locally count toward the
// result immediately, which is how a late consumer in a well-gossiped
// network finishes in fractions of a second (§VI-B.2, Figure 7).
func (n *Node) Discover(sel attr.Query, opts DiscoverOptions, cb func(DiscoveryResult)) {
	kind := opts.Kind
	if kind == 0 {
		kind = wire.KindMetadata
	}
	s := &session{
		n:               n,
		kind:            kind,
		sel:             sel,
		cb:              cb,
		received:        make(map[string]attr.Descriptor),
		payloads:        make(map[string][]byte),
		start:           n.clk.Now(),
		bloomSalt:       n.rng.Uint64(),
		wantTotal:       opts.WantTotal,
		collectPayloads: opts.CollectPayloads || kind == wire.KindData,
		window:          opts.Window,
		maxRounds:       opts.MaxRounds,
		hopLimit:        opts.HopLimit,
	}
	if s.window <= 0 {
		s.window = n.cfg.Window
	}
	if s.maxRounds <= 0 {
		s.maxRounds = n.cfg.MaxRounds
	}
	s.checkTimer = clock.NewTimer(n.clk, func() { s.check(); s.scheduleCheck() })
	s.lastNewAt = s.start
	n.discSessions = append(n.discSessions, s)

	// Pre-seed from the local store: cached entries (and payloads) are
	// already "received".
	now := n.clk.Now()
	if kind == wire.KindData {
		for _, d := range n.ds.MatchPayloads(sel, now) {
			s.addEntry(d, now)
		}
	} else {
		for _, d := range n.ds.Match(sel, now) {
			s.addEntry(d, now)
		}
	}
	if s.maybeFinish(now) {
		return
	}
	s.startRound()
	s.scheduleCheck()
}

// addEntry records one received descriptor; returns true when new.
func (s *session) addEntry(d attr.Descriptor, now time.Duration) bool {
	key := d.Key()
	if _, ok := s.received[key]; ok {
		return false
	}
	s.received[key] = d
	s.roundNew++
	s.lastNewAt = now
	if s.collectPayloads {
		if p, ok := s.n.ds.Payload(d); ok {
			s.payloads[key] = p
		}
	}
	return true
}

// startRound launches the next query round: a fresh query id, the Bloom
// filter of everything received so far (salted by round, §V-3), flooded
// to all neighbors. The consumer inserts its own query into its LQT so
// copies of the flood heard back from neighbors are recognized as
// duplicates.
func (s *session) startRound() {
	n := s.n
	s.round++
	s.roundStart = n.clk.Now()
	s.arrivals = s.arrivals[:0]
	s.roundNew = 0

	q := wire.Query{
		ID:     n.newID(),
		Kind:   s.kind,
		TTL:    n.cfg.QueryTTL,
		Sender: n.id,
		Origin: n.id,
		Round:  uint32(s.round),
		Sel:    s.sel,
	}
	if s.hopLimit > 0 && s.hopLimit <= 255 {
		// A receiver with HopsLeft 1 answers but does not forward, so
		// the value is exactly the neighborhood radius in hops.
		q.HopsLeft = uint8(s.hopLimit)
	}
	if n.cfg.BloomEnabled {
		// Even a first-round query with nothing received carries an
		// (empty) filter: responders insert what they serve and relays
		// prune against it, so the same entry cached at several nodes
		// along one path still reaches the consumer exactly once
		// (§III-B.2 en-route rewriting). Size with headroom: rewriting
		// inserts every entry served along the way, not just what the
		// consumer holds; an undersized filter would saturate and fail
		// open.
		capacity := uint64(len(s.received)) * 3
		if capacity < 256 {
			capacity = 256
		}
		if s.round >= 2 && capacity < 4096 {
			// Later rounds need headroom for what the *network* holds,
			// not just what this consumer received: every node on the
			// return paths inserts what it forwards, and a filter that
			// saturates fails open — every node then re-serves its whole
			// cache to this query, starving the lagging consumer that
			// most needed the suppression.
			capacity = 4096
		}
		f := bloom.NewForCapacity(capacity, bloomFPR,
			s.bloomSalt+uint64(s.round))
		//lint:allow determinism Bloom Add is commutative; insertion order cannot change the filter bits
		for key := range s.received {
			f.Add(key)
		}
		q.Bloom = f
	}
	msg := wire.NewQuery(q)
	n.lqt.Insert(msg.Query, s.roundStart+q.TTL)
	n.arm(s.roundStart + q.TTL)
	n.tr.QueryStart(q.ID, s.round, q.Kind.String())
	n.transmit(msg)
}

func (s *session) scheduleCheck() {
	if !s.done {
		s.checkTimer.Reset(RoundCheck)
	}
}

// check evaluates the round rules of §III-B.2: the round is finished
// when the fraction of responses arriving within the last Window drops
// to StopRatio (T_r); a new round starts when the fraction of new
// entries in the finished round exceeds NewRoundRatio (T_d).
func (s *session) check() {
	if s.done {
		return
	}
	n := s.n
	now := n.clk.Now()
	if s.maybeFinish(now) {
		return
	}

	elapsed := now - s.roundStart
	total := len(s.arrivals)
	if total == 0 {
		// Nothing arrived at all: give the flood two windows before
		// declaring the round dead.
		if elapsed < 2*s.window {
			return
		}
	} else {
		if elapsed < s.window {
			return
		}
		inWindow := 0
		for _, at := range s.arrivals {
			if now-at <= s.window {
				inWindow++
			}
		}
		if float64(inWindow)/float64(total) > n.cfg.StopRatio {
			return
		}
	}

	// Round over. Start another if enough of what we received this
	// round was new.
	newRatio := 0.0
	if len(s.received) > 0 {
		newRatio = float64(s.roundNew) / float64(len(s.received))
	}
	if s.roundNew > 0 {
		s.extensions = 0
	}
	if newRatio > n.cfg.NewRoundRatio && s.round < s.maxRounds {
		s.startRound()
		return
	}
	// Loss-aware extension: a round that would end the session but
	// showed loss signals — a link give-up during the round, or nothing
	// arriving at all — may have had its responses burned by a burst;
	// run up to two extra rounds before trusting the silence.
	if n.cfg.ExtendRoundsOnLoss && s.extensions < 2 && s.round < s.maxRounds {
		if total == 0 || n.lastSendFailAt >= s.roundStart {
			s.extensions++
			n.stats.RoundExtensions++
			s.startRound()
			return
		}
	}
	s.finish(now)
}

// maybeFinish stops early when the wanted total has been reached.
func (s *session) maybeFinish(now time.Duration) bool {
	if s.wantTotal > 0 && len(s.received) >= s.wantTotal {
		s.finish(now)
		return true
	}
	return false
}

func (s *session) finish(now time.Duration) {
	if s.done {
		return
	}
	s.done = true
	s.checkTimer.Stop()
	s.n.removeSession(s)

	keys := make([]string, 0, len(s.received))
	for k := range s.received {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	res := DiscoveryResult{
		Entries:  make([]attr.Descriptor, len(keys)),
		Rounds:   s.round,
		Latency:  s.lastNewAt - s.start,
		Duration: now - s.start,
	}
	for i, k := range keys {
		res.Entries[i] = s.received[k]
	}
	if s.collectPayloads {
		res.Payloads = s.payloads
	}
	if s.cb != nil {
		s.cb(res)
	}
}

// wantsPayload reports whether an active data-collection session is
// asking for this descriptor.
func (n *Node) wantsPayload(d attr.Descriptor) bool {
	for _, s := range n.discSessions {
		if !s.done && s.kind == wire.KindData && s.sel.Match(d) {
			return true
		}
	}
	return false
}

// notifyDiscovery feeds a cached response into matching sessions: every
// response with at least one selector-matching descriptor counts as an
// arrival for the round controller, and new descriptors are added to
// the result set.
func (n *Node) notifyDiscovery(r *wire.Response, now time.Duration) {
	if len(n.discSessions) == 0 {
		return
	}
	var descs []attr.Descriptor
	switch r.Kind {
	case wire.KindMetadata:
		descs = r.Entries
	case wire.KindData:
		// Collected into a variable distinct from descs: descs also
		// holds a frozen r.Entries alias on the metadata path, and
		// frozenmsg classifies a local once for the whole function.
		fresh := make([]attr.Descriptor, len(r.Blobs))
		for i, b := range r.Blobs {
			fresh[i] = b.Desc
		}
		descs = fresh
	default:
		return
	}
	for _, s := range n.discSessions {
		if s.done || s.kind != r.Kind {
			continue
		}
		touched := false
		for _, d := range descs {
			if !s.sel.Match(d) {
				continue
			}
			touched = true
			s.addEntry(d, now)
		}
		if touched {
			s.arrivals = append(s.arrivals, now)
			s.maybeFinish(now)
		}
	}
}

func (n *Node) removeSession(s *session) {
	for i, x := range n.discSessions {
		if x == s {
			n.discSessions = append(n.discSessions[:i], n.discSessions[i+1:]...)
			return
		}
	}
}
