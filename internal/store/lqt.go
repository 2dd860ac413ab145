package store

import (
	"cmp"
	"slices"
	"time"

	"pds/internal/attr"
	"pds/internal/bloom"
	"pds/internal/clock"
	"pds/internal/trace"
	"pds/internal/wire"
)

// LingeringQuery is one entry of the Lingering Query Table (§III-A): a
// received query that stays until expiration and keeps directing
// matching responses back toward its sender. Bloom is the filter received
// with the query, Query.Bloom itself, until this node first forwards toward
// the query, and from then on a private copy rewritten en route (§III-B.2);
// Query stays shared and read-only.
type LingeringQuery struct {
	Query    *wire.Query
	ExpireAt time.Duration
	Bloom    *bloom.Filter
	// Served marks that this node has answered the query from its own
	// store (Algorithm 1's DS-lookup response happens once per query;
	// the lingering entry keeps steering *relayed* responses after).
	Served bool
	// Exhausted marks a one-shot (non-lingering) query that has steered
	// its single response. It stays in the table so redundant flood
	// copies are still recognized (removing it outright would let every
	// later copy reinsert and re-flood the query forever), but it no
	// longer serves or relays anything.
	Exhausted bool
	// Wanted is this node's private copy of a chunk query's still-wanted
	// chunk ids. The chunk relay plane consumes it as payloads pass by
	// (each chunk travels each reverse edge at most once per consumer
	// chain); Query.ChunkIDs stays frozen with the shared message, like
	// Bloom above.
	Wanted []int
	// forwarded records the entry keys this node has already sent
	// toward the query (served or relayed). Unlike the query's Bloom
	// filter — which is sized for the wire and can saturate under
	// en-route insertion — this local set is exact, so a duplicate copy
	// arriving via another branch is never re-forwarded. Without it a
	// saturated wire filter fails open and overlapping reverse trees
	// amplify every entry into a mesh-wide storm.
	forwarded map[string]bool
}

// Verdict is the outcome of offering one unit (a metadata entry or a
// payload descriptor) to one lingering query.
type Verdict uint8

const (
	// Unmatched: the query's selector does not cover the unit.
	Unmatched Verdict = iota
	// AlreadySent: this node forwarded the unit toward the query before;
	// the query wanted it, but nothing travels again.
	AlreadySent
	// Suppressed: the query's Bloom filter says downstream already holds
	// the unit (§III-B.2).
	Suppressed
	// Fresh: the unit is new to the query and has just been recorded as
	// sent toward it.
	Fresh
)

// Offer is the per-(unit, lingering query) rule of mixedcast with
// en-route rewriting (§III-B.1, §III-B.2), decided in this order:
// selector match, the exact already-forwarded set, then the Bloom
// filter. A Fresh verdict has rewritten the query's state — the key is
// in a private Bloom clone the first Fresh makes (never in the frozen
// Query.Bloom) and in the forwarded set — so a filter entry is only ever
// added, never lost, and the same unit is never Fresh twice. A saturated
// filter fails open (see forwarded above): it is then not consulted at
// all. key is d.Key(), passed in because callers offer one unit to many
// queries. Every verdict but Fresh allocates nothing.
//
//pds:hotpath
func (lq *LingeringQuery) Offer(d attr.Descriptor, key string) Verdict {
	if !lq.Query.Sel.Match(d) {
		return Unmatched
	}
	if lq.forwarded[key] {
		return AlreadySent
	}
	if lq.Bloom != nil {
		if !lq.Bloom.Overloaded() && lq.Bloom.Contains(key) {
			return Suppressed
		}
		if lq.Bloom == lq.Query.Bloom {
			lq.Bloom = lq.Bloom.Clone()
		}
		lq.Bloom.Add(key)
	}
	lq.markForwarded(key)
	return Fresh
}

// markForwarded records key in the exact already-forwarded set.
func (lq *LingeringQuery) markForwarded(key string) {
	if lq.forwarded == nil {
		lq.forwarded = make(map[string]bool)
	}
	lq.forwarded[key] = true
}

// LQT is the Lingering Query Table. Queries are keyed by their globally
// unique id; redundant copies are detected and dropped. The zero value
// is an empty table.
type LQT struct {
	queries map[uint64]*LingeringQuery // nil until the first Insert
	// tr records LQT insert/expire trace events; nil is free.
	tr *trace.NodeTracer
}

// SetTracer installs a node-bound tracer for LQT events. A nil tracer
// disables them.
func (t *LQT) SetTracer(tr *trace.NodeTracer) { t.tr = tr }

// Exists reports whether an unexpired query with the id lingers.
func (t *LQT) Exists(id uint64, now time.Duration) bool {
	lq, ok := t.queries[id]
	return ok && lq.ExpireAt > now
}

// Insert adds a query, replacing any previous copy with the same id.
// The query itself is referenced, not copied — delivered queries are
// immutable and may be shared by every node that heard the same frame —
// and so is its Bloom filter, which Offer clones when it first has
// something to add (most hearers of a flooded query never do). The chunk
// wanted set (consumed as payloads relay through) is cloned here: mutating
// the query's own fields would corrupt the message for every other holder.
func (t *LQT) Insert(q *wire.Query, expireAt time.Duration) *LingeringQuery {
	lq := &LingeringQuery{Query: q, ExpireAt: expireAt, Bloom: q.Bloom}
	if len(q.ChunkIDs) > 0 {
		lq.Wanted = append([]int(nil), q.ChunkIDs...)
	}
	if t.queries == nil {
		t.queries = make(map[uint64]*LingeringQuery)
	}
	t.queries[q.ID] = lq
	t.tr.LQTInsert(q.ID)
	return lq
}

// Get returns the lingering query with the id, if unexpired.
func (t *LQT) Get(id uint64, now time.Duration) (*LingeringQuery, bool) {
	lq, ok := t.queries[id]
	if !ok || lq.ExpireAt <= now {
		return nil, false
	}
	return lq, true
}

// AllOfKind appends the unexpired lingering queries of the kind to dst,
// sorted by query id.
func (t *LQT) AllOfKind(dst []*LingeringQuery, kind wire.QueryKind, now time.Duration) []*LingeringQuery {
	from := len(dst)
	for _, lq := range t.queries {
		if lq.ExpireAt > now && lq.Query.Kind == kind {
			dst = append(dst, lq)
		}
	}
	slices.SortFunc(dst[from:], byQueryID)
	return dst
}

func byQueryID(a, b *LingeringQuery) int { return cmp.Compare(a.Query.ID, b.Query.ID) }

// MatchItem appends to dst the unexpired lingering queries of the kind
// whose Item descriptor equals the given item (CDI and chunk planes match
// on the requested item, not on predicates), sorted by query id.
func (t *LQT) MatchItem(dst []*LingeringQuery, kind wire.QueryKind, itemKey string, now time.Duration) []*LingeringQuery {
	from := len(dst)
	for _, lq := range t.queries {
		if lq.ExpireAt <= now || lq.Query.Kind != kind {
			continue
		}
		if lq.Query.Item.Key() != itemKey {
			continue
		}
		dst = append(dst, lq)
	}
	slices.SortFunc(dst[from:], byQueryID)
	return dst
}

// Expire removes expired queries (§III-A: "a lingering query stays in
// the LQT until its expiration, upon which it is removed") and returns
// the earliest expiry still held, clock.Never when none.
func (t *LQT) Expire(now time.Duration) time.Duration {
	// Collect and sort before emitting: LQTExpire events land in the
	// trace export, which must not inherit map iteration order.
	next := clock.Never
	var expired []uint64
	for id, lq := range t.queries {
		if lq.ExpireAt <= now {
			expired = append(expired, id)
		} else {
			next = min(next, lq.ExpireAt)
		}
	}
	slices.Sort(expired)
	for _, id := range expired {
		delete(t.queries, id)
		t.tr.LQTExpire(id)
	}
	return next
}

// Len returns the number of queries currently held, expired or not.
func (t *LQT) Len() int { return len(t.queries) }

// RecentResponses tracks recently seen response ids to drop redundant
// copies (§III-A RR lookup). Entries are pruned after a retention
// window.
type RecentResponses struct {
	seen      map[uint64]time.Duration // nil until the first Seen
	retention time.Duration
}

// NewRecentResponses returns a cache with the given retention.
func NewRecentResponses(retention time.Duration) *RecentResponses {
	return &RecentResponses{retention: retention}
}

// Seen records the id and reports whether it had been seen within the
// retention window.
func (r *RecentResponses) Seen(id uint64, now time.Duration) bool {
	at, ok := r.seen[id]
	if r.seen == nil {
		r.seen = make(map[uint64]time.Duration)
	}
	r.seen[id] = now
	return ok && now-at < r.retention
}

// Prune removes entries older than the retention window and returns
// the instant the oldest one left ages out, clock.Never when none.
func (r *RecentResponses) Prune(now time.Duration) time.Duration {
	next := clock.Never
	for id, at := range r.seen {
		if now-at >= r.retention {
			delete(r.seen, id)
		} else {
			next = min(next, at+r.retention)
		}
	}
	return next
}

// Len returns the number of tracked ids.
func (r *RecentResponses) Len() int { return len(r.seen) }
