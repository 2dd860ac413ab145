package strategy

import (
	"cmp"
	"slices"
	"time"

	"pds/internal/assign"
	"pds/internal/bloom"
	"pds/internal/clock"
	"pds/internal/metrics"
	"pds/internal/wire"
)

// BFR tuning knobs (Marandi et al., "BFR: a Bloom Filter-based Routing
// Approach for Information-Centric Networks", arXiv:1702.00340, adapted
// to PDS: producers flood compact Bloom advertisements of their content
// and forwarders consult the advertisement table when the CDI
// distance-vector has no route).
const (
	// bfrAdvertInterval is the re-advertisement period; adverts also go
	// out promptly after a publish (next housekeeping tick).
	bfrAdvertInterval = 60 * time.Second
	// bfrAdvertLifetime is how long a received advert stays routable; it
	// spans two re-advertisement periods plus slack so one lost flood
	// does not blackhole an origin.
	bfrAdvertLifetime = 150 * time.Second
	// bfrAdvertScope bounds advert flood depth in hops.
	bfrAdvertScope = 8
	// bfrAdvertFPR sizes the advert filter.
	bfrAdvertFPR = 0.01
)

// bfrAdvert is one row of the content-advertisement table: origin's
// content filter is reachable via the neighbor it arrived from, dist
// hops away.
type bfrAdvert struct {
	origin   wire.NodeID
	via      wire.NodeID
	dist     int
	expireAt time.Duration
	// filter is the advert query's frozen Bloom, retained read-only per
	// the wire ownership rules.
	filter *bloom.Filter
}

// BFR is a node's content-advertisement table, sorted by origin (binary
// search, no map): the node asks it for routes when its CDI table has
// none — e.g. before any CDI round has completed, or after a crash
// wiped the distance vector. Every method is a no-op on nil, the table
// of a node that does not run "bfr".
type BFR struct {
	env        RoutingEnv
	adverts    []bfrAdvert   // sorted by origin
	dirty      bool          // content changed since last advert
	nextAdvert time.Duration // re-advertisement due; clock.Never before the first advert
	floods     uint64
	fallbacks  uint64
}

// NewBFR returns an empty advert table for the node env stands for.
func NewBFR(env RoutingEnv) *BFR { return &BFR{env: env, nextAdvert: clock.Never} }

// OnPublish notes that the node now holds payload it should advertise.
func (r *BFR) OnPublish() {
	if r == nil {
		return
	}
	r.dirty = true
	r.env.TickAt(0) // the advert goes out at the next housekeeping instant
}

// Tick expires stale advert rows and floods a fresh advertisement when
// content changed or the re-advertisement period lapsed. It returns the
// next instant it wants to run, clock.Never for none.
func (r *BFR) Tick(now time.Duration) time.Duration {
	if r == nil {
		return clock.Never
	}
	next := clock.Never
	kept := r.adverts[:0]
	for _, a := range r.adverts {
		if a.expireAt > now {
			kept = append(kept, a)
			next = min(next, a.expireAt)
		}
	}
	r.adverts = kept

	if r.dirty || now >= r.nextAdvert {
		r.advertise(now)
	}
	return min(next, r.nextAdvert)
}

// advertise floods a filter of the item keys this node owns, if any.
func (r *BFR) advertise(now time.Duration) {
	keys := r.env.OwnedItemKeys()
	if len(keys) == 0 {
		r.dirty = false
		return
	}
	// Salt varies per flood so a key that false-positives in one advert
	// generation is unlikely to persist in the next.
	f := bloom.NewForCapacity(uint64(len(keys)), bfrAdvertFPR,
		uint64(r.env.Self())*0x9e3779b97f4a7c15+r.floods)
	for _, k := range keys {
		f.Add(k)
	}
	r.env.Flood(&wire.Query{
		ID:       r.env.NewID(),
		Kind:     wire.KindAdvert,
		TTL:      bfrAdvertLifetime,
		Sender:   r.env.Self(),
		Origin:   r.env.Self(),
		HopsLeft: bfrAdvertScope,
		Bloom:    f,
	})
	r.floods++
	r.dirty, r.nextAdvert = false, now+bfrAdvertInterval
}

// ObserveAdvert tables a received advert; q is frozen and stays so.
func (r *BFR) ObserveAdvert(q *wire.Query, now time.Duration) {
	if r == nil || q.Origin == r.env.Self() || q.Bloom == nil {
		return
	}
	row := bfrAdvert{
		origin:   q.Origin,
		via:      q.Sender,
		dist:     int(q.Round) + 1,
		expireAt: now + bfrAdvertLifetime,
		filter:   q.Bloom,
	}
	r.env.TickAt(row.expireAt)
	i, ok := slices.BinarySearchFunc(r.adverts, q.Origin,
		func(a bfrAdvert, o wire.NodeID) int { return cmp.Compare(a.origin, o) })
	if !ok {
		r.adverts = slices.Insert(r.adverts, i, row)
		return
	}
	// Keep the nearest copy of each origin's advert; a same-or-closer
	// arrival refreshes the filter and the lease, as does replacing an
	// expired row.
	if row.dist <= r.adverts[i].dist || r.adverts[i].expireAt <= now {
		r.adverts[i] = row
	}
}

// Routes returns the routes the unexpired adverts matching itemKey
// offer, one per neighbor at its nearest distance, and counts them.
func (r *BFR) Routes(itemKey string, now time.Duration) []assign.Option {
	if r == nil {
		return nil
	}
	var fallback []assign.Option
	for _, a := range r.adverts {
		if a.expireAt <= now || !a.filter.Contains(itemKey) {
			continue
		}
		if j := slices.IndexFunc(fallback, func(o assign.Option) bool { return o.Neighbor == a.via }); j >= 0 {
			fallback[j].Hop = min(fallback[j].Hop, a.dist)
		} else {
			fallback = append(fallback, assign.Option{Neighbor: a.via, Hop: a.dist})
		}
	}
	r.fallbacks += uint64(len(fallback))
	return fallback
}

// Has reports whether Routes would offer any route, counting nothing.
func (r *BFR) Has(itemKey string, now time.Duration) bool {
	if r == nil {
		return false
	}
	for _, a := range r.adverts {
		if a.expireAt > now && a.filter.Contains(itemKey) {
			return true
		}
	}
	return false
}

// OnNeighborDown drops the adverts learned via a neighbor the node has
// declared dead.
func (r *BFR) OnNeighborDown(nb wire.NodeID) {
	if r == nil {
		return
	}
	r.adverts = slices.DeleteFunc(r.adverts, func(a bfrAdvert) bool { return a.via == nb })
}

// Reset drops all volatile state (node crash).
func (r *BFR) Reset() {
	if r == nil {
		return
	}
	r.adverts = nil
	r.dirty, r.nextAdvert = false, clock.Never
}

// Counters returns the routing fields of the plane's counters.
func (r *BFR) Counters() metrics.StrategyCounters {
	if r == nil {
		return metrics.StrategyCounters{}
	}
	return metrics.StrategyCounters{
		AdvertFloods:   r.floods,
		AdvertsHeld:    uint64(len(r.adverts)),
		FallbackRoutes: r.fallbacks,
	}
}
