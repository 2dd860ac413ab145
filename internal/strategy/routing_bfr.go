package strategy

import (
	"sort"
	"time"

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

// bfrRouting keeps an advertisement table sorted by origin (binary
// search, no map) and synthesizes fallback routes from it when the CDI
// table is empty — e.g. before any CDI round has completed, or after a
// crash wiped the distance vector.
type bfrRouting struct {
	env        RoutingEnv
	adverts    []bfrAdvert   // sorted by origin
	dirty      bool          // content changed since last advert
	nextAdvert time.Duration // re-advertisement due; clock.Never before the first advert
	floods     uint64
	fallbacks  uint64
}

func (r *bfrRouting) Name() string { return "bfr" }

func (r *bfrRouting) OnPublish(string, time.Duration) {
	r.dirty = true
	r.env.TickAt(0) // the advert goes out at the next housekeeping instant
}

// Tick expires stale advert rows and floods a fresh advertisement when
// content changed or the re-advertisement period lapsed.
func (r *bfrRouting) Tick(now time.Duration) time.Duration {
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
func (r *bfrRouting) advertise(now time.Duration) {
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

func (r *bfrRouting) findOrigin(origin wire.NodeID) (int, bool) {
	i := sort.Search(len(r.adverts), func(i int) bool { return r.adverts[i].origin >= origin })
	return i, i < len(r.adverts) && r.adverts[i].origin == origin
}

func (r *bfrRouting) ObserveAdvert(q *wire.Query, now time.Duration) {
	if q.Origin == r.env.Self() || q.Bloom == nil {
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
	i, ok := r.findOrigin(q.Origin)
	if !ok {
		r.adverts = append(r.adverts, bfrAdvert{})
		copy(r.adverts[i+1:], r.adverts[i:])
		r.adverts[i] = row
		return
	}
	// Keep the nearest copy of each origin's advert; a same-or-closer
	// arrival refreshes the filter and the lease, as does replacing an
	// expired row.
	if row.dist <= r.adverts[i].dist || r.adverts[i].expireAt <= now {
		r.adverts[i] = row
	}
}

func (r *bfrRouting) SelectRoutes(itemKey string, chunkID int, now time.Duration) []Route {
	routes := r.env.CDIRoutes(itemKey, chunkID, now)
	if len(routes) > 0 {
		return routes
	}
	var fallback []Route
	for _, a := range r.adverts {
		if a.expireAt <= now || !a.filter.Contains(itemKey) {
			continue
		}
		merged := false
		for j := range fallback {
			if fallback[j].Neighbor == a.via {
				if a.dist < fallback[j].Hop {
					fallback[j].Hop = a.dist
				}
				merged = true
				break
			}
		}
		if !merged {
			fallback = append(fallback, Route{Neighbor: a.via, Hop: a.dist})
		}
	}
	r.fallbacks += uint64(len(fallback))
	return fallback
}

func (r *bfrRouting) HasRoute(itemKey string, chunkID int, now time.Duration) bool {
	if len(r.env.CDIRoutes(itemKey, chunkID, now)) > 0 {
		return true
	}
	for _, a := range r.adverts {
		if a.expireAt > now && a.filter.Contains(itemKey) {
			return true
		}
	}
	return false
}

func (r *bfrRouting) OnNeighborDown(nb wire.NodeID) {
	kept := r.adverts[:0]
	for _, a := range r.adverts {
		if a.via != nb {
			kept = append(kept, a)
		}
	}
	r.adverts = kept
}

func (r *bfrRouting) Reset() {
	r.adverts = nil
	r.dirty, r.nextAdvert = false, clock.Never
}

func (r *bfrRouting) Counters() metrics.StrategyCounters {
	return metrics.StrategyCounters{
		AdvertFloods:   r.floods,
		AdvertsHeld:    uint64(len(r.adverts)),
		FallbackRoutes: r.fallbacks,
	}
}
