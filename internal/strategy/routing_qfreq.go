package strategy

import (
	"sort"
	"time"

	"pds/internal/metrics"
	"pds/internal/wire"
)

// Query-frequency tuning knobs. The decay halves every counter each
// interval, so an item needs sustained demand to stay hot (the
// "forwarding information updated by query frequency" idea of Tsai,
// arXiv:2106.11181, transplanted onto PDS's CDI plane).
const (
	qfreqDecayInterval = 30 * time.Second
	qfreqHotThreshold  = 4
)

// qfreqRouting counts chunk/CDI queries per item and, for items whose
// decayed count crosses the hot threshold, concentrates requests on the
// nearest replicas: the CDI rows are pruned to the minimum hop count,
// so a popular item is fetched over the shortest (cheapest, most
// cacheable) paths instead of being load-balanced across far copies.
// Cold items route exactly like the default.
//
// The frequency table is a pair of parallel slices sorted by item key —
// no map, so iteration order is inherently deterministic.
type qfreqRouting struct {
	env       *RoutingEnv
	keys      []string // sorted item keys
	counts    []uint32 // parallel decayed query counts
	lastDecay time.Duration
	overrides uint64
}

func (r *qfreqRouting) Name() string { return "qfreq" }

func (r *qfreqRouting) find(itemKey string) (int, bool) {
	i := sort.SearchStrings(r.keys, itemKey)
	return i, i < len(r.keys) && r.keys[i] == itemKey
}

func (r *qfreqRouting) ObserveQuery(itemKey string, _ wire.NodeID, _ time.Duration) {
	i, ok := r.find(itemKey)
	if ok {
		r.counts[i]++
		return
	}
	r.keys = append(r.keys, "")
	copy(r.keys[i+1:], r.keys[i:])
	r.keys[i] = itemKey
	r.counts = append(r.counts, 0)
	copy(r.counts[i+1:], r.counts[i:])
	r.counts[i] = 1
}

func (r *qfreqRouting) SelectRoutes(itemKey string, chunkID int, now time.Duration) []Route {
	routes := r.env.CDIRoutes(itemKey, chunkID, now)
	i, ok := r.find(itemKey)
	if !ok || r.counts[i] < qfreqHotThreshold || len(routes) < 2 {
		return routes
	}
	minHop := routes[0].Hop
	for _, rt := range routes[1:] {
		if rt.Hop < minHop {
			minHop = rt.Hop
		}
	}
	kept := routes[:0]
	for _, rt := range routes {
		if rt.Hop == minHop {
			kept = append(kept, rt)
		}
	}
	if len(kept) < len(routes) {
		r.overrides++
	}
	return kept
}

// Tick halves the counters once per decay interval, counted or not.
func (r *qfreqRouting) Tick(now time.Duration) time.Duration {
	if now-r.lastDecay < qfreqDecayInterval {
		return r.lastDecay + qfreqDecayInterval
	}
	r.lastDecay = now
	keptKeys, keptCounts := r.keys[:0], r.counts[:0]
	for i, c := range r.counts {
		if c >>= 1; c > 0 {
			keptKeys = append(keptKeys, r.keys[i])
			keptCounts = append(keptCounts, c)
		}
	}
	r.keys, r.counts = keptKeys, keptCounts
	return now + qfreqDecayInterval
}

func (r *qfreqRouting) Reset() {
	r.keys, r.counts = nil, nil
	r.lastDecay = 0
	r.env.TickAt(qfreqDecayInterval)
}

func (r *qfreqRouting) Counters() metrics.StrategyCounters {
	return metrics.StrategyCounters{
		FreqEntries:    uint64(len(r.keys)),
		RouteOverrides: r.overrides,
	}
}

func (r *qfreqRouting) ObserveAdvert(*wire.Query, time.Duration) {}
func (r *qfreqRouting) OnPublish(string, time.Duration)          {}
func (r *qfreqRouting) OnNeighborDown(wire.NodeID)               {}
