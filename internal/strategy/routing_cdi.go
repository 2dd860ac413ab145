package strategy

import (
	"time"

	"pds/internal/clock"
	"pds/internal/metrics"
	"pds/internal/wire"
)

// cdiRouting is the paper's routing: chunk requests follow the CDI
// distance-vector table verbatim (§IV-A). Every method besides
// SelectRoutes and HasRoute is a no-op, so a node running "cdi" draws
// the same RNG sequence and sends the same messages as the
// pre-strategy code — the byte-identity anchor for the scenario golden
// rows.
type cdiRouting struct {
	env RoutingEnv
}

func (r *cdiRouting) Name() string { return DefaultRouting }

func (r *cdiRouting) SelectRoutes(itemKey string, chunkID int, now time.Duration) []Route {
	return r.env.CDIRoutes(itemKey, chunkID, now)
}

func (r *cdiRouting) HasRoute(itemKey string, chunkID int, now time.Duration) bool {
	return len(r.env.CDIRoutes(itemKey, chunkID, now)) > 0
}

func (r *cdiRouting) ObserveAdvert(*wire.Query, time.Duration) {}
func (r *cdiRouting) OnPublish(string, time.Duration)          {}
func (r *cdiRouting) OnNeighborDown(wire.NodeID)               {}
func (r *cdiRouting) Tick(time.Duration) time.Duration         { return clock.Never }
func (r *cdiRouting) Reset()                                   {}
func (r *cdiRouting) Counters() metrics.StrategyCounters       { return metrics.StrategyCounters{} }
