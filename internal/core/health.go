package core

import (
	"time"

	"pds/internal/wire"
)

// Neighbor-health constants. A neighbor that exhausts link-layer
// retransmissions is blacklisted with exponential backoff — 2s, 4s, 8s …
// capped at 60s — and declared dead (all CDI routes through it dropped)
// at the second consecutive failure. After the backoff expires the
// neighbor becomes eligible again (decayed re-probe): one successful
// exchange clears its record entirely, and a failure streak with no
// failures for healthDecay is forgotten.
const (
	blacklistBase = 2 * time.Second
	blacklistMax  = 60 * time.Second
	healthDecay   = 90 * time.Second
	deadThreshold = 2
)

// neighborHealth is the failure record for one neighbor.
type neighborHealth struct {
	fails        int
	lastFailAt   time.Duration
	blockedUntil time.Duration
}

// healthTracker remembers per-neighbor delivery failures so repeated
// give-ups toward a dead neighbor stop re-selecting it. This is the
// memory the original OnSendFailure lacked: it dropped the item's CDI
// routes but the very next CDI response from a stale relay re-installed
// them, and the retrieval ping-ponged against the dead node until the
// round budget ran out. The zero value holds no records.
type healthTracker struct {
	m map[wire.NodeID]*neighborHealth // nil until the first failure
}

// recordFailure notes a delivery give-up toward nb and returns its
// consecutive-failure count. The blacklist window doubles per failure.
func (h *healthTracker) recordFailure(nb wire.NodeID, now time.Duration) int {
	e, ok := h.m[nb]
	if !ok {
		if h.m == nil {
			h.m = make(map[wire.NodeID]*neighborHealth)
		}
		e = &neighborHealth{}
		h.m[nb] = e
	}
	if e.fails > 0 && now-e.lastFailAt >= healthDecay {
		e.fails = 0 // stale streak: start over
	}
	e.fails++
	e.lastFailAt = now
	backoff := blacklistBase
	for i := 1; i < e.fails && backoff < blacklistMax; i++ {
		backoff *= 2
	}
	if backoff > blacklistMax {
		backoff = blacklistMax
	}
	e.blockedUntil = now + backoff
	return e.fails
}

// recordSuccess clears nb's failure record — any completed exchange
// proves the link works again.
func (h *healthTracker) recordSuccess(nb wire.NodeID) {
	delete(h.m, nb)
}

// blocked reports whether nb is inside its blacklist window. Once the
// window expires the neighbor may be re-probed even though its failure
// streak is remembered (so the next failure backs off harder).
func (h *healthTracker) blocked(nb wire.NodeID, now time.Duration) bool {
	e, ok := h.m[nb]
	return ok && now < e.blockedUntil
}

// strike records a delivery failure toward nb, from the link layer or a
// face. The first backs nb off; at deadThreshold nb is dead, and every
// route through it goes, from the CDI table and the routing strategy.
func (n *Node) strike(nb wire.NodeID, now time.Duration) {
	if n.health.recordFailure(nb, now) == deadThreshold {
		n.stats.NeighborsDead++
		n.cdi.DropNeighborAll(nb)
		n.routing.OnNeighborDown(nb)
	}
}
