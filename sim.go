package pds

import (
	"time"

	"pds/internal/core"
	"pds/internal/mobility"
	"pds/internal/radio"
	"pds/internal/scenario"
	"pds/internal/wire"
)

// Sim is a deterministic simulated PDS deployment: many protocol nodes
// on a modeled broadcast radio medium, driven by a virtual clock. The
// same experiment with the same seed reproduces bit-for-bit. It powers
// the examples and the paper-reproduction benchmarks.
type Sim struct {
	d *scenario.Deployment
}

// SimOptions configures a simulation.
type SimOptions struct {
	// Seed drives all randomness (0 is a valid fixed seed).
	Seed int64
}

func (o SimOptions) toScenario() scenario.Options {
	return scenario.Options{Seed: o.Seed}
}

// NewSim creates an empty simulated deployment.
func NewSim(o SimOptions) *Sim {
	return &Sim{d: scenario.New(o.toScenario())}
}

// NewGridSim creates a rows×cols grid at the paper's spacing (every
// interior node reaches its 8 surrounding neighbors). Node ids are
// 1-based in row-major order.
func NewGridSim(rows, cols int, o SimOptions) *Sim {
	return &Sim{d: scenario.Grid(rows, cols, scenario.GridSpacing, o.toScenario())}
}

// NewMobileSim creates a deployment following a synthetic human
// mobility trace generated from the paper's Student Center observation
// (120×120 m, ~20 people, joins/leaves/moves; §VI-B.2), scaled by
// rateScale, running for duration. It returns the sim and the ids of
// the initially present nodes.
func NewMobileSim(rateScale float64, duration time.Duration, o SimOptions) (*Sim, []NodeID) {
	d, ids := scenario.MobileArea(mobility.StudentCenter().Scale(rateScale), duration, o.toScenario())
	return &Sim{d: d}, ids
}

// AddNode places a node at (x, y) meters and returns its handle.
func (s *Sim) AddNode(id NodeID, x, y float64) *SimNode {
	p := s.d.AddPeer(id, radio.Pos{X: x, Y: y})
	return &SimNode{sim: s, peer: p}
}

// Node returns the handle of an existing node, or nil.
func (s *Sim) Node(id NodeID) *SimNode {
	p, ok := s.d.Peers[id]
	if !ok {
		return nil
	}
	return &SimNode{sim: s, peer: p}
}

// RemoveNode detaches a node (a device leaving with its data).
func (s *Sim) RemoveNode(id NodeID) { s.d.Depart(id) }

// MoveNode repositions a node.
func (s *Sim) MoveNode(id NodeID, x, y float64) {
	s.d.Medium.SetPosition(id, radio.Pos{X: x, Y: y})
}

// Run advances virtual time until the deadline (absolute virtual time).
func (s *Sim) Run(until time.Duration) { s.d.Eng.Run(until) }

// RunUntil advances until stop() returns true or the deadline passes.
func (s *Sim) RunUntil(deadline time.Duration, stop func() bool) {
	s.d.Eng.RunUntil(deadline, stop)
}

// Now returns the current virtual time.
func (s *Sim) Now() time.Duration { return s.d.Eng.Now() }

// OverheadBytes returns total bytes transmitted on the medium so far —
// the paper's message-overhead metric.
func (s *Sim) OverheadBytes() uint64 { return s.d.Medium.Stats().TxBytes }

// SimNode is one node inside a simulation.
type SimNode struct {
	sim  *Sim
	peer *scenario.Peer
}

// ID returns the node id.
func (n *SimNode) ID() NodeID { return n.peer.ID }

// Publish makes a small data item available.
func (n *SimNode) Publish(d Descriptor, payload []byte) { n.peer.Node.PublishSmall(d, payload) }

// PublishEntry announces metadata without payload.
func (n *SimNode) PublishEntry(d Descriptor) { n.peer.Node.PublishEntry(d) }

// PublishItem chunks and publishes a large item, returning the
// completed descriptor.
func (n *SimNode) PublishItem(d Descriptor, payload []byte, chunkSize int) Descriptor {
	return n.peer.Node.PublishItem(d, payload, chunkSize)
}

// Discover starts Peer Data Discovery; cb fires (in virtual time) when
// the round controller finishes. Drive the simulation with Run.
func (n *SimNode) Discover(sel Query, opts DiscoverOptions, cb func(DiscoveryResult)) {
	n.peer.Node.Discover(sel, opts, cb)
}

// DiscoverAndWait runs discovery to completion, advancing virtual time
// as needed (at most maxWait of virtual time).
func (n *SimNode) DiscoverAndWait(sel Query, maxWait time.Duration) (DiscoveryResult, bool) {
	var (
		res  DiscoveryResult
		done bool
	)
	n.peer.Node.Discover(sel, core.DiscoverOptions{}, func(r DiscoveryResult) {
		res = r
		done = true
	})
	n.sim.d.Eng.RunUntil(n.sim.Now()+maxWait, func() bool { return done })
	return res, done
}

// Retrieve starts a two-phase PDR retrieval; cb fires when it
// completes or gives up.
func (n *SimNode) Retrieve(item Descriptor, cb func(RetrievalResult)) {
	n.peer.Node.Retrieve(item, cb)
}

// RetrieveAndWait runs a retrieval to completion in virtual time.
func (n *SimNode) RetrieveAndWait(item Descriptor, maxWait time.Duration) (RetrievalResult, bool) {
	var (
		res  RetrievalResult
		done bool
	)
	n.peer.Node.Retrieve(item, func(r RetrievalResult) {
		res = r
		done = true
	})
	n.sim.d.Eng.RunUntil(n.sim.Now()+maxWait, func() bool { return done })
	return res, done
}

// CollectAndWait gathers small data items matching sel.
func (n *SimNode) CollectAndWait(sel Query, maxWait time.Duration) (DiscoveryResult, bool) {
	var (
		res  DiscoveryResult
		done bool
	)
	n.peer.Node.Discover(sel, core.DiscoverOptions{Kind: wire.KindData, CollectPayloads: true},
		func(r DiscoveryResult) {
			res = r
			done = true
		})
	n.sim.d.Eng.RunUntil(n.sim.Now()+maxWait, func() bool { return done })
	return res, done
}

// Stats returns the node's protocol counters.
func (n *SimNode) Stats() core.Stats { return n.peer.Node.Stats() }
