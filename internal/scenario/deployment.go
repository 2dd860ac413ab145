// Package scenario wires the substrates into runnable experiments: it
// builds simulated deployments (grids, mobile areas), seeds data, runs
// consumers and reports the §VI-A metrics. Every figure of the paper's
// evaluation is an entry of the Figures table, which cmd/pds-bench runs.
package scenario

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"sort"
	"time"

	"pds/internal/attr"
	"pds/internal/core"
	"pds/internal/diskstore"
	"pds/internal/fault"
	"pds/internal/link"
	"pds/internal/metrics"
	"pds/internal/mobility"
	"pds/internal/radio"
	"pds/internal/sim"
	"pds/internal/trace"
	"pds/internal/wire"
)

// Options configures a deployment. A zero Radio, Link or Core selects
// the paper's default for that layer; any other value is used as given.
type Options struct {
	Seed  int64
	Radio radio.Config
	Link  link.Config
	Core  core.Config
	// DataDir, when set, gives every peer a persistent chunk store at
	// DataDir/node-<id>: owned data survives crash/restart cycles on
	// disk instead of being held in the crashed node's RAM, and a
	// restart replays it through the real recovery path. Empty (the
	// default) keeps peers purely in-memory: no file is written and
	// rows carry no disk counters.
	DataDir string
}

func (o Options) withDefaults() Options {
	if o.Radio == (radio.Config{}) {
		o.Radio = radio.DefaultConfig()
	}
	if o.Link == (link.Config{}) {
		o.Link = link.DefaultConfig(nil)
	}
	if o.Core == (core.Config{}) {
		o.Core = core.DefaultConfig()
	}
	return o
}

// Peer bundles one node's protocol engine, link layer and radio.
type Peer struct {
	ID    wire.NodeID
	Node  *core.Node
	Link  *link.Link
	Radio *radio.Radio
	// Down marks a crashed (powered-off) peer awaiting restart.
	Down bool
	// Disk is the peer's persistent backend, nil without Options.DataDir.
	Disk *diskstore.Backend
	// src is the source of the node's rng, held here rather than on its own.
	src lazySource
}

// Deployment is a simulated PDS network.
type Deployment struct {
	Eng    *sim.Engine
	Medium *radio.Medium
	Peers  map[wire.NodeID]*Peer
	// peerIDs mirrors the keys of Peers in ascending order, maintained
	// incrementally by AddPeer/Depart so city-scale loops never pay
	// a collect-and-sort over the whole population per call.
	peerIDs []wire.NodeID
	opts    Options
	seed    int64
	pinned  map[wire.NodeID]bool
	tracer  *trace.Tracer
}

// EnableTracing attaches a hop-level event tracer to the whole
// deployment: the medium records frame fates and every existing or
// later-added peer records link/protocol/store events. perNodeCap
// bounds each node's ring (<= 0 selects trace.DefaultPerNodeCap). The
// tracer reads only the engine clock — never its RNG — so a traced run
// produces exactly the metric rows of an untraced one.
func (d *Deployment) EnableTracing(perNodeCap int) *trace.Tracer {
	if d.tracer == nil {
		d.tracer = trace.New(d.Eng.Now, perNodeCap)
		d.Medium.Tracer = d.tracer
		for _, id := range d.sortedPeerIDs() {
			d.wireTracer(d.Peers[id])
		}
	}
	return d.tracer
}

// Tracer returns the deployment's tracer, nil when tracing is off.
func (d *Deployment) Tracer() *trace.Tracer { return d.tracer }

// wireTracer installs the deployment tracer into one peer's layers.
func (d *Deployment) wireTracer(p *Peer) {
	if d.tracer == nil {
		return
	}
	nt := d.tracer.ForNode(p.ID)
	p.Link.SetTracer(nt)
	p.Node.SetTracer(nt)
}

// New creates an empty deployment.
func New(opts Options) *Deployment {
	eng := sim.NewEngine(opts.Seed)
	opts = opts.withDefaults()
	return &Deployment{
		Eng:    eng,
		Medium: radio.NewMedium(eng, opts.Radio),
		Peers:  make(map[wire.NodeID]*Peer),
		opts:   opts,
		seed:   opts.Seed,
	}
}

// AddPeer creates a node at the position, fully wired: radio delivery
// feeds the link layer, surviving frames feed the protocol engine, and
// link give-ups feed route invalidation.
func (d *Deployment) AddPeer(id wire.NodeID, pos radio.Pos) *Peer {
	p := &Peer{ID: id, src: lazySource{seed: d.seed ^ (int64(id)+1)*0x5851f42d4c957f2d}}
	rng := rand.New(&p.src)
	d.attachRadio(p, pos)
	p.Link = link.New(d.Eng, id, p.Radio.Send, d.opts.Link)
	p.Link.EnableTransmitNotify()
	p.Radio.OnTransmitted = p.Link.NotifyTransmitted
	p.Node = core.NewNode(id, d.Eng, rng, func(msg *wire.Message) { p.Link.Send(msg) }, d.opts.Core)
	p.Link.OnGiveUp = p.Node.OnSendFailure
	d.wireTracer(p)
	if d.opts.DataDir != "" {
		d.attachDisk(p)
	}
	d.Peers[id] = p
	i := sort.Search(len(d.peerIDs), func(i int) bool { return d.peerIDs[i] >= id })
	d.peerIDs = append(d.peerIDs, 0)
	copy(d.peerIDs[i+1:], d.peerIDs[i:])
	d.peerIDs[i] = id
	return p
}

// lazySource is rand.NewSource(seed), bit for bit, built at the first
// draw: the 4.9 KB table is wasted on peers that never draw.
type lazySource struct {
	seed          int64
	rand.Source64 // nil until then
}

func (l *lazySource) src() rand.Source64 {
	if l.Source64 == nil {
		l.Source64 = rand.NewSource(l.seed).(rand.Source64)
	}
	return l.Source64
}
func (l *lazySource) Int63() int64   { return l.src().Int63() }
func (l *lazySource) Uint64() uint64 { return l.src().Uint64() }

// attachRadio puts the peer's radio on the medium at pos: delivered
// frames feed the link layer, surviving ones the protocol engine.
func (d *Deployment) attachRadio(p *Peer, pos radio.Pos) {
	p.Radio = d.Medium.Attach(p.ID, pos, func(msg *wire.Message) {
		if up := p.Link.HandleIncoming(msg); up != nil {
			p.Node.HandleMessage(up)
		}
	})
}

// nodeDataDir is the per-peer store root under Options.DataDir.
func (d *Deployment) nodeDataDir(id wire.NodeID) string {
	return filepath.Join(d.opts.DataDir, fmt.Sprintf("node-%d", id))
}

// attachDisk opens (or reopens) the peer's persistent store and
// attaches it under the node's data store, replaying whatever survives
// in it. Deployments are test/bench harnesses, so a disk that cannot
// open is a hard setup failure.
func (d *Deployment) attachDisk(p *Peer) {
	st, err := diskstore.Open(d.nodeDataDir(p.ID), diskstore.Options{})
	if err != nil {
		panic(fmt.Sprintf("scenario: open data dir for node %d: %v", p.ID, err))
	}
	p.Disk = diskstore.NewBackend(st)
	p.Node.AttachBackend(p.Disk)
}

// Pin exempts a node from trace-driven leave events: the measurement
// consumer must exist for the whole experiment, as the paper's did.
func (d *Deployment) Pin(id wire.NodeID) {
	if d.pinned == nil {
		d.pinned = make(map[wire.NodeID]bool)
	}
	d.pinned[id] = true
}

// Depart detaches a node for good (a person leaving with their device,
// a producer walking away mid-retrieval). Pinned nodes stay. Crash,
// Restart and Depart implement fault.Target.
func (d *Deployment) Depart(id wire.NodeID) {
	if d.pinned[id] {
		return
	}
	if p, ok := d.Peers[id]; ok {
		p.Node.Stop()
		d.Medium.Detach(id)
		if p.Disk != nil {
			p.Disk.Store().Close()
		}
		delete(d.Peers, id)
		i := sort.Search(len(d.peerIDs), func(i int) bool { return d.peerIDs[i] >= id })
		d.peerIDs = append(d.peerIDs[:i], d.peerIDs[i+1:]...)
	}
}

// Crash powers a node off in place: its radio detaches (in-flight
// frames toward it are lost), its link layer cancels all ARQ state and
// its protocol engine wipes everything volatile. The peer stays in the
// deployment, marked Down, until Restart. Pinned peers (the measurement
// consumer) cannot crash.
func (d *Deployment) Crash(id wire.NodeID) {
	p, ok := d.Peers[id]
	if !ok || p.Down || d.pinned[id] {
		return
	}
	p.Down = true
	d.Medium.Detach(id)
	p.Node.Crash()
	p.Link.Reset()
	if p.Disk != nil {
		// The device's file handles die with it; the restart path must
		// reopen the directory and replay the log for real.
		p.Disk.Store().Close()
		p.Disk = nil
	}
}

// Restart powers a crashed peer back on at its crash position — where
// its detached radio stayed — with a fresh radio; only owned data
// survived in its store. With a data dir,
// the peer's diskstore is reopened and its log replayed — the owned
// data comes back from disk through the recovery scan, not from the
// scenario's seeding config.
func (d *Deployment) Restart(id wire.NodeID) {
	p, ok := d.Peers[id]
	if !ok || !p.Down {
		return
	}
	p.Down = false
	d.attachRadio(p, p.Radio.Pos())
	p.Radio.OnTransmitted = p.Link.NotifyTransmitted
	p.Link.SetRawSender(p.Radio.Send)
	if d.opts.DataDir != "" {
		d.attachDisk(p)
	}
	p.Node.Restart()
}

// DiskCounters rolls up the persistent-store counters of every peer
// that currently has an open diskstore; nil for in-memory deployments,
// whose rows then carry no disk counters.
func (d *Deployment) DiskCounters() *metrics.DiskCounters {
	var out metrics.DiskCounters
	found := false
	for _, id := range d.sortedPeerIDs() {
		p := d.Peers[id]
		if p.Disk == nil {
			continue
		}
		found = true
		st := p.Disk.Store().Stats()
		metrics.Add(&out, metrics.DiskCounters{
			Segments:         uint64(st.Segments),
			LiveBytes:        uint64(st.LiveBytes),
			DeadBytes:        uint64(st.DeadBytes),
			BytesWritten:     st.BytesWritten,
			Compactions:      st.Compactions,
			SpillWrites:      p.Disk.SpillWrites(),
			SpillLoads:       p.Disk.SpillLoads(),
			RecoveredRecords: uint64(st.LastRecovery.Records),
			SkippedRecords:   uint64(st.LastRecovery.SkippedRecords),
		})
	}
	if !found {
		return nil
	}
	return &out
}

// StrategyCounters rolls up the routing/caching strategy counters of
// every live peer. It returns nil unless the deployment selected a
// strategy explicitly (Options.Core.Routing or .Caching non-empty), so
// a row carries strategy counters only when it named a strategy.
func (d *Deployment) StrategyCounters() *metrics.StrategyCounters {
	if d.opts.Core.Routing == "" && d.opts.Core.Caching == "" {
		return nil
	}
	var out metrics.StrategyCounters
	for _, id := range d.sortedPeerIDs() {
		p := d.Peers[id]
		if p.Down {
			continue
		}
		metrics.Add(&out, p.Node.StrategyCounters())
	}
	return &out
}

// Close releases per-peer resources (open diskstores). Only needed for
// deployments built with Options.DataDir.
func (d *Deployment) Close() {
	for _, id := range d.sortedPeerIDs() {
		if p := d.Peers[id]; p.Disk != nil {
			p.Disk.Store().Close()
			p.Disk = nil
		}
	}
}

// InstallFaults wires a fault plan into the deployment: the injector
// takes over the medium's loss channel (preserving the configured
// ambient BaseLoss outside burst windows) and schedules the plan's node
// faults against this deployment. The injector's own randomness is
// seeded from the plan (falling back to the deployment seed), so
// identical plans on identical deployments reproduce exactly.
func (d *Deployment) InstallFaults(p fault.Plan) *fault.Injector {
	seed := p.Seed
	if seed == 0 {
		seed = d.seed
	}
	in := fault.NewInjector(d.Eng, seed, d)
	in.SetBaseLoss(d.opts.Radio.BaseLoss)
	d.Medium.Channel = in
	in.Install(p)
	return in
}

// Grid builds a rows×cols deployment with the given spacing (§VI-A:
// "each node can communicate directly with its 8 surrounding
// neighbors"). Node ids are 1-based in row-major order.
func Grid(rows, cols int, spacing float64, opts Options) *Deployment {
	d := New(opts)
	for i, pos := range mobility.GridPositions(rows, cols, spacing) {
		d.AddPeer(wire.NodeID(i+1), pos)
	}
	return d
}

// GridSpacing is the default spacing at which the default radio range
// reaches exactly the 8 surrounding neighbors.
const GridSpacing = 30

// CenterID returns the id of the center node of a Grid deployment.
func CenterID(rows, cols int) wire.NodeID {
	return wire.NodeID(mobility.CenterIndex(rows, cols) + 1)
}

// EntryDescriptor builds the i-th synthetic metadata entry descriptor:
// a sensor reading with type, time and location attributes, ~30 bytes
// encoded (§VI-A).
func EntryDescriptor(i int) attr.Descriptor {
	return attr.NewDescriptor().
		Set(attr.AttrNamespace, attr.String("env")).
		Set(attr.AttrDataType, attr.String("nox")).
		Set(attr.AttrName, attr.String(fmt.Sprintf("s%06d", i))).
		Set(attr.AttrTime, attr.Int(int64(1600000000+i)))
}

// EntrySelector matches every entry produced by EntryDescriptor.
func EntrySelector() attr.Query {
	return attr.NewQuery(
		attr.Eq(attr.AttrNamespace, attr.String("env")),
		attr.Eq(attr.AttrDataType, attr.String("nox")),
	)
}

// DistributeEntries creates count distinct entries and places each on
// `redundancy` distinct random nodes as owned metadata (§VI-A:
// "distribute metadata entries ... among all nodes uniform randomly").
func (d *Deployment) DistributeEntries(count, redundancy int) {
	ids := d.sortedPeerIDs()
	rng := rand.New(rand.NewSource(d.seed + 7))
	for i := 0; i < count; i++ {
		desc := EntryDescriptor(i)
		for _, idx := range pickDistinct(rng, len(ids), redundancy) {
			d.Peers[ids[idx]].Node.PublishEntry(desc)
		}
	}
}

// ItemDescriptor builds the descriptor of a large shared item (e.g. a
// video clip) of the given size, chunked at 256 KB (§VI-A).
func ItemDescriptor(name string, sizeBytes, chunkSize int) attr.Descriptor {
	total := (sizeBytes + chunkSize - 1) / chunkSize
	return attr.NewDescriptor().
		Set(attr.AttrNamespace, attr.String("media")).
		Set(attr.AttrDataType, attr.String("video")).
		Set(attr.AttrName, attr.String(name)).
		Set(attr.AttrTotalChunks, attr.Int(int64(total)))
}

// DefaultChunkSize is the paper's chunk size (§VI-A).
const DefaultChunkSize = core.DefaultChunkSize

// DistributeChunks places every chunk of the item on `redundancy`
// distinct random nodes, excluding the consumer. All copies of a chunk
// share one payload buffer, so large items cost one copy of memory.
// It returns the item descriptor.
func (d *Deployment) DistributeChunks(item attr.Descriptor, chunkSize, redundancy int, exclude wire.NodeID) attr.Descriptor {
	total := item.TotalChunks()
	ids := make([]wire.NodeID, 0, len(d.Peers))
	for _, id := range d.sortedPeerIDs() {
		if id != exclude {
			ids = append(ids, id)
		}
	}
	rng := rand.New(rand.NewSource(d.seed + 13))
	for c := 0; c < total; c++ {
		payload := make([]byte, chunkSize)
		for i := range payload {
			payload[i] = byte(c + i)
		}
		for _, idx := range pickDistinct(rng, len(ids), redundancy) {
			d.Peers[ids[idx]].Node.PublishChunk(item, c, payload)
		}
	}
	return item
}

// sortedPeerIDs returns the ascending peer id list. The slice is the
// deployment's live cache: callers must not mutate it or add/remove
// peers while iterating it (take a copy for churn loops).
func (d *Deployment) sortedPeerIDs() []wire.NodeID {
	return d.peerIDs
}

// newRand returns a deterministic random source for scenario helpers.
func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

func pickDistinct(rng *rand.Rand, n, k int) []int {
	if k >= n {
		out := make([]int, n)
		for i := range out {
			out[i] = i
		}
		return out
	}
	seen := make(map[int]bool, k)
	out := make([]int, 0, k)
	for len(out) < k {
		i := rng.Intn(n)
		if !seen[i] {
			seen[i] = true
			out = append(out, i)
		}
	}
	return out
}

// ApplyTrace schedules a mobility trace onto the deployment: initial
// nodes must already exist (ids 1..len(Initial)); joins create fresh
// peers, leaves remove them, position events move them.
func (d *Deployment) ApplyTrace(tr mobility.Trace) {
	for _, ev := range tr.Events {
		ev := ev
		id := wire.NodeID(ev.Node + 1)
		d.Eng.Schedule(ev.At, func() {
			switch ev.Kind {
			case mobility.Join:
				if _, ok := d.Peers[id]; !ok {
					d.AddPeer(id, ev.Pos)
				}
			case mobility.Leave:
				d.Depart(id)
			case mobility.Position:
				d.Medium.SetPosition(id, ev.Pos)
			}
		})
	}
}

// MobilityRadioConfig returns the medium settings for open-area
// mobility scenarios: a 60 m indoor Wi-Fi range instead of the 45 m the
// grid uses (the grid value is reverse-engineered from "exactly 8
// neighbors at the grid spacing", §VI-A; an open 120×120 m hall with
// 20 people needs the longer realistic range to stay connected, as the
// paper's prototype hardware would).
func MobilityRadioConfig() radio.Config {
	cfg := radio.DefaultConfig()
	cfg.Range = 60
	return cfg
}

// MobileArea builds a deployment from a mobility profile: the initial
// population is placed and the trace of the given duration is
// scheduled. It returns the deployment and the ids of the initial
// nodes.
func MobileArea(p mobility.Profile, duration time.Duration, opts Options) (*Deployment, []wire.NodeID) {
	if opts.Radio == (radio.Config{}) {
		opts.Radio = MobilityRadioConfig()
	}
	d := New(opts)
	tr := p.Generate(duration, rand.New(rand.NewSource(opts.Seed+99)))
	ids := make([]wire.NodeID, len(tr.Initial))
	for i, pos := range tr.Initial {
		id := wire.NodeID(i + 1)
		d.AddPeer(id, pos)
		ids[i] = id
	}
	d.ApplyTrace(tr)
	return d, ids
}
