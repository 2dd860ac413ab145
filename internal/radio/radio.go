// Package radio models a broadcast wireless medium on top of the
// discrete-event engine, replacing the paper's NS-3 substrate.
//
// The model keeps exactly the effects the PDS evaluation depends on:
//
//   - Broadcast with overhearing: every node within range of a
//     transmitter receives (or loses) every frame, whether or not it is
//     an intended receiver.
//   - Airtime: a transmission occupies the channel for size·8/rate plus
//     a fixed per-frame MAC overhead per 1.5 KB fragment, so large chunk
//     messages are slow and collision-prone, as in §VI-B.
//   - CSMA with hidden terminals: a node defers while it senses an
//     in-range transmission, but two mutually out-of-range senders can
//     still overlap at a common receiver, destroying the frame there.
//     Loss therefore grows with concurrent senders and with hop count,
//     which is what drives Figures 3–5.
//   - OS send-buffer overflow: frames enter a finite per-node buffer
//     drained at the MAC rate; when the application outruns the MAC the
//     buffer tail-drops, reproducing the Android UDP behaviour of §V-2
//     (~14% reception for unpaced senders).
//
// Positions, joins, leaves and moves may change at any time, driven by
// package mobility.
//
// Scale: nodes live in a uniform-grid spatial index (package spatial)
// whose cell edge equals the carrier-sense range, so a query for the
// nodes around a point — neighbor lists, delivery fan-out — scans only
// the 3×3 cell block around it instead of the whole population. Carrier
// sensing and collision checks ask the other question, which
// transmissions reach this node, and read it off the few live
// transmission records. Per-node hot state is held in dense slices
// indexed by a small int handle; the id → handle map is touched only on
// attach/detach and API lookups, never in per-frame loops. A radio's
// MAC is one reusable engine timer and a phase, its transmit queue a
// ring: a frame in steady state allocates nothing here.
package radio

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"time"

	"pds/internal/clock"
	"pds/internal/ring"
	"pds/internal/sim"
	"pds/internal/spatial"
	"pds/internal/trace"
	"pds/internal/wire"
)

// Pos is a planar position in meters.
type Pos struct {
	X, Y float64
}

// Dist returns the Euclidean distance between two positions.
func (p Pos) Dist(q Pos) float64 {
	dx, dy := p.X-q.X, p.Y-q.Y
	return math.Sqrt(dx*dx + dy*dy)
}

// Config parametrizes the medium. The defaults (see DefaultConfig) come
// from the paper's prototype measurements (§V-2, §V-4).
type Config struct {
	// Range is the radio range in meters; nodes farther apart neither
	// hear nor interfere with each other.
	Range float64
	// OSBufferBytes is the per-node kernel send buffer capacity.
	// Sends that would overflow it are dropped silently, as observed on
	// the Android prototype.
	OSBufferBytes int
	// BaseLoss is the per-receiver probability that a frame is lost
	// even without any collision (fading, noise).
	BaseLoss float64
	// SenseFactor scales Range to the carrier-sense / interference
	// range: transmissions are sensed (and corrupt receptions) out to
	// Range·SenseFactor. The default 1.9 makes a busy node's entire
	// one-hop neighborhood mutually carrier-coordinated (on the grid,
	// opposite corner neighbors sit 2·√2·30 ≈ 85 m apart, just inside
	// 1.9·45 m): persistent hidden-terminal wars at a retrieval hub are
	// geometrically impossible, which empirically beats smaller factors
	// on both completion and latency. Residual overlaps are resolved by
	// physical capture (CaptureMargin) and per-fragment
	// ack/retransmission; transfers more than ~2 hops apart still
	// pipeline concurrently.
	SenseFactor float64
	// CaptureMargin models physical-layer capture: a frame survives an
	// overlap when every interferer is at least CaptureMargin times
	// farther from the receiver than the frame's sender (the stronger
	// signal captures the radio, as in NS-3's SINR reception model).
	// Values <= 0 disable capture (any overlap destroys the frame).
	CaptureMargin float64
}

// The MAC the paper measured: no experiment varies these.
const (
	// macBitRate is the broadcast transmission rate in bits/second, the
	// 802.11n broadcast rate of §V-2.
	macBitRate = 7.2e6
	// frameBytes is the fragmentation unit; per-fragment MAC overhead is
	// charged once per frameBytes of message size.
	frameBytes = 1500
	// frameOverhead is the fixed airtime cost per fragment (preamble,
	// MAC header, inter-frame spacing).
	frameOverhead = 200 * time.Microsecond
	// slotTime is the contention slot; backoffs are multiples of it.
	slotTime = 9 * time.Microsecond
	// cwSlots is the contention window width in slots (CWmin; broadcast
	// never widens it since there are no MAC acks).
	cwSlots = 64
	// senseLag is how long after a transmission starts it becomes
	// audible to carrier sensing; two nodes starting within it collide.
	senseLag = 9 * time.Microsecond
)

// DefaultConfig returns the medium parameters from the paper: ~1 MB OS
// buffer (the paper observed the first ~658 1.5 KB packets surviving)
// in front of the 7.2 Mbps MAC. The effective per-frame goodput lands
// near 6 Mbps, above the 4.5 Mbps leaky-bucket pacing the prototype
// settled on.
func DefaultConfig() Config {
	return Config{
		Range:         45,
		OSBufferBytes: 1 << 20,
		BaseLoss:      0.01,
		SenseFactor:   1.9,
		CaptureMargin: 1.25,
	}
}

// Stats aggregates medium-wide counters. TxBytes over all transmissions
// (including acks and retransmissions) is the paper's "message overhead"
// metric.
type Stats struct {
	Transmissions uint64
	TxBytes       uint64
	Delivered     uint64
	Collisions    uint64
	RandomLosses  uint64
	BufferDrops   uint64
	CorruptFrames uint64 // channel-model corruptions (discarded by MAC CRC)
	DupFrames     uint64 // channel-model duplicate deliveries
}

// FrameFate is a ChannelModel's verdict on one frame delivery.
type FrameFate int

// Frame fates.
const (
	// FateDeliver hands the frame to the receiver normally.
	FateDeliver FrameFate = iota
	// FateLost drops the frame (fading/noise/burst loss).
	FateLost
	// FateCorrupt delivers a damaged frame; the MAC CRC discards it at
	// the receiver, so upper layers see a silent loss, never garbage.
	FateCorrupt
	// FateDuplicate delivers the frame twice, exercising dedup paths.
	FateDuplicate
)

// ChannelModel decides per-receiver frame fates, replacing the smooth
// i.i.d. BaseLoss draw when installed on a Medium. Fate is called once
// per surviving (non-collided) frame delivery, in deterministic sorted
// receiver order, so a seeded model reproduces exactly.
type ChannelModel interface {
	Fate(from, to wire.NodeID, now time.Duration) FrameFate
}

type queuedFrame struct {
	msg  *wire.Message
	size int
}

// txRecord is one transmission's occupancy of the channel. The live
// ones sit in Medium.txOrder, where the carrier-sense and collision
// queries read them, and they are pooled: the medium recycles a record
// once it can no longer overlap anything.
type txRecord struct {
	owner      *Radio
	start, end time.Duration
}

// macPhase says what a radio's one MAC event will do when it fires.
type macPhase uint8

const (
	macIdle    macPhase = iota // no event pending
	macArmed                   // contention requested: fires into attempt
	macBackoff                 // backoff running: fires into transmitIfClear
	macOnAir                   // frame on the air: fires into endAirtime
)

// Radio is one node's attachment to the medium.
type Radio struct {
	m    *Medium
	id   wire.NodeID
	slot int32 // dense handle into Medium.radios and the spatial grid
	pos  Pos
	// deliver is invoked for every frame that survives to this node.
	deliver func(*wire.Message)

	queue       ring.Queue[queuedFrame]
	queuedBytes int
	gone        bool

	// mac is the radio's only engine event, made at its first Send. A
	// radio contends for one frame at a time and sends one frame at a
	// time, so at most one MAC step is ever pending; phase says which,
	// and airMsg/airRec hold the frame and its record while that step is
	// the end of an airtime.
	mac    clock.Timer
	phase  macPhase
	airMsg *wire.Message
	airRec *txRecord

	// OnTransmitted, when set, is called as each frame's airtime ends —
	// the moment an ack round-trip can meaningfully start. The link
	// layer arms its retransmission timer from here.
	OnTransmitted func(*wire.Message)

	// Per-node counters, read by the MAC tests.
	SentDrop uint64 // frames dropped at the OS buffer
	TxCount  uint64 // frames actually transmitted by this node
}

// Medium is the shared broadcast channel.
type Medium struct {
	eng *sim.Engine
	cfg Config

	// index maps node id to dense slot. It is consulted on attach,
	// detach and id-keyed API lookups only — per-frame paths work on
	// slots and *Radio pointers.
	index  map[wire.NodeID]int32
	radios []*Radio      // dense slot -> radio, nil while slot is free
	free   []int32       // recycled slots
	grid   *spatial.Grid // slot -> position, cell edge = senseRange

	// txOrder holds live-or-recent transmission records in creation
	// (= start-time) order.
	txOrder []*txRecord
	recPool []*txRecord
	active  int // live (unfinished) transmissions
	stats   Stats

	// scratch buffers, reused across queries to keep hot paths
	// allocation-free. cand is valid only until the next candidates
	// call; rxCand and overlap — the receivers of the frame being
	// delivered and the records that share its airtime — are held across
	// the delivery callbacks of one finishTransmission, which may call
	// Neighbors and with it candidates.
	cand    []*Radio
	rxCand  []*Radio
	overlap []*txRecord
	slotBuf []int32

	// OnTransmit, when set, observes every transmission start (tracing).
	OnTransmit func(from wire.NodeID, msg *wire.Message, size int)
	// OnDeliver, when set, observes every successful delivery (tracing).
	OnDeliver func(from, to wire.NodeID, msg *wire.Message)
	// Channel, when set, replaces the BaseLoss draw with a per-delivery
	// fate decision (burst loss, corruption, duplication). Package fault
	// provides a seeded implementation.
	Channel ChannelModel
	// Tracer, when set, records per-frame events (tx with airtime, and
	// the per-receiver fate: rx/lost/collision/corrupt/dup). A nil
	// tracer costs nothing on these paths.
	Tracer *trace.Tracer
}

// NewMedium creates a medium on the engine.
func NewMedium(eng *sim.Engine, cfg Config) *Medium {
	if cfg.Range <= 0 {
		panic(fmt.Sprintf("radio: invalid config %+v", cfg))
	}
	m := &Medium{eng: eng, cfg: cfg, index: make(map[wire.NodeID]int32)}
	// Cell edge = carrier-sense range, the largest radius any query
	// uses, so the 3×3 neighborhood covers both Range and senseRange.
	m.grid = spatial.NewGrid(m.senseRange())
	return m
}

// Stats returns a snapshot of the medium counters.
func (m *Medium) Stats() Stats { return m.stats }

// Config returns the medium configuration.
func (m *Medium) Config() Config { return m.cfg }

// Attach adds a node at pos. deliver receives every surviving frame,
// including overheard ones. Delivered messages are shared across all
// receivers of a broadcast and must be treated as read-only (see the
// wire.Message ownership rules). Attaching an existing id panics:
// scenarios must manage id uniqueness.
func (m *Medium) Attach(id wire.NodeID, pos Pos, deliver func(*wire.Message)) *Radio {
	if _, dup := m.index[id]; dup {
		panic(fmt.Sprintf("radio: duplicate node id %d", id))
	}
	var slot int32
	if n := len(m.free); n > 0 {
		slot = m.free[n-1]
		m.free = m.free[:n-1]
	} else {
		slot = int32(len(m.radios))
		m.radios = append(m.radios, nil)
	}
	r := &Radio{m: m, id: id, slot: slot, pos: pos, deliver: deliver}
	m.index[id] = slot
	m.radios[slot] = r
	m.grid.Insert(slot, pos.X, pos.Y)
	return r
}

// Detach removes a node (mobility leave). In-flight frames are not
// delivered to it, its queued frames are discarded. Frames it had in
// the air stop being sensed or interfering immediately. Its pending MAC
// step, if any, still fires (the engine's timers have no stop) and
// finds nothing to do beyond ending the airtime it may stand for.
func (m *Medium) Detach(id wire.NodeID) {
	slot, ok := m.index[id]
	if !ok {
		return
	}
	r := m.radios[slot]
	r.gone = true
	r.queue.Reset()
	r.queuedBytes = 0
	m.grid.Remove(slot)
	m.radios[slot] = nil
	m.free = append(m.free, slot)
	delete(m.index, id)
}

// SetPosition moves a node.
func (m *Medium) SetPosition(id wire.NodeID, pos Pos) {
	slot, ok := m.index[id]
	if !ok {
		return
	}
	m.radios[slot].pos = pos
	m.grid.Move(slot, pos.X, pos.Y)
}

// Move pairs a node id with a new position for SetPositions.
type Move struct {
	ID  wire.NodeID
	Pos Pos
}

// SetPositions applies a batch of moves — the bulk entry point mobility
// drivers use when advancing every node once per step. Moves for
// detached ids are ignored, like SetPosition.
func (m *Medium) SetPositions(moves []Move) {
	for i := range moves {
		m.SetPosition(moves[i].ID, moves[i].Pos)
	}
}

// Position returns a node's position.
func (m *Medium) Position(id wire.NodeID) (Pos, bool) {
	slot, ok := m.index[id]
	if !ok {
		return Pos{}, false
	}
	return m.radios[slot].pos, true
}

// InRange reports whether two attached nodes are within radio range.
func (m *Medium) InRange(a, b wire.NodeID) bool {
	sa, ok := m.index[a]
	if !ok {
		return false
	}
	sb, ok := m.index[b]
	if !ok {
		return false
	}
	return m.radios[sa].pos.Dist(m.radios[sb].pos) <= m.cfg.Range
}

// candidates fills m.cand with every radio whose current position can
// satisfy a query of radius <= senseRange around p: the 3×3 cell block
// around p's cell. The result aliases m.cand and is invalidated by the
// next call.
//
//pds:hotpath
func (m *Medium) candidates(p Pos) []*Radio {
	m.cand = m.cand[:0]
	m.slotBuf = m.grid.AppendNeighborhood(p.X, p.Y, m.slotBuf[:0])
	for _, s := range m.slotBuf {
		m.cand = append(m.cand, m.radios[s])
	}
	return m.cand
}

// Neighbors returns the ids of all nodes in range of id, excluding id,
// sorted ascending.
func (m *Medium) Neighbors(id wire.NodeID) []wire.NodeID {
	slot, ok := m.index[id]
	if !ok {
		return nil
	}
	self := m.radios[slot]
	var out []wire.NodeID
	for _, r := range m.candidates(self.pos) {
		if r != self && r.pos.Dist(self.pos) <= m.cfg.Range {
			out = append(out, r.id)
		}
	}
	slices.Sort(out)
	return out
}

// airtime returns how long a message of size bytes occupies the channel.
func (m *Medium) airtime(size int) time.Duration {
	frames := (size + frameBytes - 1) / frameBytes
	if frames < 1 {
		frames = 1
	}
	bits := float64(size) * 8
	return time.Duration(bits/macBitRate*float64(time.Second)) +
		time.Duration(frames)*frameOverhead
}

// senseRange returns the carrier-sense / interference radius.
func (m *Medium) senseRange() float64 {
	f := m.cfg.SenseFactor
	if f < 1 {
		f = 1
	}
	return m.cfg.Range * f
}

// audible reports whether a transmission by tx reaches r: tx is still
// attached and within sense range sr of r, by current positions.
func audible(tx, r *Radio, sr float64) bool {
	return !tx.gone && tx.pos.Dist(r.pos) <= sr
}

// busyUntil returns the latest end time of transmissions currently
// audible at r (zero when the channel is idle). Unlike busyFor it
// counts transmissions regardless of senseLag: it estimates how long to
// defer, not whether a collision occurs. Like busyFor and collided it
// walks the live records rather than r's neighborhood: there are a few
// dozen of them at most (every one still on the air, plus what prune
// has not retired yet), where a 3×3 block holds up to 81 radios, almost
// none of them transmitting.
//
//pds:hotpath
func (m *Medium) busyUntil(r *Radio) time.Duration {
	if m.active == 0 {
		return 0
	}
	now := m.eng.Now()
	sr := m.senseRange()
	var until time.Duration
	for _, rec := range m.txOrder {
		if rec.end > now && rec.end > until && audible(rec.owner, r, sr) {
			until = rec.end
		}
	}
	return until
}

// busyFor reports whether any active transmission is audible at r.
// Transmissions younger than senseLag are not yet sensed — that is the
// vulnerable window in which two backoffs expiring in the same slot
// collide.
//
//pds:hotpath
func (m *Medium) busyFor(r *Radio) bool {
	if m.active == 0 {
		return false
	}
	now := m.eng.Now()
	sr := m.senseRange()
	for _, rec := range m.txOrder {
		if rec.end > now && now-rec.start >= senseLag && audible(rec.owner, r, sr) {
			return true
		}
	}
	return false
}

// backoff returns a slotted random contention delay. Ack frames contend
// in a short priority window of slots 0–3 ahead of every data frame
// (slots 4..4+CW), modeling the SIFS precedence a real MAC gives
// acknowledgements; the randomization within the window keeps several
// receivers acking the same broadcast from always colliding.
func (m *Medium) backoff(ack bool) time.Duration {
	if ack {
		return slotTime * time.Duration(m.eng.Rand().Intn(4))
	}
	return slotTime * time.Duration(4+m.eng.Rand().Intn(cwSlots))
}

// Send enqueues a message for broadcast. It reports false when the OS
// buffer is full and the frame was dropped — the failure mode the leaky
// bucket in package link exists to avoid.
//
//pds:hotpath
func (r *Radio) Send(msg *wire.Message) bool {
	if r.gone {
		return false
	}
	size := wire.EncodedSize(msg)
	if r.queuedBytes+size > r.m.cfg.OSBufferBytes {
		r.SentDrop++
		r.m.stats.BufferDrops++
		r.m.Tracer.BufferDrop(r.id, msg, size)
		return false
	}
	fr := queuedFrame{msg: msg, size: size}
	if msg.Type == wire.TypeAck {
		// Acks jump the transmit queue, modeling the SIFS-priority a
		// real MAC gives acknowledgements; without this they starve
		// behind queued 256 KB chunks and trigger spurious
		// retransmissions.
		r.queue.PushFront(fr)
	} else {
		r.queue.PushBack(fr)
	}
	r.queuedBytes += size
	if r.mac == nil {
		r.mac = r.m.eng.NewTimer(r.macStep)
	}
	r.armAttempt()
	return true
}

// QueuedBytes returns the current OS-buffer occupancy, which the leaky
// bucket never lets approach capacity.
func (r *Radio) QueuedBytes() int { return r.queuedBytes }

// ID returns the node id of this radio.
func (r *Radio) ID() wire.NodeID { return r.id }

// Pos returns the node's current position.
func (r *Radio) Pos() Pos { return r.pos }

// macStep is the MAC timer's callback: it runs the step the phase names.
// The phase is idle again before the step runs, as the timer is, so the
// step — or Send, called from a callback under it — can arm the next.
//
//pds:hotpath
func (r *Radio) macStep() {
	phase := r.phase
	r.phase = macIdle
	switch phase {
	case macArmed:
		r.attempt()
	case macBackoff:
		r.transmitIfClear()
	case macOnAir:
		r.endAirtime()
	}
}

// armAttempt asks for a contention step unless one is already under way.
// A detached radio never asks: Detach emptied its queue.
//
//pds:hotpath
func (r *Radio) armAttempt() {
	if r.phase != macIdle || r.queue.Len() == 0 {
		return
	}
	r.phase = macArmed
	r.mac.Reset(0)
}

// attempt runs the CSMA contention step. A node never transmits the
// instant it finds the channel idle: it always draws a slotted backoff
// first (deferred past the end of any audible transmission), re-senses
// when the backoff expires, and only then transmits. Two nodes whose
// backoffs land within senseLag of each other both transmit and
// collide — the standard slotted-contention vulnerability.
//
//pds:hotpath
func (r *Radio) attempt() {
	if r.queue.Len() == 0 {
		return // detached since the step was armed
	}
	m := r.m
	wait := m.backoff(r.queue.Front().msg.Type == wire.TypeAck)
	if until := m.busyUntil(r); until > m.eng.Now() {
		wait += until - m.eng.Now()
	}
	r.phase = macBackoff
	r.mac.Reset(wait)
}

// transmitIfClear transmits the head-of-line frame unless the channel
// became busy during the backoff, in which case it re-contends.
//
//pds:hotpath
func (r *Radio) transmitIfClear() {
	if r.queue.Len() == 0 {
		return // detached during the backoff
	}
	m := r.m
	if m.busyFor(r) {
		r.attempt()
		return
	}
	fr := r.queue.PopFront()
	r.queuedBytes -= fr.size
	r.TxCount++

	now := m.eng.Now()
	dur := m.airtime(fr.size)
	rec := m.openRecord(r, now, now+dur)
	m.stats.Transmissions++
	m.stats.TxBytes += uint64(fr.size)
	r.phase, r.airMsg, r.airRec = macOnAir, fr.msg, rec
	if m.OnTransmit != nil {
		m.OnTransmit(r.id, fr.msg, fr.size)
	}
	m.Tracer.FrameTx(r.id, fr.msg, fr.size, dur)
	r.mac.Reset(dur)
}

// endAirtime runs as the frame's airtime ends: the link layer hears of
// it, the medium delivers it, and the radio contends for the next.
//
//pds:hotpath
func (r *Radio) endAirtime() {
	m := r.m
	msg, rec := r.airMsg, r.airRec
	r.airMsg, r.airRec = nil, nil
	if r.OnTransmitted != nil {
		r.OnTransmitted(msg)
	}
	m.finishTransmission(rec, msg)
	// Re-contend for the next frame; attempt draws a fresh backoff, so
	// contending nodes interleave instead of one starving the rest.
	r.armAttempt()
}

// finishTransmission delivers a completed frame to every in-range node,
// applying collision and random-loss rules, then prunes retired records.
//
//pds:hotpath
func (m *Medium) finishTransmission(rec *txRecord, msg *wire.Message) {
	m.active--
	sender := rec.owner
	if !sender.gone {
		m.collectOverlap(rec)
		// Receivers are those of the radios the spatial index puts near
		// the sender that are in range of it, as they stand when the
		// airtime ends. Deliver in sorted id order: index iteration order
		// would leak placement history into RNG draws and event ordering,
		// breaking the engine's reproducibility guarantee. Filtering
		// before the sort leaves 8 radios to order on the paper's grid,
		// not the 81 of a full 3×3 block.
		m.rxCand = m.rxCand[:0]
		for _, rx := range m.candidates(sender.pos) {
			if rx != sender && rx.pos.Dist(sender.pos) <= m.cfg.Range {
				m.rxCand = append(m.rxCand, rx)
			}
		}
		// slices.SortFunc rather than sort.Slice: the sort.Interface shim
		// boxes the slice into an interface on every delivery.
		slices.SortFunc(m.rxCand, func(a, b *Radio) int { return cmp.Compare(a.id, b.id) })
		for _, rx := range m.rxCand {
			if rx.gone {
				continue // detached by an earlier receiver's callback
			}
			if m.collided(rx, sender) {
				m.stats.Collisions++
				m.Tracer.Frame(trace.FrameCollision, rx.id, sender.id, msg)
				continue
			}
			copies := 1
			if m.Channel != nil {
				switch m.Channel.Fate(sender.id, rx.id, m.eng.Now()) {
				case FateLost:
					m.stats.RandomLosses++
					m.Tracer.Frame(trace.FrameLost, rx.id, sender.id, msg)
					continue
				case FateCorrupt:
					// The MAC CRC rejects the damaged frame at the
					// receiver; upper layers never see it.
					m.stats.CorruptFrames++
					m.Tracer.Frame(trace.FrameCorrupt, rx.id, sender.id, msg)
					continue
				case FateDuplicate:
					m.stats.DupFrames++
					m.Tracer.Frame(trace.FrameDup, rx.id, sender.id, msg)
					copies = 2
				}
			} else if m.cfg.BaseLoss > 0 && m.eng.Rand().Float64() < m.cfg.BaseLoss {
				m.stats.RandomLosses++
				m.Tracer.Frame(trace.FrameLost, rx.id, sender.id, msg)
				continue
			}
			for c := 0; c < copies; c++ {
				m.stats.Delivered++
				if m.OnDeliver != nil {
					m.OnDeliver(sender.id, rx.id, msg)
				}
				m.Tracer.Frame(trace.FrameRx, rx.id, sender.id, msg)
				if rx.deliver != nil {
					// One shared frame for every receiver: a broadcast
					// puts the same bits on the air for everyone, and
					// published messages are immutable (wire.Message
					// ownership rules), so fan-out needs no per-receiver
					// deep clone. Handlers that rewrite a section build a
					// copy-on-write variant instead of mutating this one.
					rx.deliver(msg)
				}
			}
		}
	}
	m.prune(rec.end)
}

// collectOverlap fills m.overlap with the records that share airtime
// with rec — every transmission that can have destroyed rec's frame at
// some receiver. Times are fixed once a record exists, so this is asked
// once per frame; who owns the record, whether it is still attached and
// how far it is from a receiver is collided's to ask, per receiver. Most
// frames overlap nothing.
//
//pds:hotpath
func (m *Medium) collectOverlap(rec *txRecord) {
	m.overlap = m.overlap[:0]
	for _, o := range m.txOrder {
		if o != rec && o.end > rec.start && o.start < rec.end {
			m.overlap = append(m.overlap, o)
		}
	}
}

// collided reports whether sender's frame was destroyed at rx: the
// receiver was itself transmitting (half duplex), or a time-overlapping
// transmission (m.overlap) audible at rx was too strong for capture.
// With capture enabled, the frame survives when its sender is decisively
// closer to rx than every interferer, as a SINR receiver would decode it.
//
//pds:hotpath
func (m *Medium) collided(rx, sender *Radio) bool {
	if len(m.overlap) == 0 {
		return false
	}
	dSig := sender.pos.Dist(rx.pos)
	sr := m.senseRange()
	for _, o := range m.overlap {
		tx := o.owner
		if tx == rx {
			return true // half duplex: rx was sending
		}
		// Interference reaches out to the sense range: a signal too
		// weak to decode still corrupts concurrent reception.
		dInt := tx.pos.Dist(rx.pos)
		if tx.gone || dInt > sr {
			continue
		}
		if m.cfg.CaptureMargin > 0 && dInt >= dSig*m.cfg.CaptureMargin {
			continue // captured: our signal dominates this interferer
		}
		return true
	}
	return false
}

// openRecord files a live transmission record for owner, taken from the
// pool when it has one.
func (m *Medium) openRecord(owner *Radio, start, end time.Duration) *txRecord {
	var rec *txRecord
	if n := len(m.recPool); n > 0 {
		rec = m.recPool[n-1]
		m.recPool[n-1] = nil
		m.recPool = m.recPool[:n-1]
	} else {
		rec = new(txRecord)
	}
	*rec = txRecord{owner: owner, start: start, end: end}
	m.txOrder = append(m.txOrder, rec)
	m.active++
	return rec
}

// prune retires records that can no longer affect a sense or collision
// query: everything that ended before the earliest start of a
// still-active record and before now. Each retired record returns to
// the pool. A retired record's airtime-end event has always already run
// (it fires exactly at rec.end < now), so its radio no longer holds it.
//
// The cutoff deliberately treats a transmission ending exactly at now
// as inactive even though its delivery event may not have run yet: when
// two frames end at the same instant, the first finisher's prune
// forgets interferers that only overlapped the second. The pre-spatial
// medium behaved this way, and same-seed reproducibility pins it.
func (m *Medium) prune(now time.Duration) {
	earliest := now
	for _, rec := range m.txOrder {
		if rec.end > now {
			if rec.start < earliest {
				earliest = rec.start
			}
			break // start-ordered: the first active record has min start
		}
	}
	kept := m.txOrder[:0]
	for _, rec := range m.txOrder {
		if rec.end >= earliest {
			kept = append(kept, rec)
			continue
		}
		m.recPool = append(m.recPool, rec)
	}
	for i := len(kept); i < len(m.txOrder); i++ {
		m.txOrder[i] = nil
	}
	m.txOrder = kept
}
