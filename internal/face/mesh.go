// Package face is the supervised unicast transport plane: TCP (and
// loopback) faces behind the pds.Transport surface, in the CCN sense of
// a "face" — a point-to-point adjacency the forwarding plane treats
// uniformly, with no broadcast assumption (Garcia-Luna-Aceves &
// Mirzazad, arXiv:1608.04017). A Mesh owns a set of faces: dialed ones
// it supervises (dial retry with capped exponential backoff and
// deterministic jitter, write deadlines, heartbeat keepalive, and a
// consecutive-failure circuit breaker that reports the peer to the
// neighbor-health blacklist) and accepted ones from its listener.
//
// Send gives every up peer a copy of every frame but an ack, so the
// protocol's broadcast-shaped behaviors — overhearing, lingering-query
// matching at relays, Bloom rewriting — run unchanged over unicast: the
// mesh is the neighborhood. Three rules make that affordable over
// point-to-point faces. An ack goes to the one face that can use it, the
// transmitter its MsgID names. A copy for a peer the frame's receiver
// list does not name waits in a queue of its own, behind everything a
// receiver is waiting for, and is what a burst drops. And a face's writer
// puts everything queued when it wakes into one write. A mesh is a
// carrier and nothing more: every message, fragments included, goes
// through the one wire encode path into a length-prefixed, CRC-checked
// frame. Fragments appear only past MaxFrame: MaxFragment tells the node
// to send anything smaller whole. A payload is never copied into a frame
// or out of one (wire.AppendSplit, wire.DecodeChecked).
package face

import (
	"fmt"
	"net"
	"slices"
	"strings"
	"sync"
	"time"

	"pds/internal/trace"
	"pds/internal/wire"
)

// Chaos injects face-level faults: it is the mesh's test seam, which
// tests implement with small fakes to drive the supervisor's backoff,
// write deadlines and circuit breaker. All methods must be safe for
// concurrent use.
type Chaos interface {
	// DialFault reports whether this dial attempt should fail.
	DialFault(addr string) bool
	// ConnFault is consulted before each outbound message frame: reset
	// tears the connection down as if the peer sent RST; stall makes
	// the write block until the write deadline expires.
	ConnFault(addr string) (reset, stall bool)
}

// Config configures a Mesh.
type Config struct {
	// ListenAddr is the TCP address to accept faces on, e.g.
	// "127.0.0.1:0" or ":9754". Empty means dial-only.
	ListenAddr string
	// Self is the local node id announced in the hello exchange. It
	// can be set later with SetLocalID, but must be set before faces
	// come up for per-peer send dedup and breaker attribution to work.
	Self wire.NodeID
	// MaxFrame bounds inbound frames (guards decode-time allocation),
	// and through MaxFragment the link layer's fragments. Every mesh in a
	// deployment must agree on it: a sender cuts at its own bound, and a
	// receiver resets the face on a frame over its own.
	MaxFrame int
	// DialTimeout bounds one dial attempt.
	DialTimeout time.Duration
	// WriteTimeout is the deadline of one write; a blocked peer
	// socket counts as a connection failure instead of wedging the
	// writer.
	WriteTimeout time.Duration
	// HelloTimeout bounds the hello exchange after connecting.
	HelloTimeout time.Duration
	// HeartbeatEvery is the keepalive interval: an idle face sends a
	// ping this often, and a face that hears nothing for
	// HeartbeatMiss intervals is torn down.
	HeartbeatEvery time.Duration
	// HeartbeatMiss is how many silent heartbeat intervals mark a
	// face dead.
	HeartbeatMiss int
	// RetryBase and RetryMax bound the capped exponential dial
	// backoff; attempt n waits RetryBase<<(n-1), capped at RetryMax,
	// plus deterministic jitter in [0, wait/2).
	RetryBase time.Duration
	RetryMax  time.Duration
	// BreakerAfter is the consecutive-failure count that trips the
	// circuit breaker; the face then reports its peer down (feeding
	// the neighbor-health blacklist) and pauses dialing for
	// BreakerCooldown.
	BreakerAfter    int
	BreakerCooldown time.Duration
	// OutboxFrames bounds each of a face's two queues (listed frames,
	// overhear copies); a full queue drops (counted, traced) rather than
	// block the protocol.
	OutboxFrames int
	// Seed drives the backoff jitter; identical seeds and failure
	// sequences produce identical retry schedules.
	Seed int64
	// Chaos optionally injects face faults (failed dials, reset or
	// stalled writes) in tests; nil means none.
	Chaos Chaos
}

// DefaultConfig returns production settings for listening on addr.
func DefaultConfig(addr string) Config {
	return Config{
		ListenAddr:      addr,
		MaxFrame:        8 << 20,
		DialTimeout:     3 * time.Second,
		WriteTimeout:    5 * time.Second,
		HelloTimeout:    3 * time.Second,
		HeartbeatEvery:  2 * time.Second,
		HeartbeatMiss:   3,
		RetryBase:       250 * time.Millisecond,
		RetryMax:        15 * time.Second,
		BreakerAfter:    5,
		BreakerCooldown: 10 * time.Second,
		OutboxFrames:    256,
	}
}

func (c *Config) fillDefaults() {
	d := DefaultConfig("")
	if c.MaxFrame <= 0 {
		c.MaxFrame = d.MaxFrame
	}
	if c.DialTimeout <= 0 {
		c.DialTimeout = d.DialTimeout
	}
	if c.WriteTimeout <= 0 {
		c.WriteTimeout = d.WriteTimeout
	}
	if c.HelloTimeout <= 0 {
		c.HelloTimeout = d.HelloTimeout
	}
	if c.HeartbeatEvery <= 0 {
		c.HeartbeatEvery = d.HeartbeatEvery
	}
	if c.HeartbeatMiss <= 0 {
		c.HeartbeatMiss = d.HeartbeatMiss
	}
	if c.RetryBase <= 0 {
		c.RetryBase = d.RetryBase
	}
	if c.RetryMax < c.RetryBase {
		c.RetryMax = d.RetryMax
		if c.RetryMax < c.RetryBase {
			c.RetryMax = c.RetryBase
		}
	}
	if c.BreakerAfter <= 0 {
		c.BreakerAfter = d.BreakerAfter
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = d.BreakerCooldown
	}
	if c.OutboxFrames <= 0 {
		c.OutboxFrames = d.OutboxFrames
	}
}

// Stats counts mesh activity, one counter per failure class — the
// transport never swallows an error into a bare bool.
type Stats struct {
	FramesSent     uint64
	FramesReceived uint64
	BytesSent      uint64
	BytesReceived  uint64
	MsgsSent       uint64 // logical messages fanned out (one per Send with >= 1 up face)
	MsgsReceived   uint64

	Dials             uint64
	DialFailures      uint64
	ConnResets        uint64 // established connections lost (read/write error)
	WriteTimeouts     uint64
	HeartbeatTimeouts uint64
	BreakerTrips      uint64

	EncodeErrors   uint64
	ChecksumErrors uint64
	DecodeErrors   uint64
	OutboxDrops    uint64 // frame copies refused by a full queue, either class
	OverhearDrops  uint64 // the share of OutboxDrops nobody was waiting for (copies for unlisted peers)
	Writes         uint64 // write calls issued; FramesSent / Writes is the coalescing ratio

	FacesUp    int // gauge: faces past the hello exchange
	PeersKnown int // gauge: configured dial targets
}

// Mesh is a set of supervised unicast faces implementing the
// pds.Transport surface.
type Mesh struct {
	cfg Config

	ln net.Listener

	mu       sync.Mutex
	self     wire.NodeID
	recv     func(*wire.Message)
	onDown   func(wire.NodeID)
	tr       *trace.NodeTracer
	dialed   []*Face // in dial-address order, which is the order Send walks them in
	accepted map[*Face]struct{}
	closed   bool
	stats    Stats

	wg sync.WaitGroup
}

// NewMesh opens the listener (when configured) and returns an empty
// mesh; add dialed faces with AddPeer.
func NewMesh(cfg Config) (*Mesh, error) {
	cfg.fillDefaults()
	m := &Mesh{
		cfg:      cfg,
		self:     cfg.Self,
		accepted: make(map[*Face]struct{}),
	}
	if cfg.ListenAddr != "" {
		ln, err := net.Listen("tcp", cfg.ListenAddr)
		if err != nil {
			return nil, fmt.Errorf("face: listen: %w", err)
		}
		m.ln = ln
		m.wg.Add(1)
		go m.acceptLoop(ln)
	}
	return m, nil
}

// SetLocalID sets the node id announced in hellos; pds.NewNode calls
// it once the node id is decided. Faces already up keep the id they
// announced.
func (m *Mesh) SetLocalID(id wire.NodeID) {
	m.mu.Lock()
	m.self = id
	m.mu.Unlock()
}

// SetTracer attaches a node-bound tracer; nil disables tracing.
func (m *Mesh) SetTracer(nt *trace.NodeTracer) {
	m.mu.Lock()
	m.tr = nt
	m.mu.Unlock()
}

// OnPeerDown registers the circuit-breaker sink: fn is called with the
// peer's node id (when known from the hello) every time a face's
// breaker trips, from the face's supervisor goroutine. pds.NewNode
// wires it into the neighbor-health blacklist.
func (m *Mesh) OnPeerDown(fn func(wire.NodeID)) {
	m.mu.Lock()
	m.onDown = fn
	m.mu.Unlock()
}

// SharedMedium reports false: every peer has its own queue, so a burst
// of answers to one flooded query collides nowhere, and pds.NewNode
// runs the protocol without the forward and response jitters that
// spread such a burst over a shared medium.
func (m *Mesh) SharedMedium() bool { return false }

// MaxFragment is the largest link-layer fragment one frame under MaxFrame
// carries whole: MaxFrame less the type byte and the worst-case fragment
// envelope. A stream has no shared air for a collision to cost a packet
// of, so pds.NewNode cuts fragments here on a mesh: a message goes whole
// unless it is too big for one frame.
func (m *Mesh) MaxFragment() int { return m.cfg.MaxFrame - 1 - wire.FragmentOverhead() }

// ListenAddr returns the bound listener address, nil when dial-only.
func (m *Mesh) ListenAddr() net.Addr {
	if m.ln == nil {
		return nil
	}
	return m.ln.Addr()
}

// AddPeer starts a supervised dialed face to addr. It reports false
// when the address is already configured or the mesh is closed.
func (m *Mesh) AddPeer(addr string) bool {
	m.mu.Lock()
	if m.closed || addr == "" {
		m.mu.Unlock()
		return false
	}
	i, dup := m.findDialed(addr)
	if dup {
		m.mu.Unlock()
		return false
	}
	f := newDialedFace(m, addr)
	m.dialed = slices.Insert(m.dialed, i, f)
	m.mu.Unlock()
	m.wg.Add(1)
	go f.supervise()
	return true
}

// RemovePeer stops and removes a dialed face.
func (m *Mesh) RemovePeer(addr string) {
	m.mu.Lock()
	var f *Face
	if i, ok := m.findDialed(addr); ok {
		f = m.dialed[i]
		m.dialed = slices.Delete(m.dialed, i, i+1)
	}
	m.mu.Unlock()
	if f != nil {
		f.stop()
	}
}

// findDialed returns where addr's face sits in m.dialed, or where it
// would be inserted. Callers hold m.mu.
func (m *Mesh) findDialed(addr string) (int, bool) {
	return slices.BinarySearchFunc(m.dialed, addr, func(f *Face, a string) int { return strings.Compare(f.addr, a) })
}

// SetReceiver registers the frame sink.
func (m *Mesh) SetReceiver(fn func(*wire.Message)) {
	m.mu.Lock()
	m.recv = fn
	m.mu.Unlock()
}

// Stats returns a snapshot of the mesh counters.
func (m *Mesh) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	s := m.stats
	s.PeersKnown = len(m.dialed)
	s.FacesUp = 0
	for _, f := range m.dialed {
		if f.isUp() {
			s.FacesUp++
		}
	}
	for f := range m.accepted {
		if f.isUp() {
			s.FacesUp++
		}
	}
	return s
}

// UpCount returns how many faces are past the hello exchange.
func (m *Mesh) UpCount() int {
	return m.Stats().FacesUp
}

// WaitReady blocks until at least n faces are up or the deadline
// passes; it reports whether the mesh got there.
func (m *Mesh) WaitReady(n int, timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for {
		if m.UpCount() >= n {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// Send encodes the message once and queues the frame, shared read-only,
// on the up faces that can use them, one per distinct peer (a
// peer reachable over both a dialed and an accepted face is served over
// the dialed one; peers that announced no id all count as distinct and
// as listed). An ack goes to the face of the peer whose frame it
// acknowledges and to no other. Any other frame goes to every peer: on
// the listed queue where its receiver list names the peer or is empty, on
// the overhear queue elsewhere. Send reports false when the message could
// not be encoded or a listed copy was refused by a full queue; a refused
// overhear copy is counted and traced and nobody's loss.
func (m *Mesh) Send(msg *wire.Message) bool {
	fr, err := encodeMsgFrame(msg)
	if err != nil {
		m.mu.Lock()
		m.stats.EncodeErrors++
		tr := m.tr
		m.mu.Unlock()
		tr.TransportDrop(msg, 0, "encode")
		return false
	}
	isAck := msg.Type == wire.TypeAck
	var acked wire.NodeID
	if isAck {
		acked = wire.TransmitNode(msg.Ack.MsgID)
	}
	receivers := msg.Receivers()

	// Snapshot the target faces under the lock, enqueue after releasing
	// it. Up to 16 faces the snapshot and the peers it already reaches
	// stay on the stack.
	var faceBuf [16]*Face
	var peerBuf [16]wire.NodeID
	targets, peers := faceBuf[:0], peerBuf[:0]
	add := func(f *Face) {
		up, peer := f.upPeer()
		if !up || peer != 0 && (slices.Contains(peers, peer) || isAck && peer != acked) {
			return
		}
		targets, peers = append(targets, f), append(peers, peer)
	}
	m.mu.Lock()
	for _, f := range m.dialed {
		add(f)
	}
	for f := range m.accepted {
		add(f)
	}
	tr := m.tr
	m.mu.Unlock()
	if len(targets) == 0 {
		return true
	}

	var listedDrops, overhearDrops uint64
	for i, f := range targets {
		listed := len(receivers) == 0 || peers[i] == 0 || slices.Contains(receivers, peers[i])
		switch {
		case f.enqueue(fr, listed):
		case listed:
			listedDrops++
			tr.TransportDrop(msg, fr.size(), "outbox")
		default:
			overhearDrops++
			tr.TransportDrop(msg, fr.size(), "overhear")
		}
	}
	m.mu.Lock()
	m.stats.MsgsSent++
	m.stats.OutboxDrops += listedDrops + overhearDrops
	m.stats.OverhearDrops += overhearDrops
	m.mu.Unlock()
	return listedDrops == 0
}

// deliver hands a decoded message to the receiver.
func (m *Mesh) deliver(msg *wire.Message) {
	m.mu.Lock()
	recv := m.recv
	closed := m.closed
	m.stats.MsgsReceived++
	m.mu.Unlock()
	if recv != nil && !closed {
		recv(msg)
	}
}

func (m *Mesh) acceptLoop(ln net.Listener) {
	defer m.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return // closed
		}
		m.mu.Lock()
		if m.closed {
			m.mu.Unlock()
			conn.Close()
			return
		}
		f := newAcceptedFace(m, conn)
		m.accepted[f] = struct{}{}
		m.mu.Unlock()
		m.wg.Add(1)
		go f.runAccepted(conn)
	}
}

// dropAccepted removes a finished accepted face.
func (m *Mesh) dropAccepted(f *Face) {
	m.mu.Lock()
	delete(m.accepted, f)
	m.mu.Unlock()
}

func (m *Mesh) localID() wire.NodeID {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.self
}

func (m *Mesh) tracer() *trace.NodeTracer {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.tr
}

func (m *Mesh) peerDownSink() func(wire.NodeID) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.onDown
}

func (m *Mesh) count(fn func(*Stats)) {
	m.mu.Lock()
	fn(&m.stats)
	m.mu.Unlock()
}

// Close stops every face and the listener and waits for all mesh
// goroutines to exit.
func (m *Mesh) Close() error {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil
	}
	m.closed = true
	faces := make([]*Face, 0, len(m.dialed)+len(m.accepted))
	for _, f := range m.dialed {
		faces = append(faces, f)
	}
	for f := range m.accepted {
		faces = append(faces, f)
	}
	ln := m.ln
	m.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	for _, f := range faces {
		f.stop()
	}
	m.wg.Wait()
	return nil
}
