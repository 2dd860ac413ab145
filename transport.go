package pds

import (
	"slices"
	"sync"
	"time"

	"pds/internal/face"
	"pds/internal/udptransport"
	"pds/internal/wire"
)

// udpAdapter narrows udptransport.Transport to the Transport interface
// (the underlying type already matches; this keeps the coupling
// explicit and compile-checked).
type udpAdapter struct {
	*udptransport.Transport
}

var _ Transport = udpAdapter{}

func (u udpAdapter) Send(msg *Message) bool        { return u.Transport.Send(msg) }
func (u udpAdapter) SetReceiver(fn func(*Message)) { u.Transport.SetReceiver(fn) }

// NewUDPTransport opens a broadcast-mode UDP transport on the port:
// all peers on the same LAN segment and port form a one-hop PDS
// neighborhood, exactly like the paper's prototype (§V).
func NewUDPTransport(port int) (Transport, error) {
	t, err := udptransport.New(udptransport.DefaultConfig(port))
	if err != nil {
		return nil, err
	}
	return udpAdapter{t}, nil
}

// NewLoopbackTransport opens a loopback-mode UDP transport for running
// several nodes on one machine: the node listens on ownPort and fans
// every frame out to peerPorts. Overhearing works exactly as on a real
// broadcast medium — every peer sees every frame.
func NewLoopbackTransport(ownPort int, peerPorts []int) (Transport, error) {
	t, err := udptransport.New(udptransport.LoopbackConfig(ownPort, peerPorts))
	if err != nil {
		return nil, err
	}
	return udpAdapter{t}, nil
}

// EdgeDialer is implemented by transports that can grow unicast
// adjacencies at runtime (the face mesh). The tiered retrieval path
// uses it to dial tracker-learned edge peers mid-retrieval.
type EdgeDialer interface {
	// AddPeer starts a supervised face to addr; false when already
	// configured or the transport is closed.
	AddPeer(addr string) bool
}

// readyWaiter is implemented by transports whose adjacencies take time
// to come up (the face mesh dials and exchanges hellos).
type readyWaiter interface {
	WaitReady(n int, timeout time.Duration) bool
	UpCount() int
}

// FaceMesh is the supervised unicast transport plane: TCP faces with
// dial-retry backoff, heartbeats and circuit breakers behind the same
// Transport surface. See internal/face for the full API (peer
// management, stats); the value returned by NewFaceTransport can be
// asserted to it in-module.
type FaceMesh = face.Mesh

// FaceConfig configures a face mesh transport.
type FaceConfig = face.Config

// DefaultFaceConfig returns production face-mesh settings listening on
// addr ("" = dial-only).
func DefaultFaceConfig(addr string) FaceConfig { return face.DefaultConfig(addr) }

// NewFaceTransport opens a supervised TCP unicast mesh: it listens on
// cfg.ListenAddr (when set) and supervises a dialed face to every
// peer address. Every up peer gets a copy of every frame but an ack —
// which goes to the peer whose frame it acknowledges — so the
// protocol's broadcast-shaped behaviors — overhearing, lingering
// queries, Bloom rewriting — run unchanged over unicast.
func NewFaceTransport(cfg FaceConfig, peerAddrs ...string) (*FaceMesh, error) {
	m, err := face.NewMesh(cfg)
	if err != nil {
		return nil, err
	}
	for _, a := range peerAddrs {
		m.AddPeer(a)
	}
	return m, nil
}

var _ Transport = (*FaceMesh)(nil)
var _ EdgeDialer = (*FaceMesh)(nil)
var _ readyWaiter = (*FaceMesh)(nil)

// ChanHub is an in-process broadcast hub connecting nodes without
// sockets; useful in tests and single-process demos. Create one hub
// and Attach each node. Delivery is asynchronous through a per-member
// queue: a node processing a frame (under its own lock) can trigger
// sends that loop back to it without deadlocking.
type ChanHub struct {
	mu      sync.Mutex
	members []*chanMember
}

type chanMember struct {
	hub    *ChanHub
	inbox  chan *wire.Message
	done   chan struct{}
	closed sync.Once

	mu   sync.Mutex
	recv func(*wire.Message)
}

// NewChanHub returns an empty in-process broadcast hub.
func NewChanHub() *ChanHub { return &ChanHub{} }

// Attach adds a member; every frame any member sends is delivered to
// all other members in order, each on its own pump goroutine.
func (h *ChanHub) Attach() Transport {
	m := &chanMember{
		hub:   h,
		inbox: make(chan *wire.Message, 1024),
		done:  make(chan struct{}),
	}
	go m.pump()
	h.mu.Lock()
	h.members = append(h.members, m)
	h.mu.Unlock()
	return m
}

func (m *chanMember) pump() {
	for {
		select {
		case msg := <-m.inbox:
			m.mu.Lock()
			recv := m.recv
			m.mu.Unlock()
			if recv != nil {
				recv(msg)
			}
		case <-m.done:
			return
		}
	}
}

// Send fans the frame out to every other member. All receivers get the
// same *wire.Message: transmitted frames are frozen (see wire.Message's
// ownership rules), so sharing one pointer across inboxes is safe and
// mirrors what a real broadcast medium does — every radio hears the
// same bits.
func (m *chanMember) Send(msg *wire.Message) bool {
	m.hub.mu.Lock()
	members := append([]*chanMember(nil), m.hub.members...)
	m.hub.mu.Unlock()
	ok := true
	for _, other := range members {
		if other == m {
			continue
		}
		select {
		case other.inbox <- msg:
		default:
			ok = false // receiver overloaded: frame dropped, like a full buffer
		}
	}
	return ok
}

func (m *chanMember) SetReceiver(fn func(*wire.Message)) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.recv = fn
}

// Close detaches the member from its hub, so no send queues behind it
// once its pump has stopped draining the inbox.
func (m *chanMember) Close() error {
	m.closed.Do(func() {
		close(m.done)
		m.hub.mu.Lock()
		m.hub.members = slices.DeleteFunc(m.hub.members, func(o *chanMember) bool { return o == m })
		m.hub.mu.Unlock()
	})
	m.SetReceiver(nil)
	return nil
}
