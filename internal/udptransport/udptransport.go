// Package udptransport carries PDS frames over real UDP sockets,
// mirroring the paper's Android prototype (§V): every message is sent
// by UDP broadcast so all one-hop neighbors overhear it, and intended
// receivers are named inside the message.
//
// Two modes exist:
//
//   - Broadcast mode: one socket bound to a port, sending to the
//     subnet broadcast address. Peers on the same LAN segment form a
//     one-hop PDS neighborhood.
//   - Loopback mode: for demos and tests on a single machine, each
//     node binds its own 127.0.0.1 port and "broadcast" fans out to an
//     explicit list of peer ports.
//
// The transport is a carrier and nothing more: one message, one
// checksummed datagram (wire.AppendChecked). Messages larger than a
// datagram-safe size reach it as link-layer fragments, which encode like
// any other message; MaxFragment tells the node how large the link may
// cut them.
package udptransport

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"syscall"

	"pds/internal/trace"
	"pds/internal/wire"
)

// Config configures a transport.
type Config struct {
	// ListenAddr is the UDP address to bind, e.g. ":9753" (broadcast
	// mode) or "127.0.0.1:9701" (loopback mode).
	ListenAddr string
	// BroadcastAddr is the destination for broadcast mode, e.g.
	// "255.255.255.255:9753". Ignored when PeerAddrs is set.
	BroadcastAddr string
	// PeerAddrs lists explicit destinations (loopback mode).
	PeerAddrs []string
}

// MaxDatagram bounds receive buffers, and through MaxFragment the link
// layer's fragments.
const MaxDatagram = 2048

// DefaultConfig returns broadcast-mode settings on the given port.
func DefaultConfig(port int) Config {
	return Config{
		ListenAddr:    fmt.Sprintf(":%d", port),
		BroadcastAddr: fmt.Sprintf("255.255.255.255:%d", port),
	}
}

// LoopbackConfig returns loopback-mode settings: listen on ownPort and
// fan out to peerPorts (ownPort may be included; self-frames are
// filtered by source address).
func LoopbackConfig(ownPort int, peerPorts []int) Config {
	cfg := Config{ListenAddr: fmt.Sprintf("127.0.0.1:%d", ownPort)}
	for _, p := range peerPorts {
		if p != ownPort {
			cfg.PeerAddrs = append(cfg.PeerAddrs, fmt.Sprintf("127.0.0.1:%d", p))
		}
	}
	return cfg
}

// Transport is a UDP frame carrier implementing the pds.Transport
// surface.
type Transport struct {
	cfg   Config
	conn  *net.UDPConn
	dests []*net.UDPAddr

	mu     sync.Mutex
	recv   func(*wire.Message)
	tr     *trace.NodeTracer // nil-safe: methods no-op on nil
	closed bool
	wg     sync.WaitGroup

	// sendMu serializes Send and guards sendBuf, a scratch buffer the
	// datagram is framed into. The buffer is reused across sends, so
	// steady-state sending performs no per-frame allocation.
	sendMu  sync.Mutex
	sendBuf []byte

	stats Stats
}

// Stats counts transport activity.
type Stats struct {
	DatagramsSent     uint64
	DatagramsReceived uint64
	BytesSent         uint64
	// ChecksumErrors counts datagrams dropped by the checksum
	// (truncated or bit-damaged on the wire).
	ChecksumErrors uint64
	// DecodeErrors counts well-framed datagrams the codec rejected.
	DecodeErrors uint64
	// SendErrors totals frames Send dropped, by any cause; the
	// per-class counters below break it down.
	SendErrors uint64
	// EncodeErrors counts frames the codec could not serialize.
	EncodeErrors uint64
	// WriteErrors counts frames lost to socket write failures (at
	// least one destination write failed).
	WriteErrors uint64
}

// Send-drop classes as they appear in TransportDrop trace events.
const (
	dropClassEncode = "encode"
	dropClassWrite  = "write"
)

// MaxFragment is the largest link-layer fragment one datagram carries
// whole; receivers would truncate anything larger. pds.NewNode refuses
// a link configured to cut bigger ones.
func (t *Transport) MaxFragment() int { return MaxDatagram - wire.FragmentOverhead() }

// New binds the socket and starts the receive loop. The caller must
// SetReceiver before peers start talking.
func New(cfg Config) (*Transport, error) {
	// SO_BROADCAST must be set explicitly or sends to the subnet
	// broadcast address fail with permission errors on most systems.
	lc := net.ListenConfig{
		Control: func(network, address string, c syscall.RawConn) error {
			var serr error
			err := c.Control(func(fd uintptr) {
				serr = setBroadcast(fd)
			})
			if err != nil {
				return err
			}
			return serr
		},
	}
	pc, err := lc.ListenPacket(context.Background(), "udp", cfg.ListenAddr)
	if err != nil {
		return nil, fmt.Errorf("udptransport: bind: %w", err)
	}
	conn, ok := pc.(*net.UDPConn)
	if !ok {
		pc.Close()
		return nil, errors.New("udptransport: not a UDP socket")
	}
	t := &Transport{cfg: cfg, conn: conn}
	if len(cfg.PeerAddrs) > 0 {
		for _, a := range cfg.PeerAddrs {
			dst, err := net.ResolveUDPAddr("udp", a)
			if err != nil {
				conn.Close()
				return nil, fmt.Errorf("udptransport: peer addr %q: %w", a, err)
			}
			t.dests = append(t.dests, dst)
		}
	} else {
		if cfg.BroadcastAddr == "" {
			conn.Close()
			return nil, errors.New("udptransport: neither BroadcastAddr nor PeerAddrs set")
		}
		dst, err := net.ResolveUDPAddr("udp", cfg.BroadcastAddr)
		if err != nil {
			conn.Close()
			return nil, fmt.Errorf("udptransport: broadcast addr: %w", err)
		}
		t.dests = append(t.dests, dst)
	}
	t.wg.Add(1)
	go t.readLoop()
	return t, nil
}

// SetReceiver registers the frame sink.
func (t *Transport) SetReceiver(fn func(*wire.Message)) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.recv = fn
}

// SetTracer attaches a node tracer; send-side drops then emit
// TransportDrop events with their error class.
func (t *Transport) SetTracer(tr *trace.NodeTracer) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.tr = tr
}

func (t *Transport) tracer() *trace.NodeTracer {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.tr
}

// LocalAddr returns the bound address.
func (t *Transport) LocalAddr() net.Addr { return t.conn.LocalAddr() }

// Stats returns a snapshot of transport counters.
func (t *Transport) Stats() Stats {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.stats
}

// Send encodes and broadcasts one frame. The datagram is framed into a
// scratch buffer reused across sends; the message itself is read-only
// here and never mutated or retained.
func (t *Transport) Send(msg *wire.Message) bool {
	t.sendMu.Lock()
	buf, err := wire.AppendChecked(t.sendBuf[:0], msg)
	if err != nil {
		t.sendMu.Unlock()
		t.mu.Lock()
		t.stats.SendErrors++
		t.stats.EncodeErrors++
		t.mu.Unlock()
		t.tracer().TransportDrop(msg, 0, dropClassEncode)
		return false
	}
	t.sendBuf = buf[:0] // keep grown capacity for the next frame
	ok := true
	for _, dst := range t.dests {
		if _, err := t.conn.WriteToUDP(buf, dst); err != nil {
			ok = false
		}
	}
	size := len(buf)
	t.sendMu.Unlock()
	t.mu.Lock()
	if ok {
		t.stats.DatagramsSent++
		t.stats.BytesSent += uint64(size)
	} else {
		t.stats.SendErrors++
		t.stats.WriteErrors++
	}
	t.mu.Unlock()
	if !ok {
		t.tracer().TransportDrop(msg, size, dropClassWrite)
	}
	return ok
}

func (t *Transport) readLoop() {
	defer t.wg.Done()
	local := t.conn.LocalAddr().String()
	buf := make([]byte, MaxDatagram)
	for {
		n, from, err := t.conn.ReadFromUDP(buf)
		if err != nil {
			return // closed
		}
		if from != nil && from.String() == local {
			continue // our own broadcast echoed back
		}
		// Decode straight from the receive buffer: a message that holds
		// payload bytes keeps it, and the next datagram goes into another.
		msg, err := wire.DecodeChecked(buf[:n])
		if err != nil {
			t.mu.Lock()
			if errors.Is(err, wire.ErrChecksum) {
				t.stats.ChecksumErrors++
			} else {
				t.stats.DecodeErrors++
			}
			t.mu.Unlock()
			continue
		}
		if wire.PayloadBytes(msg) > 0 {
			buf = make([]byte, MaxDatagram)
		}
		t.mu.Lock()
		t.stats.DatagramsReceived++
		recv := t.recv
		closed := t.closed
		t.mu.Unlock()
		if recv != nil && !closed {
			recv(msg)
		}
	}
}

// Close stops the transport; pending reads terminate.
func (t *Transport) Close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	t.mu.Unlock()
	err := t.conn.Close()
	t.wg.Wait()
	return err
}
