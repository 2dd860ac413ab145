package face

import (
	"bufio"
	"encoding/binary"
	"errors"
	"hash/fnv"
	"math/rand"
	"net"
	"sync"
	"time"

	"pds/internal/wire"
)

// Face teardown / failure reason classes (trace Note values; constant
// strings, never formatted errors).
const (
	reasonDial      = "dial"
	reasonHello     = "hello"
	reasonRead      = "read"
	reasonWrite     = "write"
	reasonWriteTime = "write-timeout"
	reasonHeartbeat = "heartbeat"
	reasonReset     = "reset"
	reasonClosed    = "closed"
	reasonSelf      = "self"
)

var errDialFault = errors.New("face: injected dial fault")

// Face is one unicast adjacency: a dialed face owns a supervisor
// goroutine that keeps the connection alive (backoff redial, breaker),
// an accepted face lives for one connection. All faces share the
// mesh's receive path and are fed by its Send.
type Face struct {
	m      *Mesh
	addr   string // dial address; remote address for accepted faces
	dialed bool
	rng    *rand.Rand // backoff jitter; supervisor goroutine only

	// The two outbound queues, each bounded by OutboxFrames: listed
	// holds what someone waits for (frames whose receiver list names the
	// peer or names nobody, acks, pongs), overhear the copies of frames
	// addressed to other peers. The writer takes both whole per wake-up.
	qmu      sync.Mutex
	listed   []frame
	overhear []frame
	wake     chan struct{} // one slot: something was queued since the writer last looked
	stopCh   chan struct{}
	stopOnce sync.Once

	// The writer's, kept across writes: a batch's segments, and what one write consumes.
	segs [][]byte
	bufs net.Buffers

	mu         sync.Mutex
	conn       net.Conn
	peer       wire.NodeID
	up         bool
	fails      int // consecutive failures feeding the breaker
	downReason string
}

func newDialedFace(m *Mesh, addr string) *Face {
	h := fnv.New64a()
	h.Write([]byte(addr))
	return &Face{
		m:      m,
		addr:   addr,
		dialed: true,
		rng:    rand.New(rand.NewSource(m.cfg.Seed ^ int64(h.Sum64()))),
		wake:   make(chan struct{}, 1),
		stopCh: make(chan struct{}),
	}
}

func newAcceptedFace(m *Mesh, conn net.Conn) *Face {
	return &Face{
		m:      m,
		addr:   conn.RemoteAddr().String(),
		wake:   make(chan struct{}, 1),
		stopCh: make(chan struct{}),
	}
}

// stop shuts the face down permanently.
func (f *Face) stop() {
	f.stopOnce.Do(func() { close(f.stopCh) })
	f.mu.Lock()
	c := f.conn
	f.mu.Unlock()
	if c != nil {
		c.Close()
	}
}

func (f *Face) stopped() bool {
	select {
	case <-f.stopCh:
		return true
	default:
		return false
	}
}

func (f *Face) isUp() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.up
}

// upPeer returns the up flag and the peer id learned from the hello.
func (f *Face) upPeer() (bool, wire.NodeID) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.up, f.peer
}

func (f *Face) peerID() wire.NodeID {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.peer
}

// enqueue offers a frame to the face's writer, on the listed queue or
// the overhear one; a full queue refuses it.
func (f *Face) enqueue(fr frame, listed bool) bool {
	if f.stopped() {
		return false
	}
	q := &f.overhear
	if listed {
		q = &f.listed
	}
	f.qmu.Lock()
	if len(*q) >= f.m.cfg.OutboxFrames {
		f.qmu.Unlock()
		return false
	}
	*q = append(*q, fr)
	f.qmu.Unlock()
	select {
	case f.wake <- struct{}{}:
	default:
	}
	return true
}

// take moves everything queued onto batch, listed frames ahead of
// overhear copies, and lets go of them.
func (f *Face) take(batch []frame) []frame {
	f.qmu.Lock()
	batch = append(append(batch, f.listed...), f.overhear...)
	clear(f.listed)
	clear(f.overhear)
	f.listed, f.overhear = f.listed[:0], f.overhear[:0]
	f.qmu.Unlock()
	return batch
}

// noteReason records the first teardown cause of the current
// connection; later causes (the cascade from closing the conn) lose.
func (f *Face) noteReason(reason string) {
	f.mu.Lock()
	if f.downReason == "" {
		f.downReason = reason
	}
	f.mu.Unlock()
}

// supervise is the dialed face's lifecycle: dial with capped
// exponential backoff and deterministic jitter, run the connection,
// count consecutive failures, trip the breaker, repeat.
func (f *Face) supervise() {
	defer f.m.wg.Done()
	cfg := &f.m.cfg
	for {
		if f.stopped() {
			return
		}
		f.mu.Lock()
		fails := f.fails
		f.mu.Unlock()
		f.m.count(func(s *Stats) { s.Dials++ })
		f.m.tracer().FaceDial(f.peerID(), fails+1, f.addr)
		conn, err := f.dial()
		var reason string
		if err != nil {
			reason = reasonDial
			f.m.count(func(s *Stats) { s.DialFailures++ })
		} else {
			reason = f.runConn(conn)
			if reason == reasonSelf {
				// We dialed ourselves (e.g. a tracker echoing our own
				// address back): stop for good, this is not a peer.
				return
			}
			if f.stopped() {
				return
			}
		}
		f.mu.Lock()
		f.fails++
		fails = f.fails
		f.mu.Unlock()
		if reason == reasonDial || reason == reasonHello {
			// Connections that came up trace their own FaceDown in
			// runConn; dial and hello failures are recorded here.
			f.m.tracer().FaceDown(f.peerID(), fails, reason)
		}
		if fails >= cfg.BreakerAfter {
			f.m.count(func(s *Stats) { s.BreakerTrips++ })
			peer := f.peerID()
			f.m.tracer().FaceBreaker(peer, fails, f.addr)
			if sink := f.m.peerDownSink(); sink != nil && peer != 0 {
				sink(peer)
			}
			if !f.sleep(cfg.BreakerCooldown) {
				return
			}
			f.mu.Lock()
			f.fails = 0
			f.mu.Unlock()
			continue
		}
		if !f.sleep(f.backoff(fails)) {
			return
		}
	}
}

// runAccepted is the accepted face's lifecycle: one connection, no
// redial — the remote supervises.
func (f *Face) runAccepted(conn net.Conn) {
	defer f.m.wg.Done()
	defer f.m.dropAccepted(f)
	f.runConn(conn)
}

func (f *Face) dial() (net.Conn, error) {
	cfg := &f.m.cfg
	if cfg.Chaos != nil && cfg.Chaos.DialFault(f.addr) {
		return nil, errDialFault
	}
	d := net.Dialer{Timeout: cfg.DialTimeout}
	return d.Dial("tcp", f.addr)
}

// backoff returns the wait before retry number fails+1: capped
// exponential in the failure count plus deterministic jitter in
// [0, wait/2).
func (f *Face) backoff(fails int) time.Duration {
	cfg := &f.m.cfg
	d := cfg.RetryBase
	for i := 1; i < fails && d < cfg.RetryMax; i++ {
		d *= 2
	}
	if d > cfg.RetryMax {
		d = cfg.RetryMax
	}
	if half := int64(d / 2); half > 0 {
		d += time.Duration(f.rng.Int63n(half))
	}
	return d
}

// sleep waits d, interruptible by stop; it reports whether the face is
// still alive.
func (f *Face) sleep(d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-f.stopCh:
		return false
	}
}

// runConn drives one established connection: hello exchange, writer
// with heartbeat, reader with idle deadline. It returns the teardown
// reason class.
func (f *Face) runConn(conn net.Conn) string {
	cfg := &f.m.cfg
	f.mu.Lock()
	f.downReason = ""
	f.mu.Unlock()

	// Hello exchange, bounded by its own deadline: announce our id,
	// learn the peer's.
	conn.SetWriteDeadline(time.Now().Add(cfg.HelloTimeout))
	if _, err := conn.Write(helloFrame(f.m.localID())); err != nil {
		conn.Close()
		f.m.count(func(s *Stats) { s.ConnResets++ })
		return reasonHello
	}
	br := bufio.NewReaderSize(conn, 32<<10)
	conn.SetReadDeadline(time.Now().Add(cfg.HelloTimeout))
	typ, body, buf, err := readFrame(br, nil, cfg.MaxFrame)
	if err != nil || typ != frameHello || len(body) != 4 {
		conn.Close()
		f.m.count(func(s *Stats) { s.ConnResets++ })
		return reasonHello
	}
	peer := wire.NodeID(binary.BigEndian.Uint32(body))
	if self := f.m.localID(); self != 0 && peer == self {
		conn.Close()
		return reasonSelf
	}

	start := time.Now()
	f.mu.Lock()
	f.conn = conn
	f.peer = peer
	f.up = true
	f.mu.Unlock()
	f.m.tracer().FaceUp(peer, f.addr)

	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		f.writeLoop(conn, done)
	}()
	f.readLoop(conn, br, buf)
	conn.Close()
	close(done)
	wg.Wait()

	f.mu.Lock()
	f.up = false
	f.conn = nil
	reason := f.downReason
	if reason == "" {
		reason = reasonRead
	}
	// A connection that lived through at least one heartbeat interval
	// was a real success: the breaker counts consecutive failures, so
	// wipe the streak before supervise() adds this teardown.
	if f.dialed && time.Since(start) >= cfg.HeartbeatEvery {
		f.fails = -1
	}
	fails := f.fails + 1
	f.mu.Unlock()
	// Frames queued for the connection that died go with it: a
	// reconnected face starts clean instead of replaying stale traffic.
	f.take(nil)
	if f.stopped() {
		reason = reasonClosed
	}
	f.m.tracer().FaceDown(peer, fails, reason)
	return reason
}

// writeLoop owns all writes on the connection. Each time it wakes — a
// frame was queued, or a heartbeat is due — it takes everything the two
// queues hold, never waiting for more, and issues one write for the lot:
// listed frames first, overhear copies after, the ping last. Every write
// carries a deadline; a blocked or dead peer tears the connection down
// instead of wedging the mesh.
func (f *Face) writeLoop(conn net.Conn, done chan struct{}) {
	hb := time.NewTicker(f.m.cfg.HeartbeatEvery)
	defer hb.Stop()
	var batch []frame
	for {
		ping := false
		select {
		case <-done:
			return
		case <-f.stopCh:
			return
		case <-f.wake:
		case <-hb.C:
			ping = true
		}
		batch = f.take(batch[:0])
		if ping {
			batch = append(batch, pingFrame)
		}
		if len(batch) > 0 && !f.writeBatch(conn, batch) {
			conn.Close()
			return
		}
		clear(batch)
	}
}

// writeBatch writes the frames' segments in one call. Chaos draws once per
// message frame, in queue order; a hit cuts the batch there — what was
// queued ahead of it is still written — and fails the connection.
func (f *Face) writeBatch(conn net.Conn, batch []frame) bool {
	cfg := &f.m.cfg
	reset, stall := false, false
	if cfg.Chaos != nil {
		for i, fr := range batch {
			if fr.head[lenSize] != frameMsg {
				continue
			}
			if reset, stall = cfg.Chaos.ConnFault(f.addr); reset || stall {
				batch = batch[:i]
				break
			}
		}
	}
	if len(batch) > 0 {
		for _, fr := range batch {
			f.segs = append(append(f.segs, fr.head), fr.rest...)
		}
		f.bufs = f.segs
		conn.SetWriteDeadline(time.Now().Add(cfg.WriteTimeout))
		n, err := f.bufs.WriteTo(conn)
		clear(f.segs)
		f.segs = f.segs[:0]
		if err != nil {
			if isTimeout(err) {
				f.noteReason(reasonWriteTime)
				f.m.count(func(s *Stats) { s.WriteTimeouts++ })
			} else {
				f.noteReason(reasonWrite)
				f.m.count(func(s *Stats) { s.ConnResets++ })
			}
			return false
		}
		f.m.count(func(s *Stats) {
			s.Writes++
			s.FramesSent += uint64(len(batch))
			s.BytesSent += uint64(n)
		})
	}
	switch {
	case reset:
		f.noteReason(reasonReset)
		f.m.count(func(s *Stats) { s.ConnResets++ })
		return false
	case stall:
		// Simulate a peer that stopped draining: park until the write
		// deadline would have fired, then fail like one.
		if f.sleep(cfg.WriteTimeout) {
			f.noteReason(reasonWriteTime)
			f.m.count(func(s *Stats) { s.WriteTimeouts++ })
		}
		return false
	}
	return true
}

// readLoop consumes frames until the connection dies or goes silent
// past the heartbeat budget. A message holding payload bytes keeps its
// frame's buffer; the reader goes on with the scratch that frame outgrew.
func (f *Face) readLoop(conn net.Conn, br *bufio.Reader, buf []byte) {
	cfg := &f.m.cfg
	idle := cfg.HeartbeatEvery * time.Duration(cfg.HeartbeatMiss+1)
	var armed time.Time
	for {
		// The idle deadline is re-armed by the clock, not by the frame:
		// at most half a heartbeat stale, so a silent peer is torn down
		// between HeartbeatMiss and HeartbeatMiss+1 intervals after its
		// last frame.
		if now := time.Now(); now.Sub(armed) >= cfg.HeartbeatEvery/2 {
			conn.SetReadDeadline(now.Add(idle))
			armed = now
		}
		scratch := buf
		typ, body, nbuf, err := readFrame(br, buf, cfg.MaxFrame)
		buf = nbuf
		if err != nil {
			if isTimeout(err) {
				f.noteReason(reasonHeartbeat)
				f.m.count(func(s *Stats) { s.HeartbeatTimeouts++ })
			} else {
				f.noteReason(reasonRead)
				f.m.count(func(s *Stats) { s.ConnResets++ })
			}
			return
		}
		f.m.count(func(s *Stats) {
			s.FramesReceived++
			s.BytesReceived += uint64(lenSize + 1 + len(body))
		})
		switch typ {
		case framePing:
			f.enqueue(pongFrame, true)
		case framePong, frameHello:
			// Keepalive answer / late hello: reading it is what counts,
			// the idle deadline moves with whatever arrives.
		case frameMsg:
			msg, err := wire.DecodeChecked(body)
			if err != nil {
				f.m.count(func(s *Stats) {
					if errors.Is(err, wire.ErrChecksum) {
						s.ChecksumErrors++
					} else {
						s.DecodeErrors++
					}
				})
				continue
			}
			if wire.PayloadBytes(msg) > 0 {
				if cap(buf) == cap(scratch) {
					scratch = nil // the frame was read into the scratch itself
				}
				buf = scratch
			}
			f.m.deliver(msg)
		default:
			// Unknown frame type: ignore for forward compatibility.
		}
	}
}

func isTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}
