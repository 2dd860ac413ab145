package tracker

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"pds/internal/trace"
	"pds/internal/wire"
)

// ClientStats counts client-side tracker activity.
type ClientStats struct {
	Announces     uint64
	Lookups       uint64
	Failovers     uint64 // requests served by a non-active tracker
	StaleServes   uint64 // lookups served from the stale cache
	RequestErrors uint64 // individual tracker requests that failed
}

// ErrNoTracker is returned when every configured tracker is down and
// no cached peer list exists to degrade to.
var ErrNoTracker = errors.New("tracker: all trackers unreachable and no cached peers")

// Client talks to one or more trackers with failover: requests go to
// the active tracker first and rotate through the rest on timeout;
// when every tracker is down, Lookup degrades to the last good peer
// list (marked stale) instead of failing — retrieval keeps limping on
// yesterday's swarm rather than stopping.
type Client struct {
	addrs   []string
	timeout time.Duration

	mu      sync.Mutex
	active  int
	cache   []Peer
	cacheAt time.Time
	stats   ClientStats
	tr      *trace.NodeTracer

	hbMu   sync.Mutex
	hbStop chan struct{}
	hbWG   sync.WaitGroup
}

// NewClient returns a client over the tracker addresses, in priority
// order. timeout bounds one tracker request; zero selects 2s.
func NewClient(addrs []string, timeout time.Duration) *Client {
	if timeout <= 0 {
		timeout = 2 * time.Second
	}
	return &Client{addrs: append([]string(nil), addrs...), timeout: timeout}
}

// SetTracer attaches a node-bound tracer; nil disables tracing.
func (c *Client) SetTracer(nt *trace.NodeTracer) {
	c.mu.Lock()
	c.tr = nt
	c.mu.Unlock()
}

// Stats returns a snapshot of the client counters.
func (c *Client) Stats() ClientStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

func (c *Client) tracer() *trace.NodeTracer {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.tr
}

// Announce registers (or refreshes) this node's face address with the
// tracker plane.
func (c *Client) Announce(self wire.NodeID, addr string, ttl time.Duration) error {
	c.mu.Lock()
	c.stats.Announces++
	c.mu.Unlock()
	_, _, err := c.request(&Packet{Op: OpAnnounce, Node: self, Addr: addr, TTL: ttl}, OpAck)
	return err
}

// Lookup returns the live peer list, excluding self. When every
// tracker is unreachable it serves the last good list with stale=true;
// ErrNoTracker is returned only when there is no cache to degrade to.
func (c *Client) Lookup(self wire.NodeID) (peers []Peer, stale bool, err error) {
	c.mu.Lock()
	c.stats.Lookups++
	c.mu.Unlock()
	reply, from, err := c.request(&Packet{Op: OpQuery}, OpPeers)
	if err == nil {
		peers = filterSelf(reply.Peers, self)
		c.mu.Lock()
		c.cache = append([]Peer(nil), peers...)
		c.cacheAt = time.Now()
		c.mu.Unlock()
		c.tracer().TrackerLookup(len(peers), false, from)
		return peers, false, nil
	}
	c.mu.Lock()
	cached := append([]Peer(nil), c.cache...)
	hasCache := c.cacheAt != (time.Time{})
	if hasCache {
		c.stats.StaleServes++
	}
	c.mu.Unlock()
	if !hasCache {
		return nil, false, fmt.Errorf("%w: %v", ErrNoTracker, err)
	}
	c.tracer().TrackerLookup(len(cached), true, "")
	return cached, true, nil
}

// request tries the active tracker first, then rotates through the
// rest; the first tracker that answers becomes active.
func (c *Client) request(pkt *Packet, wantOp byte) (*Packet, string, error) {
	if len(c.addrs) == 0 {
		return nil, "", errors.New("tracker: no tracker addresses configured")
	}
	out, err := Encode(pkt)
	if err != nil {
		return nil, "", err
	}
	c.mu.Lock()
	start := c.active
	c.mu.Unlock()
	var lastErr error
	for i := 0; i < len(c.addrs); i++ {
		idx := (start + i) % len(c.addrs)
		addr := c.addrs[idx]
		reply, err := c.exchange(addr, out, wantOp)
		if err != nil {
			lastErr = err
			c.mu.Lock()
			c.stats.RequestErrors++
			c.mu.Unlock()
			continue
		}
		if idx != start {
			c.mu.Lock()
			c.active = idx
			c.stats.Failovers++
			c.mu.Unlock()
			c.tracer().TrackerFailover(addr)
		}
		return reply, addr, nil
	}
	return nil, "", lastErr
}

// exchange performs one UDP request/response with a deadline.
func (c *Client) exchange(addr string, out []byte, wantOp byte) (*Packet, error) {
	conn, err := net.Dial("udp", addr)
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(c.timeout))
	if _, err := conn.Write(out); err != nil {
		return nil, err
	}
	buf := make([]byte, MaxPacket)
	n, err := conn.Read(buf)
	if err != nil {
		return nil, err
	}
	reply, err := Decode(buf[:n])
	if err != nil {
		return nil, err
	}
	if reply.Op != wantOp {
		return nil, fmt.Errorf("tracker: unexpected reply %s", OpName(reply.Op))
	}
	return reply, nil
}

// StartHeartbeat announces (self, addr) every interval with the given
// TTL until the returned stop function is called. Announce errors are
// absorbed — the failover and stale-cache paths handle tracker
// outages; the heartbeat just keeps trying.
func (c *Client) StartHeartbeat(self wire.NodeID, addr string, ttl, every time.Duration) (stop func()) {
	if every <= 0 {
		every = 15 * time.Second
	}
	c.hbMu.Lock()
	if c.hbStop != nil {
		c.hbMu.Unlock()
		return func() {}
	}
	ch := make(chan struct{})
	c.hbStop = ch
	c.hbMu.Unlock()
	c.hbWG.Add(1)
	go func() {
		defer c.hbWG.Done()
		// First announce immediately so the node is discoverable
		// before the first tick.
		c.Announce(self, addr, ttl)
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-ch:
				return
			case <-t.C:
				c.Announce(self, addr, ttl)
			}
		}
	}()
	var once sync.Once
	return func() {
		once.Do(func() {
			close(ch)
			c.hbWG.Wait()
			c.hbMu.Lock()
			c.hbStop = nil
			c.hbMu.Unlock()
		})
	}
}

func filterSelf(peers []Peer, self wire.NodeID) []Peer {
	out := peers[:0]
	for _, p := range peers {
		if p.ID != self {
			out = append(out, p)
		}
	}
	return out
}
