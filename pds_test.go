package pds

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pds/internal/clock"
	"pds/internal/wire"
)

func sensorDesc(name string) Descriptor {
	return NewDescriptor().
		Set(AttrNamespace, String("env")).
		Set(AttrDataType, String("nox")).
		Set(AttrName, String(name))
}

func sensorSel() Query {
	return NewQuery(Eq(AttrNamespace, String("env")))
}

// TestRealNodesOverChanHub runs two real-time nodes over the in-process
// hub: publish on one, discover and collect from the other.
func TestRealNodesOverChanHub(t *testing.T) {
	hub := NewChanHub()
	a, err := NewNode(hub.Attach(), WithNodeID(1), WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := NewNode(hub.Attach(), WithNodeID(2), WithSeed(2))
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	a.Publish(sensorDesc("s1"), []byte("42ppb"))
	a.Publish(sensorDesc("s2"), []byte("17ppb"))

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	entries, err := b.Discover(ctx, sensorSel())
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 {
		t.Fatalf("discovered %d entries, want 2", len(entries))
	}
	payloads, descs, err := b.Collect(ctx, sensorSel())
	if err != nil {
		t.Fatal(err)
	}
	if len(descs) != 2 || len(payloads) != 2 {
		t.Fatalf("collected %d descs / %d payloads", len(descs), len(payloads))
	}
}

// TestRealNodesRetrieveItem moves a chunked item across the hub.
func TestRealNodesRetrieveItem(t *testing.T) {
	hub := NewChanHub()
	a, err := NewNode(hub.Attach(), WithNodeID(1), WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := NewNode(hub.Attach(), WithNodeID(2), WithSeed(2))
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	payload := make([]byte, 5000)
	for i := range payload {
		payload[i] = byte(i % 251)
	}
	item := NewDescriptor().
		Set(AttrNamespace, String("media")).
		Set(AttrName, String("clip"))
	item = a.PublishItem(item, payload, 2048)

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	got, err := b.Retrieve(ctx, item)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(payload) {
		t.Fatalf("retrieved %d bytes, want %d", len(got), len(payload))
	}
	for i := range got {
		if got[i] != payload[i] {
			t.Fatalf("payload corrupted at byte %d", i)
		}
	}
}

// TestRealNodesOverLoopbackUDP runs two nodes over real UDP sockets on
// 127.0.0.1, exercising the full encode/fragment/reassemble path.
func TestRealNodesOverLoopbackUDP(t *testing.T) {
	ta, err := NewLoopbackTransport(19751, []int{19752})
	if err != nil {
		t.Skipf("cannot bind loopback UDP: %v", err)
	}
	tb, err := NewLoopbackTransport(19752, []int{19751})
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewNode(ta, WithNodeID(1), WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := NewNode(tb, WithNodeID(2), WithSeed(2))
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	payload := make([]byte, 20000) // forces fragmentation over UDP
	for i := range payload {
		payload[i] = byte(i % 127)
	}
	item := a.PublishItem(NewDescriptor().Set(AttrName, String("doc")), payload, 8192)
	a.Publish(sensorDesc("s1"), []byte("x"))

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	entries, err := b.Discover(ctx, NewQuery(Exists(AttrName)))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) < 2 {
		t.Fatalf("discovered %d entries over UDP", len(entries))
	}
	got, err := b.Retrieve(ctx, item)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(payload) {
		t.Fatalf("retrieved %d bytes, want %d", len(got), len(payload))
	}
	for i := range got {
		if got[i] != payload[i] {
			t.Fatalf("payload corrupted at byte %d", i)
		}
	}
}

// TestSimFacade drives the public simulation API end to end.
func TestSimFacade(t *testing.T) {
	sim := NewGridSim(5, 5, SimOptions{Seed: 3})
	producer := sim.Node(1)
	consumer := sim.Node(13) // center of 5x5
	for i := 0; i < 10; i++ {
		producer.Publish(sensorDesc(string(rune('a'+i))), []byte{byte(i)})
	}
	res, done := consumer.DiscoverAndWait(sensorSel(), 2*time.Minute)
	if !done {
		t.Fatal("discovery did not finish")
	}
	if len(res.Entries) != 10 {
		t.Fatalf("entries = %d", len(res.Entries))
	}
	if sim.OverheadBytes() == 0 {
		t.Fatal("no traffic counted")
	}

	item := producer.PublishItem(NewDescriptor().Set(AttrName, String("v")), make([]byte, 100000), DefaultChunkSize)
	rres, done := consumer.RetrieveAndWait(item, 5*time.Minute)
	if !done || !rres.Complete {
		t.Fatalf("retrieval done=%v complete=%v", done, rres.Complete)
	}
}

// TestSimMobileFacade smoke-tests the mobile deployment constructor.
func TestSimMobileFacade(t *testing.T) {
	sim, ids := NewMobileSim(1.0, 5*time.Minute, SimOptions{Seed: 4})
	if len(ids) == 0 {
		t.Fatal("no initial nodes")
	}
	prod := sim.Node(ids[0])
	prod.PublishEntry(sensorDesc("m1"))
	res, done := sim.Node(ids[len(ids)-1]).DiscoverAndWait(sensorSel(), 2*time.Minute)
	if !done {
		t.Fatal("mobile discovery did not finish")
	}
	if len(res.Entries) != 1 {
		t.Fatalf("entries = %d", len(res.Entries))
	}
}

// TestRetrieveWithProgress verifies the progress callback fires with
// monotonically nondecreasing counts ending at total.
func TestRetrieveWithProgress(t *testing.T) {
	hub := NewChanHub()
	a, err := NewNode(hub.Attach(), WithNodeID(1), WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := NewNode(hub.Attach(), WithNodeID(2), WithSeed(2))
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	item := a.PublishItem(NewDescriptor().Set(AttrName, String("p")), make([]byte, 9000), 2048)
	var mu sync.Mutex
	var progress []int
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	data, err := b.RetrieveWithOptions(ctx, item, RetrieveOptions{Progress: func(done, total int) {
		mu.Lock()
		progress = append(progress, done)
		mu.Unlock()
		if total != item.TotalChunks() {
			t.Errorf("total = %d", total)
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	if len(data) != 9000 {
		t.Fatalf("data = %d bytes", len(data))
	}
	mu.Lock()
	defer mu.Unlock()
	if len(progress) == 0 {
		t.Fatal("no progress callbacks")
	}
	for i := 1; i < len(progress); i++ {
		if progress[i] < progress[i-1] {
			t.Fatalf("progress regressed: %v", progress)
		}
	}
	if progress[len(progress)-1] != item.TotalChunks() {
		t.Fatalf("final progress %d != total %d", progress[len(progress)-1], item.TotalChunks())
	}
}

// TestLocalIntrospection covers the store-inspection helpers.
func TestLocalIntrospection(t *testing.T) {
	hub := NewChanHub()
	n, err := NewNode(hub.Attach(), WithNodeID(1), WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	n.Publish(sensorDesc("s1"), []byte("v"))
	item := n.PublishItem(NewDescriptor().Set(AttrName, String("big")), make([]byte, 5000), 2048)

	if got := n.LocalEntries(sensorSel()); len(got) != 1 {
		t.Fatalf("LocalEntries = %d", len(got))
	}
	held, total := n.LocalData(item)
	if held != 3 || total != 3 {
		t.Fatalf("LocalData = %d/%d", held, total)
	}
	n.Unpublish(sensorDesc("s1"))
	if got := n.LocalEntries(sensorSel()); len(got) != 0 {
		t.Fatalf("LocalEntries after unpublish = %d", len(got))
	}
}

// TestNodeErrorPaths covers constructor and context failures.
func TestNodeErrorPaths(t *testing.T) {
	if _, err := NewNode(nil); err == nil {
		t.Fatal("nil transport accepted")
	}
	hub := NewChanHub()
	cfg := DefaultConfig()
	cfg.CacheCap = 1 << 20
	n, err := NewNode(hub.Attach(), WithNodeID(7), WithSeed(7), WithConfig(cfg))
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()

	// A cancelled context aborts a blocking discovery immediately.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := n.Discover(ctx, NewQuery()); err == nil {
		t.Fatal("cancelled discover returned nil error")
	}
	if _, err := n.Retrieve(ctx, NewDescriptor().Set(AttrTotalChunks, Int(3))); err == nil {
		t.Fatal("cancelled retrieve returned nil error")
	}
	if _, _, err := n.Collect(ctx, NewQuery()); err == nil {
		t.Fatal("cancelled collect returned nil error")
	}
}

// TestNewNodeRejectsConfiguredStrategy: a strategy name that comes in
// through WithConfig is checked before the node starts, and an unknown
// one is an error, not a panic in the core.
func TestNewNodeRejectsConfiguredStrategy(t *testing.T) {
	hub := NewChanHub()
	for _, cfg := range []Config{{Routing: "nope"}, {Caching: "nope"}} {
		tr := hub.Attach()
		if n, err := NewNode(tr, WithConfig(cfg)); err == nil {
			n.Close()
			t.Fatalf("NewNode accepted %+v", cfg)
		}
		tr.Close()
	}
}

// TestRetrieveIncompleteError: retrieving a phantom item yields an
// error naming the shortfall, not a silent empty payload.
func TestRetrieveIncompleteError(t *testing.T) {
	hub := NewChanHub()
	n, err := NewNode(hub.Attach(), WithNodeID(1), WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	cfg := DefaultConfig()
	_ = cfg
	ghost := NewDescriptor().Set(AttrName, String("ghost")).Set(AttrTotalChunks, Int(2))
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	if _, err := n.Retrieve(ctx, ghost); err == nil {
		t.Fatal("phantom retrieval succeeded")
	}
}

// TestChanHubCloseStopsDelivery: frames sent after a member closes are
// not delivered to it, nor queued behind it: a closed member's inbox has
// no pump, and a hub that kept the member would fill the inbox, then
// report every later send as dropped, the frames pinned there.
func TestChanHubCloseStopsDelivery(t *testing.T) {
	hub := NewChanHub()
	a := hub.Attach()
	b := hub.Attach()
	got := make(chan *Message, 16)
	b.SetReceiver(func(m *Message) { got <- m })
	msg := &Message{Type: 3, Ack: &Ack{MsgID: 1, From: 1}}
	a.Send(msg)
	select {
	case <-got:
	case <-time.After(2 * time.Second):
		t.Fatal("delivery before close failed")
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2000; i++ {
		if !a.Send(msg) {
			t.Fatalf("send %d after close reported a drop", i)
		}
	}
	select {
	case <-got:
		t.Fatal("delivery after close")
	case <-time.After(100 * time.Millisecond):
	}
}

// TestNodeStatsExposed sanity-checks the counters surface.
func TestNodeStatsExposed(t *testing.T) {
	hub := NewChanHub()
	a, _ := NewNode(hub.Attach(), WithNodeID(1), WithSeed(1))
	defer a.Close()
	b, _ := NewNode(hub.Attach(), WithNodeID(2), WithSeed(2))
	defer b.Close()
	a.Publish(sensorDesc("s"), []byte("x"))
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if _, err := b.Discover(ctx, sensorSel()); err != nil {
		t.Fatal(err)
	}
	if a.Stats().QueriesReceived == 0 {
		t.Fatal("producer saw no queries")
	}
}

// chunkDeaf drops every inbound chunk payload (and link fragments of
// one), so a retrieval behind it learns routes but never completes.
type chunkDeaf struct{ Transport }

func (d chunkDeaf) SetReceiver(fn func(*Message)) {
	d.Transport.SetReceiver(func(m *Message) {
		if m.Type == wire.TypeFragment || (m.Type == wire.TypeResponse && m.Response.Kind == wire.KindChunk) {
			return
		}
		fn(m)
	})
}

// TestCancelledRetrieveStopsCoreSession: a Retrieve whose context is
// cancelled must take its core session down with it. Left running, the
// session keeps re-requesting chunks for RetrievalRounds × ChunkRetry
// after the caller has gone.
func TestCancelledRetrieveStopsCoreSession(t *testing.T) {
	hub := NewChanHub()
	cfg := DefaultConfig()
	cfg.ChunkRetry = 200 * time.Millisecond // re-request quickly
	cfg.RetrievalRounds = 1000              // and for the whole test
	a, err := NewNode(hub.Attach(), WithNodeID(1), WithSeed(1), WithConfig(cfg))
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := NewNode(chunkDeaf{hub.Attach()}, WithNodeID(2), WithSeed(2), WithConfig(cfg))
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	item := NewDescriptor().Set(AttrNamespace, String("media")).Set(AttrName, String("clip"))
	item = a.PublishItem(item, make([]byte, 3000), 1000)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	errc := make(chan error, 1)
	go func() {
		_, err := b.Retrieve(ctx, item)
		errc <- err
	}()
	for deadline := time.Now().Add(30 * time.Second); b.Stats().SubQueriesSent < 2; {
		if time.Now().After(deadline) {
			t.Fatal("retrieval never reached the chunk-request phase")
		}
		time.Sleep(20 * time.Millisecond)
	}
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("Retrieve = %v, want context.Canceled", err)
	}
	var active bool
	b.clk.Locked(func() { active = b.core.CancelRetrieve(item) })
	if active {
		t.Fatal("core session still in the retrieval table after cancellation")
	}
	sent := b.Stats().SubQueriesSent
	time.Sleep(5 * cfg.ChunkRetry)
	if now := b.Stats().SubQueriesSent; now != sent {
		t.Fatalf("SubQueriesSent grew %d -> %d after cancellation", sent, now)
	}
}

// countingClock is the wall clock with a count of the timers armed
// through it — Schedule calls and the clock's own reusable timers alike
// — that have neither fired nor been cancelled or stopped.
type countingClock struct {
	*clock.Real
	pending atomic.Int64
}

func (c *countingClock) Schedule(d time.Duration, fn func()) func() {
	c.pending.Add(1)
	var once sync.Once
	done := func() { once.Do(func() { c.pending.Add(-1) }) }
	cancel := c.Real.Schedule(d, func() { done(); fn() })
	return func() { cancel(); done() }
}

// NewTimer is Real's timer, counted while armed. Like the timer itself
// it is used under the clock's lock only.
func (c *countingClock) NewTimer(fn func()) clock.Timer {
	t := &countedTimer{c: c}
	t.Timer = c.Real.NewTimer(func() { t.disarm(); fn() })
	return t
}

type countedTimer struct {
	clock.Timer
	c     *countingClock
	armed bool
}

func (t *countedTimer) Reset(d time.Duration) {
	if !t.armed {
		t.armed = true
		t.c.pending.Add(1)
	}
	t.Timer.Reset(d)
}

func (t *countedTimer) Stop() { t.disarm(); t.Timer.Stop() }

func (t *countedTimer) disarm() {
	if t.armed {
		t.armed = false
		t.c.pending.Add(-1)
	}
}

// TestCloseLeavesNoTimerPending: a node that has taken in soft state has
// a sweep armed for its earliest expiry, tens of seconds to minutes out;
// Close must cancel it rather than leave a timer pinning the closed
// node's stores until then.
func TestCloseLeavesNoTimerPending(t *testing.T) {
	hub := NewChanHub()
	clk := &countingClock{Real: clock.NewReal()}
	a, err := newNode(clk.Real, clk, hub.Attach(), WithNodeID(1), WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewNode(hub.Attach(), WithNodeID(2), WithSeed(2))
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	b.Publish(sensorDesc("s1"), []byte("42ppb"))

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if entries, err := a.Discover(ctx, sensorSel()); err != nil || len(entries) != 1 {
		t.Fatalf("Discover = %d entries, %v", len(entries), err)
	}
	// The session is over and the link's ack and retry timers drain in
	// well under a second; what stays is the sweep for the lingering
	// query, the response id and the cached entry.
	settle := func(want int64) int64 {
		deadline := time.Now().Add(3 * time.Second)
		for clk.pending.Load() != want && time.Now().Before(deadline) {
			time.Sleep(10 * time.Millisecond)
		}
		return clk.pending.Load()
	}
	if got := settle(1); got != 1 {
		t.Fatalf("%d timers pending on an idle node holding soft state, want the one sweep", got)
	}
	// A retrieve nobody can serve is in flight at Close: its session has a
	// 10 Hz check armed, which also keeps its deadline, and Close must end
	// it — the call returns and no timer stays behind.
	item := NewDescriptor().Set(AttrName, String("nowhere")).Set(AttrTotalChunks, Int(4))
	retrieved := make(chan error, 1)
	go func() {
		_, err := a.RetrieveWithOptions(context.Background(), item, RetrieveOptions{Deadline: time.Minute})
		retrieved <- err
	}()
	for deadline := time.Now().Add(3 * time.Second); clk.pending.Load() < 2; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d timers pending with a deadline retrieve in flight, want the sweep and a check", clk.pending.Load())
		}
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if got := clk.pending.Load(); got != 0 {
		t.Fatalf("%d timers pending after Close", got)
	}
	select {
	case err := <-retrieved:
		if err == nil {
			t.Fatal("retrieve of an item nobody has succeeded")
		}
	case <-time.After(3 * time.Second):
		t.Fatal("retrieve in flight at Close never returned")
	}
}

// deafToAcks is a transport whose node never hears an acknowledgement:
// every frame it addresses to a receiver stays pending in its link,
// retried until the link gives up.
type deafToAcks struct{ Transport }

func (d deafToAcks) SetReceiver(fn func(*Message)) {
	if fn == nil {
		d.Transport.SetReceiver(nil)
		return
	}
	d.Transport.SetReceiver(func(m *Message) {
		if m.Type != wire.TypeAck {
			fn(m)
		}
	})
}

// TestCloseCancelsRetransmissions: a frame still unacknowledged at Close
// is retried with doubling timeouts for some twenty seconds, and every
// armed retry pins the frame and, through the link, the closed node's
// stores. Close must drop it rather than retry into a closed transport.
func TestCloseCancelsRetransmissions(t *testing.T) {
	hub := NewChanHub()
	clk := &countingClock{Real: clock.NewReal()}
	a, err := newNode(clk.Real, clk, deafToAcks{hub.Attach()}, WithNodeID(1), WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewNode(hub.Attach(), WithNodeID(2), WithSeed(2))
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	a.Publish(sensorDesc("s1"), []byte("42ppb"))

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if entries, err := b.Discover(ctx, sensorSel()); err != nil || len(entries) != 1 {
		t.Fatalf("Discover = %d entries, %v", len(entries), err)
	}
	// a answered b and will never hear b's ack.
	unacked := func() (pending int) {
		a.clk.Locked(func() { pending = a.link.PendingAcks() })
		return pending
	}
	if got := unacked(); got == 0 || clk.pending.Load() == 0 {
		t.Fatalf("%d frames of a await an ack on %d timers; the test exercises nothing", got, clk.pending.Load())
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if got := unacked(); got != 0 {
		t.Fatalf("%d frames still await acks after Close", got)
	}
	// Close stopped every record's retry timer (a.link is on the clock's
	// own timers, counted above). Jitter delays (≤ 100 ms) may still be
	// armed; a retry would be re-armed for seconds.
	deadline := time.Now().Add(time.Second)
	for clk.pending.Load() != 0 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if got := clk.pending.Load(); got != 0 {
		t.Fatalf("%d timers pending a second after Close", got)
	}
}
