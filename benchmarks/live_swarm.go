package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"pds"
	"pds/internal/attr"
	"pds/internal/core"
	"pds/internal/face"
	"pds/internal/link"
	"pds/internal/origin"
	"pds/internal/wire"
)

// live-swarm sizing (see README "Sizing").
const (
	liveNodes     = 4 // 2 producers + 2 consumers, full TCP mesh over 127.0.0.1
	liveProducers = 2
	liveClients   = 2 // closed-loop clients = nproc on the build box
	liveItems     = 32
	liveItemBytes = 896 << 10
	liveChunk     = 128 << 10
	liveOpTimeout = 60 * time.Second
	liveMeshWait  = 10 * time.Second
)

// liveLinkConfig is the prototype link configuration with pacing off:
// with the default 4.5 Mb/s LeakRate, wall time is a constant of
// configuration rather than a measurement of the code.
func liveLinkConfig() link.Config {
	cfg := link.DefaultConfig(nil)
	cfg.PaceEnabled = false
	return cfg
}

type liveItem struct {
	desc     pds.Descriptor // without totalchunks; PublishItem completes it
	payload  []byte
	sum      [sha256.Size]byte
	producer int // node index that publishes it
}

// liveWorkload is the deployment plane: four real pds.Nodes in one
// process on a supervised TCP face mesh, two closed-loop clients
// fetching through the tiered ladder with an in-process origin behind
// it. Each client fetches its own half of the catalog: the mesh fans
// every frame out to every peer, so a client overhears — and caches —
// whatever the other one fetches, and a shared catalog would make half
// of all ops 15 µs local hits and put the median on the knife's edge
// between two modes.
type liveWorkload struct {
	items  []liveItem
	orders [liveClients][]int // item indices, in each client's fetch order
}

func (w *liveWorkload) name() string    { return "live-swarm" }
func (w *liveWorkload) simulated() bool { return false }
func (w *liveWorkload) minPasses() int  { return 6 }
func (w *liveWorkload) why() string {
	return "host clock, real sockets (loopback): face framing/CRC, link under a real clock, the clock.Real lock, core+store under concurrency — the deployment plane no simulated figure touches"
}

func (w *liveWorkload) storeShape() (int, attr.Query) {
	return liveItems * (liveItemBytes / liveChunk), attr.NewQuery(attr.Eq(attr.AttrNamespace, attr.String("media")))
}

func (w *liveWorkload) generate(seed int64) {
	rng := rand.New(rand.NewSource(subSeed(seed, 0)))
	w.items = make([]liveItem, liveItems)
	for i := range w.items {
		it := &w.items[i]
		it.payload = make([]byte, liveItemBytes)
		rng.Read(it.payload)
		it.sum = sha256.Sum256(it.payload)
		it.producer = i % liveProducers
		it.desc = pds.NewDescriptor().
			Set(pds.AttrNamespace, pds.String("media")).
			Set(pds.AttrDataType, pds.String("blob")).
			Set(pds.AttrName, pds.String(fmt.Sprintf("item-%d-%03d", seed, i)))
	}
	// Deal the catalog into disjoint halves, each in a seeded order.
	for i, it := range rng.Perm(liveItems) {
		w.orders[i%liveClients] = append(w.orders[i%liveClients], it)
	}
}

// tracedTransport wraps a node's face mesh for the traced pass: a
// face.send span around every Send, a pds.rx span around the receiver
// callback (which is clock.Real lock wait + link + core).
//
// Protocol code only ever runs under the node's clock lock, so receive
// callbacks of one node are serialized anyway; the wrapper serializes
// them itself (rxMu) so that at most one pds.rx span per node is open
// past the lock at a time, and a Send issued while one is open is
// taken as its child. Sends from timers or API calls that slip in
// while a receiver still waits for the lock are misattributed as its
// children; with pacing off those are rare (query starts and
// retransmission timers).
type tracedTransport struct {
	inner *face.Mesh
	lt    *liveTracer
	node  int

	rxMu    sync.Mutex
	curRx   atomic.Uint32 // id of the open pds.rx span, 0 = none
	rxChild atomic.Int64  // Σ duration of Sends under the open pds.rx span
}

var _ pds.Transport = (*tracedTransport)(nil)

func (t *tracedTransport) Send(msg *pds.Message) bool {
	start := t.lt.now()
	ok := t.inner.Send(msg)
	end := t.lt.now()
	parent := t.curRx.Load()
	if parent != 0 {
		t.rxChild.Add(end - start)
	}
	t.lt.mu.Lock()
	t.lt.sink.finish(spanFaceSend, t.lt.sink.newID(), parent, 0, start, end, 0)
	t.lt.cap.message(msg)
	t.lt.mu.Unlock()
	return ok
}

func (t *tracedTransport) SetReceiver(fn func(*pds.Message)) {
	if fn == nil {
		t.inner.SetReceiver(nil)
		return
	}
	t.inner.SetReceiver(func(msg *pds.Message) {
		start := t.lt.now()
		t.rxMu.Lock()
		t.lt.mu.Lock()
		id := t.lt.sink.newID()
		t.lt.inbound[t.node] = append(t.lt.inbound[t.node], rxSample{at: time.Duration(start), msg: msg})
		t.lt.mu.Unlock()
		t.rxChild.Store(0)
		t.curRx.Store(id)
		fn(msg)
		t.curRx.Store(0)
		child := t.rxChild.Load()
		end := t.lt.now()
		t.rxMu.Unlock()
		t.lt.mu.Lock()
		t.lt.sink.finish(spanPdsRx, id, 0, 0, start, end, child)
		t.lt.mu.Unlock()
	})
}

func (t *tracedTransport) Close() error { return t.inner.Close() }

// SetLocalID and OnPeerDown forward the optional hookups pds.NewNode
// discovers by type assertion, so the wrapped mesh behaves exactly as
// an unwrapped one (hello frames carry the node id, breaker trips feed
// the neighbour blacklist).
func (t *tracedTransport) SetLocalID(id wire.NodeID)       { t.inner.SetLocalID(id) }
func (t *tracedTransport) OnPeerDown(fn func(wire.NodeID)) { t.inner.OnPeerDown(fn) }

// rxSample is one inbound frame of the traced pass with its arrival
// time, kept for the link receive replay.
type rxSample struct {
	at  time.Duration
	msg *wire.Message
}

type liveOp struct {
	item    int
	latency time.Duration
	res     *pds.TieredResult
	err     error
}

func (w *liveWorkload) pass(tc *traceCtx, _ int) (*passOutcome, error) {
	// A fresh swarm per pass: listeners on ephemeral loopback ports,
	// fixed node seeds, then a full mesh of supervised dialed faces.
	meshes := make([]*face.Mesh, liveNodes)
	nodes := make([]*pds.Node, liveNodes)
	closeAll := func() {
		for i, n := range nodes {
			if n != nil {
				n.Close() // closes its transport too
			} else if meshes[i] != nil {
				meshes[i].Close()
			}
		}
	}
	org := origin.NewStatic()
	for i := range meshes {
		cfg := pds.DefaultFaceConfig("127.0.0.1:0")
		cfg.Seed = int64(100 + i)
		m, err := pds.NewFaceTransport(cfg)
		if err != nil {
			closeAll()
			return nil, fmt.Errorf("node %d: open face transport: %w", i, err)
		}
		meshes[i] = m
		var trans pds.Transport = m
		if tc != nil {
			trans = &tracedTransport{inner: m, lt: tc.live, node: i}
		}
		opts := []pds.NodeOption{
			pds.WithNodeID(pds.NodeID(i + 1)),
			pds.WithSeed(int64(1000 + i)),
			pds.WithLinkConfig(liveLinkConfig()),
		}
		if i >= liveProducers {
			opts = append(opts, pds.WithOrigin(org))
		}
		n, err := pds.NewNode(trans, opts...)
		if err != nil {
			closeAll()
			return nil, fmt.Errorf("node %d: %w", i, err)
		}
		nodes[i] = n
	}
	defer closeAll()
	for i := range meshes {
		for j := i + 1; j < liveNodes; j++ {
			meshes[i].AddPeer(meshes[j].ListenAddr().String())
		}
	}
	for i, m := range meshes {
		if !m.WaitReady(liveNodes-1, liveMeshWait) {
			return nil, fmt.Errorf("node %d: mesh not up after %v (%d of %d faces)", i, liveMeshWait, m.UpCount(), liveNodes-1)
		}
	}

	// Publish on the producers; the origin holds a copy of everything,
	// so a fetch the swarm cannot serve shows up as tier.origin_chunks
	// instead of a failure.
	descs := make([]pds.Descriptor, len(w.items))
	for i, it := range w.items {
		descs[i] = nodes[it.producer].PublishItem(it.desc, it.payload, liveChunk)
		org.PutEntry(descs[i])
		for c := 0; c < descs[i].TotalChunks(); c++ {
			lo := c * liveChunk
			org.Put(descs[i].WithChunk(c), it.payload[lo:min(lo+liveChunk, len(it.payload))])
		}
	}

	// Drive: one closed-loop client per consumer node.
	ops := make([][]liveOp, liveClients)
	var wg sync.WaitGroup
	for c := 0; c < liveClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			node := nodes[liveProducers+c]
			for _, it := range w.orders[c] {
				ctx, cancel := context.WithTimeout(context.Background(), liveOpTimeout)
				start := time.Now()
				res, err := node.RetrieveTiered(ctx, descs[it])
				lat := time.Since(start)
				cancel()
				ops[c] = append(ops[c], liveOp{item: it, latency: lat, res: res, err: err})
			}
		}(c)
	}
	wg.Wait()

	out := &passOutcome{counters: map[string]float64{}}
	var fs face.Stats
	for _, m := range meshes {
		s := m.Stats()
		fs.FramesSent += s.FramesSent
		fs.BytesSent += s.BytesSent
		fs.OutboxDrops += s.OutboxDrops
		fs.ConnResets += s.ConnResets
		fs.WriteTimeouts += s.WriteTimeouts
	}
	out.overheadBytes = fs.BytesSent
	out.counters["face.frames_sent"] = float64(fs.FramesSent)
	out.counters["face.bytes_sent"] = float64(fs.BytesSent)
	out.counters["face.outbox_drops"] = float64(fs.OutboxDrops)
	out.counters["face.conn_resets"] = float64(fs.ConnResets)
	out.counters["face.write_timeouts"] = float64(fs.WriteTimeouts)
	var cs core.Stats
	for _, n := range nodes {
		sumCore(&cs, n.Stats())
	}
	addCoreCounters(out.counters, cs)

	chunksPerItem := uint64(liveItemBytes / liveChunk)
	for _, client := range ops {
		for _, op := range client {
			out.attempted++
			out.wanted += chunksPerItem
			out.opMs = append(out.opMs, float64(op.latency)/float64(time.Millisecond))
			if op.err != nil || op.res == nil || !op.res.Complete {
				out.failed++
				continue
			}
			out.counters["tier.p2p_chunks"] += float64(op.res.Counters.P2PChunks + op.res.Counters.EdgeChunks)
			out.counters["tier.origin_chunks"] += float64(op.res.Counters.OriginChunks)
		}
	}
	out.verify = func() error {
		for c, client := range ops {
			for _, op := range client {
				if op.res == nil {
					continue
				}
				want := w.items[op.item]
				for id, got := range op.res.Chunks {
					lo := id * liveChunk
					if lo < 0 || lo >= len(want.payload) || !bytes.Equal(got, want.payload[lo:min(lo+liveChunk, len(want.payload))]) {
						return fmt.Errorf("client %d item %d: chunk %d bytes differ from what was published", c, op.item, id)
					}
					out.delivered++
				}
				if op.res.Complete {
					whole, ok := op.res.Assemble()
					if !ok || sha256.Sum256(whole) != want.sum {
						return fmt.Errorf("client %d item %d: assembled bytes hash differs from the published item", c, op.item)
					}
				}
			}
		}
		return nil
	}
	return out, nil
}
