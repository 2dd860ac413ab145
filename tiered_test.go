package pds

import (
	"context"
	"runtime"
	"sync"
	"testing"
	"time"

	"pds/internal/fault"
	"pds/internal/link"
	"pds/internal/origin"
	"pds/internal/trace"
	"pds/internal/tracker"
	"pds/internal/wire"
)

// countingTransport wraps a Transport and totals the logical sends and
// their encoded sizes, giving a transport-independent overhead figure.
type countingTransport struct {
	Transport
	mu    sync.Mutex
	sends int
	bytes int
}

func (c *countingTransport) Send(m *Message) bool {
	c.mu.Lock()
	c.sends++
	c.bytes += wire.EncodedSize(m)
	c.mu.Unlock()
	return c.Transport.Send(m)
}

// equivRow is one node's view of a scenario run: what it observed and
// what it cost.
type equivRow struct {
	entries   int // entries the consumer discovered
	retrieved int // payload bytes the consumer reassembled
	sends     [3]int
	bytes     [3]int
}

// runEquivScenario drives the same seeded publish/discover/retrieve
// workload over any three broadcast-equivalent transports and returns
// the recall/overhead row.
func runEquivScenario(t *testing.T, trans [3]*countingTransport) equivRow {
	t.Helper()
	// Acks off: per-hop retransmission reacts to wall-clock timing and
	// would make the overhead row depend on scheduler noise.
	lcfg := link.DefaultConfig(nil)
	lcfg.AckEnabled = false

	var nodes [3]*Node
	for i := range nodes {
		n, err := NewNode(trans[i],
			WithNodeID(NodeID(i+1)), WithSeed(int64(i+1)), WithLinkConfig(lcfg))
		if err != nil {
			t.Fatal(err)
		}
		defer n.Close()
		nodes[i] = n
	}

	nodes[0].Publish(sensorDesc("s1"), []byte("42ppb"))
	nodes[0].Publish(sensorDesc("s2"), []byte("17ppb"))
	payload := make([]byte, 5000)
	for i := range payload {
		payload[i] = byte(i % 251)
	}
	item := nodes[0].PublishItem(NewDescriptor().Set(AttrName, String("clip")), payload, 2048)

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	var row equivRow
	entries, err := nodes[2].Discover(ctx, sensorSel())
	if err != nil {
		t.Fatal(err)
	}
	row.entries = len(entries)
	got, err := nodes[2].Retrieve(ctx, item)
	if err != nil {
		t.Fatal(err)
	}
	row.retrieved = len(got)

	for i, ct := range trans {
		ct.mu.Lock()
		row.sends[i] = ct.sends
		row.bytes[i] = ct.bytes
		ct.mu.Unlock()
	}
	return row
}

// TestBroadcastUnicastEquivalence: the same seeded workload over the
// in-process broadcast hub and over a full mesh of TCP unicast faces
// must produce identical recall and identical protocol overhead — the
// protocol cannot tell the planes apart.
func TestBroadcastUnicastEquivalence(t *testing.T) {
	hub := NewChanHub()
	var hubTrans [3]*countingTransport
	for i := range hubTrans {
		hubTrans[i] = &countingTransport{Transport: hub.Attach()}
	}
	hubRow := runEquivScenario(t, hubTrans)

	var meshes [3]*FaceMesh
	for i := range meshes {
		cfg := DefaultFaceConfig("127.0.0.1:0")
		cfg.Self = wire.NodeID(i + 1)
		cfg.Seed = int64(i + 1)
		m, err := NewFaceTransport(cfg)
		if err != nil {
			t.Skipf("cannot bind loopback TCP: %v", err)
		}
		defer m.Close()
		meshes[i] = m
	}
	for i, m := range meshes {
		for j, o := range meshes {
			if i != j {
				m.AddPeer(o.ListenAddr().String())
			}
		}
	}
	var faceTrans [3]*countingTransport
	for i, m := range meshes {
		if !m.WaitReady(2, 10*time.Second) {
			t.Fatalf("mesh %d never reached 2 up faces", i)
		}
		faceTrans[i] = &countingTransport{Transport: m}
	}
	faceRow := runEquivScenario(t, faceTrans)

	if hubRow != faceRow {
		t.Fatalf("broadcast and unicast runs diverged:\n  hub:  %+v\n  face: %+v", hubRow, faceRow)
	}
	if hubRow.entries != 2 || hubRow.retrieved != 5000 {
		t.Fatalf("scenario recall wrong: %+v", hubRow)
	}
}

// TestTieredOriginFallback: a node with no peers and no trackers must
// complete a retrieval entirely from the origin backend, attribute
// every chunk to the origin tier, and serve the same item locally on
// the next call.
func TestTieredOriginFallback(t *testing.T) {
	payload := make([]byte, 5000)
	for i := range payload {
		payload[i] = byte(i % 253)
	}
	item := NewDescriptor().
		Set(AttrName, String("vid")).
		Set(AttrTotalChunks, Int(3))
	st := origin.NewStatic()
	for c, off := 0, 0; c < 3; c++ {
		end := off + 2048
		if end > len(payload) {
			end = len(payload)
		}
		st.Put(item.WithChunk(c), payload[off:end])
		off = end
	}

	hub := NewChanHub()
	n, err := NewNode(hub.Attach(),
		WithNodeID(1), WithSeed(1), WithOrigin(st), WithP2PShare(1), WithTracing(4096))
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	res, err := n.RetrieveTiered(ctx, item)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Complete || len(res.Missing) != 0 {
		t.Fatalf("incomplete: %+v", res)
	}
	for c := 0; c < 3; c++ {
		if res.TierOf[c] != TierOrigin {
			t.Fatalf("chunk %d tier = %s, want origin", c, res.TierOf[c])
		}
	}
	if res.Counters.OriginChunks != 3 || res.Counters.P2PChunks != 0 {
		t.Fatalf("counters: %+v", res.Counters)
	}
	got, ok := res.Assemble()
	if !ok || len(got) != len(payload) {
		t.Fatalf("assemble: ok=%v len=%d", ok, len(got))
	}
	for i := range got {
		if got[i] != payload[i] {
			t.Fatalf("payload corrupted at byte %d", i)
		}
	}
	if st.Gets() == 0 {
		t.Fatal("origin never queried")
	}

	// The fetched chunks were injected into the node: a second tiered
	// retrieval must be served locally without touching the origin.
	gets := st.Gets()
	res2, err := n.RetrieveTiered(ctx, item)
	if err != nil {
		t.Fatal(err)
	}
	if !res2.Complete || res2.Counters.LocalChunks != 3 {
		t.Fatalf("second run not local: %+v", res2.Counters)
	}
	if st.Gets() != gets {
		t.Fatal("second run hit the origin")
	}

	// The trace must attribute every chunk of both runs to its tier.
	a := trace.Analyze(n.Tracer().Events())
	if a.Tiers["origin"].Chunks != 3 || a.Tiers["local"].Chunks != 3 {
		t.Fatalf("trace tiers: %+v", a.Tiers)
	}
	if len(a.ChunkServes) != 6 {
		t.Fatalf("chunk serves: %d", len(a.ChunkServes))
	}
}

// TestTrackerFailoverSoak: the primary tracker dies mid-run; the
// consumer must fail over to the secondary, learn the producer's face
// address from it, dial, and retrieve every chunk over the edge tier —
// all inside the retrieval deadline.
func TestTrackerFailoverSoak(t *testing.T) {
	primary, err := tracker.NewServer("127.0.0.1:0", tracker.ServerOptions{})
	if err != nil {
		t.Skipf("cannot bind UDP: %v", err)
	}
	defer primary.Close()
	secondary, err := tracker.NewServer("127.0.0.1:0", tracker.ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer secondary.Close()
	trackers := []string{primary.Addr().String(), secondary.Addr().String()}

	prodCfg := DefaultFaceConfig("127.0.0.1:0")
	prodMesh, err := NewFaceTransport(prodCfg)
	if err != nil {
		t.Fatal(err)
	}
	producer, err := NewNode(prodMesh,
		WithNodeID(1), WithSeed(1),
		WithTrackers(trackers...), WithTrackerTimeout(300*time.Millisecond),
		WithAnnounce(10*time.Second, 100*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer producer.Close()

	payload := make([]byte, 10000)
	for i := range payload {
		payload[i] = byte(i % 249)
	}
	item := producer.PublishItem(NewDescriptor().Set(AttrName, String("soak")), payload, 2048)

	consMesh, err := NewFaceTransport(DefaultFaceConfig("")) // dial-only
	if err != nil {
		t.Fatal(err)
	}
	consumer, err := NewNode(consMesh,
		WithNodeID(2), WithSeed(2),
		WithTrackers(trackers...), WithTrackerTimeout(300*time.Millisecond),
		WithP2PShare(5), WithTracing(8192))
	if err != nil {
		t.Fatal(err)
	}
	defer consumer.Close()

	// Kill the primary mid-run, then wait for the producer's heartbeat
	// to re-register with the secondary.
	primary.Close()
	deadline := time.Now().Add(5 * time.Second)
	for secondary.PeerCount() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("producer heartbeat never failed over to the secondary tracker")
		}
		time.Sleep(20 * time.Millisecond)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	start := time.Now()
	res, err := consumer.RetrieveTiered(ctx, item)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Complete {
		t.Fatalf("retrieval incomplete after failover: missing %v (%+v)", res.Missing, res.Counters)
	}
	if res.Counters.EdgeChunks == 0 {
		t.Fatalf("no chunks attributed to the edge tier: %+v", res.Counters)
	}
	if res.Counters.TrackerFailovers == 0 {
		t.Fatalf("consumer never failed over: %+v", res.Counters)
	}
	if res.EdgePeersDialed == 0 {
		t.Fatal("no edge peers dialed")
	}
	if res.StaleTracker {
		t.Fatal("edge pass ran stale although the secondary was alive")
	}
	if took := time.Since(start); took > 20*time.Second {
		t.Fatalf("failover retrieval took %s", took)
	}
	got, ok := res.Assemble()
	if !ok {
		t.Fatal("assemble failed")
	}
	for i := range got {
		if got[i] != payload[i] {
			t.Fatalf("payload corrupted at byte %d", i)
		}
	}
	if st, ok := consumer.TrackerStats(); !ok || st.Failovers == 0 {
		t.Fatalf("tracker client stats: %+v ok=%v", st, ok)
	}
}

// TestTieredChaosAcceptance is the chaos acceptance scenario: every
// tracker is dead, the producer crashes mid-retrieval and the
// consumer's faces suffer injected connection resets — retrieval must
// still complete within the deadline via the backoff-supervised faces
// and origin fallback, with every chunk tier-attributed in the trace
// and no goroutines leaked.
func TestTieredChaosAcceptance(t *testing.T) {
	baseline := runtime.NumGoroutine()

	// Dead trackers: bind, record, close.
	deadTrackers := make([]string, 2)
	for i := range deadTrackers {
		s, err := tracker.NewServer("127.0.0.1:0", tracker.ServerOptions{})
		if err != nil {
			t.Skipf("cannot bind UDP: %v", err)
		}
		deadTrackers[i] = s.Addr().String()
		s.Close()
	}

	payload := make([]byte, 12288)
	for i := range payload {
		payload[i] = byte(i % 241)
	}

	prodMesh, err := NewFaceTransport(DefaultFaceConfig("127.0.0.1:0"))
	if err != nil {
		t.Fatal(err)
	}
	producer, err := NewNode(prodMesh, WithNodeID(1), WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	item := producer.PublishItem(NewDescriptor().Set(AttrName, String("chaos")), payload, 2048)
	total := item.TotalChunks()

	// The origin holds the full item, so the ladder can always finish.
	st := origin.NewStatic()
	for c, off := 0, 0; c < total; c++ {
		end := min(off+2048, len(payload))
		st.Put(item.WithChunk(c), payload[off:end])
		off = end
	}

	// The consumer's faces run under an injected fault plan: connection
	// resets at 40% for the first half second.
	plan, err := fault.ParsePlan("conn-reset@0s+500ms:0.4")
	if err != nil {
		t.Fatal(err)
	}
	consCfg := DefaultFaceConfig("")
	consCfg.Chaos = fault.NewFaceInjector(plan)
	consCfg.RetryBase = 20 * time.Millisecond
	consCfg.RetryMax = 200 * time.Millisecond
	consMesh, err := NewFaceTransport(consCfg, prodMesh.ListenAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	consumer, err := NewNode(consMesh,
		WithNodeID(2), WithSeed(2),
		WithTrackers(deadTrackers...), WithTrackerTimeout(200*time.Millisecond),
		WithOrigin(st), WithP2PShare(10), WithTracing(16384))
	if err != nil {
		t.Fatal(err)
	}
	consMesh.WaitReady(1, 5*time.Second)

	// Crash the producer mid-retrieval.
	crash := time.AfterFunc(300*time.Millisecond, func() { producer.Close() })
	defer crash.Stop()

	ctx, cancel := context.WithTimeout(context.Background(), 25*time.Second)
	res, err := consumer.RetrieveTiered(ctx, item)
	cancel()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Complete || len(res.Missing) != 0 {
		t.Fatalf("chaos retrieval incomplete: missing %v (%+v)", res.Missing, res.Counters)
	}
	got, ok := res.Assemble()
	if !ok {
		t.Fatal("assemble failed")
	}
	for i := range got {
		if got[i] != payload[i] {
			t.Fatalf("payload corrupted at byte %d", i)
		}
	}
	// Every chunk must carry a tier, and the sum must cover the item.
	sum := res.Counters.LocalChunks + res.Counters.P2PChunks +
		res.Counters.EdgeChunks + res.Counters.OriginChunks
	if sum != uint64(total) {
		t.Fatalf("tier attribution does not cover the item: %+v (total %d)", res.Counters, total)
	}
	if res.Counters.OriginChunks == 0 {
		t.Fatalf("origin tier never used despite producer crash: %+v", res.Counters)
	}

	// The trace attributes each chunk to its serving tier.
	a := trace.Analyze(consumer.Tracer().Events())
	served := make(map[int]bool)
	for _, cs := range a.ChunkServes {
		if cs.Tier != "missing" {
			served[cs.Chunk] = true
		}
	}
	if len(served) != total {
		t.Fatalf("trace covers %d/%d chunks: %+v", len(served), total, a.Tiers)
	}

	// Teardown must return the process to its goroutine baseline: no
	// leaked supervisors, pumps or heartbeats.
	crash.Stop()
	producer.Close()
	if err := consumer.Close(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked: %d > baseline %d\n%s",
				runtime.NumGoroutine(), baseline, buf[:n])
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestTieredAssemble pins Assemble's contract: chunks concatenated in id
// order into one buffer of exactly the item's size (no doubling growth:
// the item is the largest thing a retrieval allocates), and nothing at
// all when a chunk is missing.
func TestTieredAssemble(t *testing.T) {
	item := NewDescriptor().Set("name", String("clip")).Set(AttrTotalChunks, Int(3))
	res := &TieredResult{Item: item, Chunks: map[int][]byte{
		2: []byte("ccccc"), 0: []byte("a"), 1: make([]byte, 70000),
	}}
	got, ok := res.Assemble()
	if !ok || len(got) != 70006 || got[0] != 'a' || string(got[70001:]) != "ccccc" {
		t.Fatalf("Assemble: ok=%v len=%d", ok, len(got))
	}
	if cap(got) != len(got) {
		t.Fatalf("assembled into a buffer of cap %d for %d bytes", cap(got), len(got))
	}
	if allocs := testing.AllocsPerRun(100, func() { res.Assemble() }); allocs != 1 {
		t.Fatalf("Assemble costs %v allocations, want 1", allocs)
	}

	for _, missing := range []int{0, 1, 2} {
		part := &TieredResult{Item: item, Chunks: map[int][]byte{}}
		for c, p := range res.Chunks {
			if c != missing {
				part.Chunks[c] = p
			}
		}
		if got, ok := part.Assemble(); ok || got != nil {
			t.Fatalf("chunk %d missing: Assemble returned ok=%v, %d bytes", missing, ok, len(got))
		}
	}
	// An id beyond totalchunks is not part of the item.
	res.Chunks[3] = []byte("stray")
	if got, ok := res.Assemble(); !ok || len(got) != 70006 || cap(got) != 70006 {
		t.Fatalf("with a stray chunk: ok=%v len=%d cap=%d", ok, len(got), cap(got))
	}
	if got, ok := (&TieredResult{Item: NewDescriptor()}).Assemble(); !ok || len(got) != 0 {
		t.Fatalf("no chunks expected: ok=%v len=%d", ok, len(got))
	}
}
