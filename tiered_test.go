package pds

import (
	"context"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"pds/internal/link"
	"pds/internal/origin"
	"pds/internal/trace"
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

// TestTieredOriginFallback: a node with no peers must complete a
// retrieval entirely from the origin backend, attribute every chunk to
// the origin tier, and serve the same item locally on the next call.
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

// TestTieredWithoutOriginGivesP2PTheWholeBudget: with no origin to
// escalate to, the P2P tier runs for the whole ctx deadline. The one
// peer holding the item joins after half of it, so a pass cut at the
// default 50 % share would end before any chunk could arrive.
func TestTieredWithoutOriginGivesP2PTheWholeBudget(t *testing.T) {
	const budget = 4 * time.Second
	const join = budget/2 + 200*time.Millisecond

	prodMesh, err := NewFaceTransport(DefaultFaceConfig("127.0.0.1:0"))
	if err != nil {
		t.Fatal(err)
	}
	producer, err := NewNode(prodMesh, WithNodeID(1), WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	defer producer.Close()
	payload := make([]byte, 6000)
	for i := range payload {
		payload[i] = byte(i % 251)
	}
	item := producer.PublishItem(NewDescriptor().Set(AttrName, String("late")), payload, 2048)

	consMesh, err := NewFaceTransport(DefaultFaceConfig("")) // dial-only
	if err != nil {
		t.Fatal(err)
	}
	consumer, err := NewNode(consMesh, WithNodeID(2), WithSeed(2))
	if err != nil {
		t.Fatal(err)
	}
	defer consumer.Close()
	joined := time.AfterFunc(join, func() { consMesh.AddPeer(prodMesh.ListenAddr().String()) })
	defer joined.Stop()

	ctx, cancel := context.WithTimeout(context.Background(), budget)
	defer cancel()
	res, err := consumer.RetrieveTiered(ctx, item)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Complete {
		t.Fatalf("incomplete after %s: missing %v (%+v)", res.Duration, res.Missing, res.Counters)
	}
	for c := 0; c < item.TotalChunks(); c++ {
		if res.TierOf[c] != TierP2P {
			t.Fatalf("chunk %d tier = %s, want p2p", c, res.TierOf[c])
		}
	}
	if res.Duration < join {
		t.Fatalf("completed in %s, before the peer joined at %s", res.Duration, join)
	}
	if got, ok := res.Assemble(); !ok || string(got) != string(payload) {
		t.Fatalf("assemble: ok=%v len=%d", ok, len(got))
	}
}

// TestTieredChaosAcceptance is the chaos acceptance scenario: the
// producer crashes mid-retrieval and the consumer's faces suffer
// injected connection resets — retrieval must
// still complete within the deadline via the backoff-supervised faces
// and origin fallback, with every chunk tier-attributed in the trace
// and no goroutines leaked.
func TestTieredChaosAcceptance(t *testing.T) {
	baseline := runtime.NumGoroutine()

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

	// The consumer's faces reset 40% of their message writes for the
	// first half second.
	consCfg := DefaultFaceConfig("")
	consCfg.Chaos = &earlyResets{
		rng:   rand.New(rand.NewSource(0x0fa5e)),
		until: time.Now().Add(500 * time.Millisecond),
	}
	consCfg.RetryBase = 20 * time.Millisecond
	consCfg.RetryMax = 200 * time.Millisecond
	consMesh, err := NewFaceTransport(consCfg, prodMesh.ListenAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	consumer, err := NewNode(consMesh,
		WithNodeID(2), WithSeed(2),
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
	sum := res.Counters.LocalChunks + res.Counters.P2PChunks + res.Counters.OriginChunks
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

// earlyResets is a face.Chaos that resets 40% of the message writes
// made before until, drawing from a seeded source. It never fails a
// dial.
type earlyResets struct {
	mu    sync.Mutex
	rng   *rand.Rand
	until time.Time
}

func (c *earlyResets) DialFault(string) bool { return false }

func (c *earlyResets) ConnFault(string) (reset, stall bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return time.Now().Before(c.until) && c.rng.Float64() < 0.4, false
}

// originFunc is an Origin that is a GetPayload and nothing else.
type originFunc func(key string) ([]byte, bool)

func (f originFunc) GetPayload(key string) ([]byte, bool) { return f(key) }

// TestTieredReadOnlyOrigin: an origin needs no method but GetPayload,
// the only one the ladder calls.
func TestTieredReadOnlyOrigin(t *testing.T) {
	item := NewDescriptor().Set(AttrName, String("ro")).Set(AttrTotalChunks, Int(2))
	chunks := map[string][]byte{
		item.WithChunk(0).Key(): []byte("first"),
		item.WithChunk(1).Key(): []byte("second"),
	}
	src := originFunc(func(key string) ([]byte, bool) {
		p, ok := chunks[key]
		return p, ok
	})
	n, err := NewNode(NewChanHub().Attach(), WithNodeID(1), WithSeed(1), WithOrigin(src), WithP2PShare(1))
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
	got, ok := res.Assemble()
	if !ok || string(got) != "firstsecond" || res.Counters.OriginChunks != 2 {
		t.Fatalf("Assemble = %q, %v; counters %+v", got, ok, res.Counters)
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
