package core

import (
	"bytes"
	"runtime"
	"testing"
	"time"

	"pds/internal/bloom"
	"pds/internal/sim"
	"pds/internal/wire"
)

// heardQuery is a flooded metadata query as a neighbour's frame delivers
// it: one *wire.Query, shared by every node that heard the frame, with a
// filter of nbits bits the consumer half filled.
func heardQuery(id uint64, nbits uint64) *wire.Query {
	q := &wire.Query{ID: id, Kind: wire.KindMetadata, TTL: time.Minute, Sender: 10, Origin: 10, Sel: testSel(),
		Bloom: bloom.New(nbits, 7, id)}
	for i := 100; i < 100+int(nbits/32); i++ {
		q.Bloom.Add(testEntry(i).Key())
	}
	return q
}

// TestHearersShareTheFilterUntilTheyServe: one frame, two hearers. The
// one with nothing to send keeps the received filter itself; the one
// that serves rewrites a private, larger copy; the filter on the air is
// byte for byte what it was.
func TestHearersShareTheFilterUntilTheyServe(t *testing.T) {
	cfg := DefaultConfig()
	holder, bystander := newPassNode(cfg), newPassNode(cfg)
	for i := 0; i < 20; i++ {
		holder.n.PublishEntry(testEntry(i))
	}
	q := heardQuery(7, 1024)
	received := q.Bloom.AppendBinary(nil)
	for _, p := range []*passNode{holder, bystander} {
		p.n.HandleMessage(&wire.Message{Type: wire.TypeQuery, Query: q})
		p.n.clk.(*sim.Engine).Run(time.Second)
	}
	served, _ := holder.n.lqt.Get(7, time.Second)
	heard, _ := bystander.n.lqt.Get(7, time.Second)
	if heard == nil || !heard.Served || heard.Bloom != q.Bloom {
		t.Fatalf("the hearer with nothing to send holds %+v, want the received filter itself", heard)
	}
	if served == nil || served.Bloom == q.Bloom || served.Bloom.Count() != q.Bloom.Count()+20 {
		t.Fatalf("the hearer that served 20 entries holds %+v, want a private filter 20 entries larger", served)
	}
	entries := func(p *passNode) (n int) {
		for _, m := range p.sent {
			if m.Response != nil {
				n += len(m.Response.Entries)
			}
		}
		return n
	}
	if entries(holder) != 20 || entries(bystander) != 0 || len(bystander.sent) != 1 {
		t.Fatalf("%d entries left the holder, %d the bystander in %d messages", entries(holder), entries(bystander), len(bystander.sent))
	}
	if !bytes.Equal(q.Bloom.AppendBinary(nil), received) {
		t.Fatal("serving changed the filter every hearer shares")
	}
}

// TestHearingAQueryIsCheap: a node with nothing to send hears a query
// carrying a full-size (16 KiB) filter — insert, flood on, an empty
// serve pass — for under 1 KiB, none of it a copy of the filter; each
// further copy of the query costs nothing.
func TestHearingAQueryIsCheap(t *testing.T) {
	p := newPassNode(DefaultConfig())
	eng := p.n.clk.(*sim.Engine)
	hear := func(q *wire.Query) {
		p.n.HandleMessage(&wire.Message{Type: wire.TypeQuery, Query: q})
		eng.Run(eng.Now() + time.Second)
	}
	for id := uint64(1); id <= 8; id++ { // grow the tables, the pool and the sent log
		hear(heardQuery(id, bloom.MaxBits))
	}
	// TotalAlloc is the process's: another goroutine's allocation can land
	// between the reads, never leave one. The least of several first
	// hearings still bounds what one costs from above.
	var msg *wire.Message
	least := ^uint64(0)
	for id := uint64(99); id < 104; id++ {
		p.sent = p.sent[:0]
		q := heardQuery(id, bloom.MaxBits)
		msg = &wire.Message{Type: wire.TypeQuery, Query: q}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		p.n.HandleMessage(msg)
		eng.Run(eng.Now() + time.Second)
		runtime.ReadMemStats(&after)
		if len(p.sent) != 1 || p.sent[0].Query.Bloom != q.Bloom {
			t.Fatalf("%d messages left, want the query flooded on with the received filter", len(p.sent))
		}
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	if least >= 1024 {
		t.Errorf("hearing a query with a %d-byte filter allocated %d bytes, want < 1024", msg.Query.Bloom.Bits()/8, least)
	}
	if got := testing.AllocsPerRun(100, func() { p.n.HandleMessage(msg) }); got != 0 {
		t.Errorf("a duplicate copy of the query costs %v allocations, want 0", got)
	}
	if st := p.n.Stats(); st.QueriesDuplicate != 101 {
		t.Fatalf("%d duplicates counted, want 101", st.QueriesDuplicate)
	}
}

// TestCrashVoidsJitteredSend: a node that crashes between sendJittered
// and the instant drawn sends nothing, and once the instant has passed
// the record is back in the pool and nothing of the node reaches the
// message.
func TestCrashVoidsJitteredSend(t *testing.T) {
	p := newPassNode(DefaultConfig())
	eng := p.n.clk.(*sim.Engine)
	gone := make(chan struct{})
	func() {
		msg := &wire.Message{Type: wire.TypeQuery, Query: heardQuery(7, 1024)}
		runtime.SetFinalizer(msg, func(*wire.Message) { close(gone) })
		p.n.sendJittered(msg, 20*time.Millisecond)
	}()
	if p.n.idle != nil || eng.Pending() != 1 {
		t.Fatalf("idle pool %v, %d events pending: the send is not waiting", p.n.idle, eng.Pending())
	}
	p.n.Crash()
	p.n.Restart()
	eng.Run(time.Second)
	if len(p.sent) != 0 {
		t.Fatalf("%d messages armed before the crash left after it", len(p.sent))
	}
	if d := p.n.idle; d == nil || d.next != nil || d.msg != nil {
		t.Fatalf("idle pool %+v, want the one record, empty", d)
	}
	for i := 0; i < 100; i++ {
		runtime.GC()
		select {
		case <-gone:
			runtime.KeepAlive(p)
			return
		case <-time.After(5 * time.Millisecond):
		}
	}
	t.Fatal("the voided message is still reachable from the idle node")
}

// hearNine delivers a flooded query with id to a node with nothing to
// send: the copy that is new — insert, flood on, an empty serve pass —
// then the eight the other neighbours deliver.
func hearNine(p *passNode, msg *wire.Message, id uint64) {
	q := *msg.Query // what a decoder would hand up: a query of its own, the filter shared
	q.ID, q.TTL = id, 15*time.Second
	msg.Query = &q
	for copies := 0; copies < 9; copies++ {
		p.n.HandleMessage(msg)
	}
	eng := p.n.clk.(*sim.Engine)
	eng.Run(eng.Now() + 16*time.Second) // past the query's stay, so the table does not grow
	p.sent = p.sent[:0]
}

// TestHeardQueryAllocations: hearNine costs at most four objects, among
// them the query as received, its LQT record and the forwarded message,
// which is one: envelope and body together.
func TestHeardQueryAllocations(t *testing.T) {
	p := newPassNode(DefaultConfig())
	msg := &wire.Message{Type: wire.TypeQuery, Query: heardQuery(1, bloom.MaxBits)}
	id := uint64(1)
	got := testing.AllocsPerRun(100, func() {
		id++
		hearNine(p, msg, id)
	})
	if got > 4 {
		t.Errorf("hearing a query costs %v objects, want <= 4", got)
	}
}

// BenchmarkHearQuery is hearNine in a loop.
func BenchmarkHearQuery(b *testing.B) {
	p := newPassNode(DefaultConfig())
	msg := &wire.Message{Type: wire.TypeQuery, Query: heardQuery(1, bloom.MaxBits)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hearNine(p, msg, uint64(i+2))
	}
	if st := p.n.Stats(); st.QueriesDuplicate != 8*uint64(b.N) || st.QueriesForwarded != uint64(b.N) {
		b.Fatalf("%d duplicates, %d forwarded over %d queries", st.QueriesDuplicate, st.QueriesForwarded, b.N)
	}
}
