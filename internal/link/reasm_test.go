package link

import (
	"bytes"
	"testing"
	"time"

	"pds/internal/attr"
	"pds/internal/wire"
)

// virtualFragments are the count fragments the link cuts of one message
// for the simulator: each carries the message itself, none any bytes.
func virtualFragments(count int) []wire.Fragment {
	whole := smallResponse(42, 1)
	frags := make([]wire.Fragment, count)
	for i := range frags {
		frags[i] = wire.Fragment{Index: i, Count: count, Size: 1, Whole: whole}
	}
	return frags
}

// TestReassemblyAllocations: at steady state (the table grown) a message
// of up to 64 virtual fragments reassembles without an allocation of its
// own, a longer one with its record and its bitset.
func TestReassemblyAllocations(t *testing.T) {
	for _, tc := range []struct {
		fragments int
		allocs    float64
	}{{3, 0}, {64, 0}, {65, 2}, {190, 2}} {
		lk := New(&manualClock{}, 1, func(*wire.Message) bool { return true }, testConfig())
		frags := virtualFragments(tc.fragments)
		var orig uint64
		one := func() {
			orig++
			for i := range frags {
				frags[i].OrigID = orig
				if up := lk.reassemble(&frags[i], 0); (up != nil) != (i == len(frags)-1) {
					panic("handed up at the wrong fragment")
				}
			}
		}
		for i := 0; i < 1000; i++ { // under the sweep's floor, past every run below
			one()
		}
		for id := uint64(1); id <= 1000; id++ {
			delete(lk.reasms, id)
		}
		if got := testing.AllocsPerRun(200, one); got > tc.allocs {
			t.Errorf("a %d-fragment reassembly costs %v allocations, want at most %v", tc.fragments, got, tc.allocs)
		}
		if st := lk.Stats(); st.Reassembled != 1201 || st.ReasmErrors != 0 {
			t.Fatalf("%d fragments: %d reassembled, %d errors", tc.fragments, st.Reassembled, st.ReasmErrors)
		}
	}
}

// reasmBurst hands a link n single-fragment messages under new OrigIDs,
// all at the clock's present instant.
type reasmBurst struct {
	clk  *manualClock
	lk   *Link
	frag wire.Fragment
}

func newReasmBurst() *reasmBurst {
	b := &reasmBurst{clk: &manualClock{}, frag: virtualFragments(1)[0]}
	b.lk = New(b.clk, 1, func(*wire.Message) bool { return true }, testConfig())
	return b
}

func (b *reasmBurst) run(n int) {
	for i := 0; i < n; i++ {
		b.frag.OrigID++
		if b.lk.reassemble(&b.frag, b.clk.now) == nil {
			panic("new message not handed up")
		}
	}
}

// TestReassemblySweep: the table forgets a reassembly a DedupRetention
// after its last fragment and not before — 4 096 messages inside one
// retention all stay tombstoned — and a burst of new OrigIDs does not pay
// a walk of the table each: one joining 64 k others may cost at most ten
// times one joining fewer than the 1 024 no sweep looks at (the sweep
// ran on every arrival past 1 024 and was a thousand times slower there).
func TestReassemblySweep(t *testing.T) {
	b := newReasmBurst()
	retention := b.lk.cfg.DedupRetention
	for i := 0; i < 4096; i++ {
		b.clk.now += retention / 8192
		b.run(1)
	}
	b.clk.now = retention - 1 // the first is not yet a retention old
	replay := b.frag
	for replay.OrigID = 1; replay.OrigID <= 4096; replay.OrigID++ {
		if up := b.lk.reassemble(&replay, b.clk.now); up != nil {
			t.Fatalf("message %d handed up a second time", replay.OrigID)
		}
	}
	if st := b.lk.Stats(); st.Reassembled != 4096 || len(b.lk.reasms) != 4096 {
		t.Fatalf("%d reassembled, %d in the table, want 4096 and 4096", st.Reassembled, len(b.lk.reasms))
	}
	b.clk.now += retention
	b.run(1)
	if len(b.lk.reasms) != 1 {
		t.Fatalf("%d reassemblies held a retention after the burst, want the new one alone", len(b.lk.reasms))
	}

	const arrivals = 200 // five rounds stay under 1 024
	perArrival := func(table int) time.Duration {
		b := newReasmBurst()
		b.run(table)
		best := time.Duration(1 << 62)
		for round := 0; round < 5; round++ {
			start := time.Now()
			b.run(arrivals)
			best = min(best, time.Since(start))
		}
		return best / arrivals
	}
	small, large := perArrival(0), perArrival(64<<10)
	t.Logf("a new reassembly: %v joining under 1k others, %v joining 64k", small, large)
	if large > 10*max(small, 20*time.Nanosecond) {
		t.Fatalf("a new reassembly costs %v in a table of 64k and %v in one under 1k: it pays for a walk of the table", large, small)
	}
}

// TestReassembledPayloadOutlivesLaterReassemblies: a message reassembled
// from bytes holds the buffer it was decoded from, and the reassemblies
// after it — of payload-free messages, and of chunks as large — never
// write over its payload.
func TestReassembledPayloadOutlivesLaterReassemblies(t *testing.T) {
	lk := New(&manualClock{}, 1, func(*wire.Message) bool { return true }, testConfig())
	chunk := func(id uint64) *wire.Message {
		return &wire.Message{
			Type: wire.TypeResponse, TransmitID: id, From: 2,
			Response: &wire.Response{
				ID: id, Kind: wire.KindChunk, Receivers: []wire.NodeID{1},
				Blobs: []wire.Blob{{Desc: attr.NewDescriptor().Set("c", attr.Int(0)), Payload: bytes.Repeat([]byte{byte(id)}, 5000)}},
			},
		}
	}
	var up []*wire.Message
	tid := uint64(100)
	for orig, msg := range []*wire.Message{smallResponse(1, 1), chunk(0xa1), chunk(0xb2), smallResponse(2, 1), chunk(0xc3), chunk(0xd4)} {
		for _, frag := range cutFragments(t, msg, uint64(orig+1), tid, 4) {
			if m := lk.HandleIncoming(frag); m != nil {
				up = append(up, m)
			}
		}
		tid += 4
	}
	if len(up) != 6 {
		t.Fatalf("%d messages reassembled, want 6", len(up))
	}
	for _, m := range up {
		if wire.PayloadBytes(m) == 0 {
			continue
		}
		if id := m.Response.ID; !bytes.Equal(m.Response.Blobs[0].Payload, bytes.Repeat([]byte{byte(id)}, 5000)) {
			t.Errorf("the payload of chunk %#x was written over by a reassembly after it", id)
		}
	}
}
