// Package fixture exercises the frozenmsg analyzer: true positives are
// annotated with want comments, everything else must stay silent.
package fixture

import (
	"pds/internal/attr"
	"pds/internal/bloom"
	"pds/internal/wire"
)

// Envelope writes through a shared pointer are post-publish mutations:
// the link stamped every frame in place until Stamp built a copy.
//
// history: 3a8a4ef internal/link/link.go:335
func (l *link) sendFrame(msg *wire.Message) {
	l.nextTransmit++
	msg.TransmitID = uint64(l.self)<<32 | l.nextTransmit // want "write to frozen wire.Message field TransmitID"
	msg.From = l.self                                    // want "write to frozen wire.Message field From"
	msg.NoAck = !l.ackEnabled                            // want "write to frozen wire.Message field NoAck"
}

type link struct {
	self         wire.NodeID
	nextTransmit uint64
	ackEnabled   bool
}

// One variable holds either a frozen section or a fresh slice, so a
// write through it may land in r.Entries; the alias rule flags it
// without asking which branch ran.
//
// history: 86e82c5 internal/core/discovery.go:360
func notifyDiscovery(r *wire.Response) []attr.Descriptor {
	var descs []attr.Descriptor
	switch r.Kind {
	case wire.KindMetadata:
		descs = r.Entries
	case wire.KindData:
		descs = make([]attr.Descriptor, len(r.Blobs))
		for i, b := range r.Blobs {
			descs[i] = b.Desc // want "element write into descs, which aliases a frozen wire message section"
		}
	}
	return descs
}

// Body-section writes through pointer chains corrupt the shared frame.
func mutateBody(m *wire.Message, rs []wire.NodeID) {
	m.Query.Receivers = rs // want "write to frozen wire.Query field Receivers"
	m.Query.HopsLeft--     // want "write to frozen wire.Query field HopsLeft"
}

// Element writes alias the shared backing array even via a value copy.
func mutateElements(m *wire.Message) {
	fwd := *m.Query
	fwd.ChunkIDs[0] = 1 // want "element write into fwd.ChunkIDs, which aliases a frozen wire message section"
	r := *m.Response
	r.Entries[0] = r.Entries[1] // want "element write into r.Entries, which aliases a frozen wire message section"
}

type lingering struct{ Query *wire.Query }

// In-place append can write the shared backing array: relaying a chunk
// consumed it from every lingering query's wanted set in place.
//
// history: 3a8a4ef internal/core/pdr.go:669
func relayChunks(matching []*lingering, cid int) {
	for _, lq := range matching {
		idx := indexOf(lq.Query.ChunkIDs, cid)
		if idx < 0 {
			continue
		}
		lq.Query.ChunkIDs = append(lq.Query.ChunkIDs[:idx], lq.Query.ChunkIDs[idx+1:]...) // want "write to frozen wire.Query field ChunkIDs" "append into frozen wire.Query.ChunkIDs"
	}
}

func indexOf(ids []int, id int) int {
	for i, x := range ids {
		if x == id {
			return i
		}
	}
	return -1
}

func mutateAppendValue(m *wire.Message) []int {
	fwd := *m.Query
	return append(fwd.ChunkIDs[:1], 9) // want "append into frozen wire.Query.ChunkIDs"
}

// --- Aliases and ranges ----------------------------------------------

// A slice pulled out of a frozen message still aliases its backing
// array; the dataflow engine tracks the assignment.
func mutateAlias(m *wire.Message) {
	ids := m.Query.ChunkIDs
	ids[0] = 9 // want "element write into ids, which aliases a frozen wire message section"
}

// A func literal shares the classification of the function around it:
// a write inside it through an alias made outside it still lands in
// the frozen section.
func mutateCaptured(m *wire.Message) func() {
	ids := m.Query.ChunkIDs
	return func() { ids[0] = 1 } // want "element write into ids, which aliases a frozen wire message section"
}

// Range over a frozen section: the value variable is a copy, but its
// reference fields still point into the shared payload.
func mutateRange(m *wire.Message) {
	for _, b := range m.Response.Blobs {
		b.Payload[0] = 0 // want "element write into b.Payload, which aliases a frozen wire message section"
	}
}

// Range over a pointer-element buffer of published messages mutates
// every one of them in place.
func mutateRangePtr(msgs []*wire.Message) {
	for _, e := range msgs {
		e.NoAck = true // want "write to frozen wire.Message field NoAck"
	}
}

// The audited escape hatch: a suppressed finding stays visible to
// RunFixture (raw diagnostics) but Run() marks it suppressed.
func stampModel(m *wire.Message) {
	//lint:allow frozenmsg modeled link-layer stamp exercised by the self-check
	m.From = 1 // want "write to frozen wire.Message field From"
}

// --- Non-findings ----------------------------------------------------

// Building a fresh message is the phase-1 lifecycle; writes through a
// locally constructed pointer are fine.
func build(rs []wire.NodeID) *wire.Message {
	q := &wire.Query{ID: 1}
	q.Receivers = rs
	q.ChunkIDs = []int{1, 2}
	q.ChunkIDs[0] = 3
	m := &wire.Message{Type: wire.TypeQuery, Query: q}
	m.From = 4
	return m
}

// CoW on a value copy reassigns fields without touching shared arrays.
func forward(m *wire.Message, f *bloom.Filter) *wire.Message {
	fwd := *m.Query
	fwd.Sender = 9
	fwd.Receivers = nil
	fwd.Bloom = f
	return &wire.Message{Type: wire.TypeQuery, Query: &fwd}
}

// Copy-first is the sanctioned way to derive a private slice, and
// frozen slices are fine as variadic append sources.
func copyOut(m *wire.Message) []int {
	ids := append([]int(nil), m.Query.ChunkIDs...)
	ids[0] = 5
	return ids
}

// Reading and the CoW helpers themselves are of course fine.
func read(m *wire.Message, rs []wire.NodeID) (*wire.Message, int) {
	return m.WithReceivers(rs), len(m.Query.ChunkIDs)
}

// Reading through range variables never fires the alias rules.
func sumBlobs(m *wire.Message) int {
	n := 0
	for _, b := range m.Response.Blobs {
		n += len(b.Payload)
	}
	return n
}
