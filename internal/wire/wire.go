// Package wire defines the PDS message formats and their binary
// encoding.
//
// Three message types exist (§III, §V-1): queries, responses and per-hop
// acks. Queries and responses carry an explicit intended-receiver list;
// every in-range node overhears a broadcast frame and caches useful
// content, but only listed receivers process it further (§V).
//
// The package provides both a real codec (AppendChecked for UDP,
// AppendSplit's segments for the face mesh, DecodeChecked for both) and an
// analytic EncodedSize (used by the simulator to charge airtime and the
// message-overhead metric without serializing chunk payloads). A property
// test asserts the two always agree.
package wire

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"pds/internal/attr"
	"pds/internal/bloom"
)

// NodeID identifies a PDS node. IDs are assigned by the deployment
// (simulation scenario or UDP transport) and only need to be unique
// within the network, as the paper assumes for its receiver lists.
type NodeID uint32

// MessageType discriminates the three wire messages.
type MessageType uint8

// Wire message types.
const (
	TypeQuery MessageType = iota + 1
	TypeResponse
	TypeAck
	TypeFragment
)

// String returns the lowercase name of the message type.
func (t MessageType) String() string {
	switch t {
	case TypeQuery:
		return "query"
	case TypeResponse:
		return "response"
	case TypeAck:
		return "ack"
	case TypeFragment:
		return "fragment"
	default:
		return fmt.Sprintf("type(%d)", uint8(t))
	}
}

// QueryKind discriminates what a query asks for and what the matching
// response carries.
type QueryKind uint8

// Query kinds: metadata discovery (PDD), small data items, chunk
// distribution information (PDR phase 1), data chunks (PDR phase 2)
// and content advertisements (strategy plane: Bloom filters of a
// producer's item keys, flooded by advertisement-based routing
// strategies; see internal/strategy).
const (
	KindMetadata QueryKind = iota + 1
	KindData
	KindCDI
	KindChunk
	KindAdvert
)

// String returns the lowercase name of the query kind.
func (k QueryKind) String() string {
	switch k {
	case KindMetadata:
		return "metadata"
	case KindData:
		return "data"
	case KindCDI:
		return "cdi"
	case KindChunk:
		return "chunk"
	case KindAdvert:
		return "advert"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Query is the wire form of a PDD/PDR query (§III-A, §IV-A, §IV-B).
type Query struct {
	// ID is globally unique and detects redundant copies (LQT lookup).
	ID uint64
	// Kind selects the data plane: metadata, small data, CDI or chunks.
	Kind QueryKind
	// TTL is the remaining lifetime; each hop computes a local expiry
	// as now+TTL. Expired lingering queries are removed from the LQT.
	TTL time.Duration
	// Sender is the node transmitting the query at the current hop;
	// responses return to it.
	Sender NodeID
	// Receivers lists intended next-hop receivers. Empty means all
	// neighbors should relay.
	Receivers []NodeID
	// Origin is the consumer that generated the query. It never changes
	// as the query is relayed; metrics and round bookkeeping key on it.
	Origin NodeID
	// Round is the discovery round number at the origin; the Bloom salt
	// is derived from it so false positives re-randomize per round.
	Round uint32
	// HopsLeft limits flood propagation when positive: each forwarding
	// hop decrements it and a query arriving with 1 is not forwarded
	// further. Zero means unlimited (§III-A: PDS targets limited-size
	// networks and does not scope queries by default, "however, such
	// limiting can be achieved easily with a hop counter if needed").
	HopsLeft uint8
	// Sel filters which descriptors are requested (empty = all of Kind).
	Sel attr.Query
	// Item is the descriptor of the requested data item for KindCDI and
	// KindChunk queries ("descriptor" field in §IV-A).
	Item attr.Descriptor
	// ChunkIDs is the subset of chunks requested by a KindChunk query.
	ChunkIDs []int
	// Bloom holds the redundancy-detection filter of entries already
	// received by the consumer; nil when redundancy detection is off.
	Bloom *bloom.Filter
}

// CDIPair reports that a chunk is retrievable at a hop count from the
// transmitting node (§IV-A: "a list of ChunkId-HopCount pairs").
type CDIPair struct {
	ChunkID  int
	HopCount int
}

// Blob is a payload-bearing unit in a response: a whole small data item
// (KindData) or one chunk of a large item (KindChunk).
type Blob struct {
	Desc    attr.Descriptor
	Payload []byte
}

// Serve names one forwarding role of a response: the receiver should
// relay the response's content onward for the given query. Binding each
// receiver to the query it serves keeps a response on that query's
// reverse tree; without the binding, every relay would re-fork the
// response toward every lingering query and one response would flood
// the whole mesh once per consumer.
type Serve struct {
	// Node is the intended next-hop receiver.
	Node NodeID
	// QueryID is the lingering query whose reverse path the receiver
	// continues.
	QueryID uint64
}

// Response is the wire form of a PDD/PDR response (§III-A, §IV-A).
type Response struct {
	// ID is random and globally unique; nodes keep a recent-response
	// cache to drop duplicates (RR lookup).
	ID uint64
	// Kind mirrors the query kind the response answers.
	Kind QueryKind
	// Sender is the node transmitting the response at the current hop.
	Sender NodeID
	// Receivers lists the next-hop nodes on return paths, derived from
	// the senders of matching lingering queries.
	Receivers []NodeID
	// Serves binds each receiver to the queries it relays for (one
	// entry per receiver-query pair; mixedcast responses carry several).
	// Chunk responses route by per-hop wanted sets instead and leave it
	// empty.
	Serves []Serve
	// Item echoes the requested item descriptor for KindCDI/KindChunk.
	Item attr.Descriptor
	// Entries carries metadata entries (KindMetadata payload).
	Entries []attr.Descriptor
	// CDI carries ChunkID-HopCount pairs (KindCDI payload).
	CDI []CDIPair
	// Blobs carries data payloads (KindData and KindChunk payload).
	Blobs []Blob
}

// Fragment is one link-layer fragment of a message larger than the
// 1.5 KB packet size the prototype transmits (§V-4). Each fragment is
// individually acknowledged and retransmitted, which is what lets a
// 256 KB chunk survive a lossy channel (a monolithic datagram would be
// lost whenever any one of its ~171 frames collided).
//
// A fragment the link cuts is virtual: Whole carries the original
// message by reference and Size declares the fragment's wire size, so
// the simulator never serializes a chunk hop by hop. Encoding a virtual
// fragment materializes it — AppendEncode writes the fragment's own
// range of the encoded Whole — so a carrier that needs bytes encodes a
// fragment like any other message. A decoded fragment carries that
// range in Data; the receiver reassembles and decodes. Exactly one of
// Whole and Data is set.
type Fragment struct {
	// OrigID identifies the fragmented message; all fragments of one
	// message share it.
	OrigID uint64
	// Index and Count locate this fragment (0 ≤ Index < Count).
	Index, Count int
	// Receivers lists the intended next-hop receivers, narrowed on
	// retransmission like any other frame.
	Receivers []NodeID
	// Size is the payload byte count this fragment represents. The
	// fragments of one message are equally sized but for the last.
	Size int
	// Whole is the original message (virtual fragment).
	Whole *Message
	// Enc, shared by every fragment cut from one Whole, holds Whole's
	// encoding once some fragment has been encoded. Nil is allowed: the
	// fragment then encodes Whole by itself.
	Enc *Encoding
	// Data is the raw byte range (decoded fragment).
	Data []byte
}

// Encoding is the encoded form of one fragmented message, made the first
// time one of its fragments is encoded and shared by the rest, from any
// goroutine. Whoever cuts the fragments owns it (the link's fragment
// job) and hands each fragment a pointer; the bytes live as long as that
// owner and its fragments do. The zero value is ready to use, and is one
// word: a job that no carrier ever encodes — every job in the simulator
// — pays nothing else for it.
type Encoding struct{ p atomic.Pointer[[]byte] }

// of returns the encoding of whole, keeping it on the first call (a nil
// Encoding keeps nothing). Two goroutines that both find it missing both
// encode, to the same bytes.
func (e *Encoding) of(whole *Message) ([]byte, error) {
	if e != nil {
		if b := e.p.Load(); b != nil {
			return *b, nil
		}
	}
	b, err := Encode(whole)
	if err == nil && e != nil {
		e.p.CompareAndSwap(nil, &b)
	}
	return b, err
}

// Ack acknowledges one received transmission (§V-1): it carries the ID
// of the acknowledged message and the receiver's own ID.
type Ack struct {
	// MsgID is the TransmitID of the acknowledged frame.
	MsgID uint64
	// From is the acknowledging node.
	From NodeID
}

// Message is the transmission envelope handed to a transport. Exactly one
// of Query, Response, Ack is non-nil, per Type.
//
// # Ownership and mutability
//
// Messages are immutable-by-convention once published. The lifecycle is:
//
//  1. The builder (package core) fills a Query or Response value, wraps
//     it with NewQuery/NewResponse and hands the message to the link
//     layer via Send. Ownership transfers with the call: the link
//     layer stamps the envelope (TransmitID, From, NoAck) before the
//     frame first leaves, and the builder must not touch the message
//     again.
//  2. From the first transmission on, the message — envelope and body —
//     is frozen. The medium delivers the *same* pointer to every
//     receiver (no per-receiver clone), so any in-place mutation would
//     corrupt the frame for every other node that overheard it.
//  3. A layer that needs a variant builds a new message. A
//     retransmission narrowed to the not-yet-acked receivers goes
//     through WithReceivers, which copies the body struct and shares
//     every section in it; anything else is a fresh NewQuery or
//     NewResponse. A forwarded query carries the received Bloom
//     filter, so no helper rewrites one.
//
// Section ownership after publication:
//
//   - Blob.Payload bytes, attr.Descriptor values (Sel, Item, Entries,
//     Blobs[i].Desc) and Fragment.Whole/Data are always immutable and
//     freely shared across messages, nodes and goroutines. A decoded
//     payload aliases the receive buffer, which then belongs to the
//     message for good (PayloadBytes says when).
//   - Receiver lists, ChunkIDs, Serves and CDI slices are frozen with
//     the message; a narrowed receiver list goes through WithReceivers.
//   - Fragment.Enc is a pointer frozen with the message like any other
//     field; what it points at is not part of any message. The cutter
//     installs the pointer when it builds the fragment, and the first
//     encode of any fragment of the cutting fills the Encoding behind
//     it, once, by an atomic swap — a memo of bytes that are a function
//     of the frozen Whole, not a write to a frozen message.
//   - Query.Bloom is frozen with the message. A node that rewrites the
//     filter en route (§III-B.2) works on its own copy — the LQT clones
//     the filter at its first Fresh verdict. The query it forwards
//     carries the received filter, shared; the private copy never
//     leaves the node.
type Message struct {
	// Type discriminates the body.
	Type MessageType
	// TransmitID identifies this logical transmission for per-hop
	// ack/retransmission. Retransmissions of the same content keep the
	// same TransmitID so receivers can deduplicate. The link mints it
	// with NewTransmitID, so an id names its transmitter (TransmitNode):
	// an Ack's MsgID says who is waiting for it.
	TransmitID uint64
	// From is the transmitting node.
	From NodeID
	// NoAck marks transmissions that must not be acknowledged (acks
	// themselves, and transmissions whose receiver list is empty/all).
	NoAck bool

	Query    *Query
	Response *Response
	Ack      *Ack
	Fragment *Fragment
}

// NewTransmitID is the one layout of a TransmitID (and of a fragment
// job's OrigID): the minting node in the high 32 bits, its send counter
// below.
func NewTransmitID(node NodeID, seq uint64) uint64 { return uint64(node)<<32 | seq }

// TransmitNode returns the node that minted id.
func TransmitNode(id uint64) NodeID { return NodeID(id >> 32) }

// Stamp is the link layer's final build step: it assigns the per-hop
// envelope — TransmitID, transmitting node and ack expectation — just
// before the frame first leaves (lifecycle step 1 above). It must not
// be called after publication; the body is untouched either way.
func (m *Message) Stamp(transmitID uint64, from NodeID, noAck bool) {
	m.TransmitID = transmitID
	m.From = from
	m.NoAck = noAck
}

// Receivers returns the intended receiver list of the body (nil for
// acks, which are addressed by their MsgID bookkeeping instead).
func (m *Message) Receivers() []NodeID {
	switch m.Type {
	case TypeQuery:
		if m.Query != nil {
			return m.Query.Receivers
		}
	case TypeResponse:
		if m.Response != nil {
			return m.Response.Receivers
		}
	case TypeFragment:
		if m.Fragment != nil {
			return m.Fragment.Receivers
		}
	}
	return nil
}

// IsIntendedFor reports whether id must act on the message: either the
// receiver list is empty (all neighbors) or it contains id.
func (m *Message) IsIntendedFor(id NodeID) bool {
	rs := m.Receivers()
	if len(rs) == 0 {
		return m.Type != TypeAck
	}
	for _, r := range rs {
		if r == id {
			return true
		}
	}
	return false
}

// NewQuery returns a query message carrying q, built as one allocation.
// Builders fill the Query value first and wrap it last: after this
// call the body belongs to the message (lifecycle step 1 above).
func NewQuery(q Query) *Message { return wrap(Message{Type: TypeQuery}, q) }

// NewResponse returns a response message carrying r, built as one
// allocation, like NewQuery.
func NewResponse(r Response) *Message { return wrap(Message{Type: TypeResponse}, r) }

// wrap allocates env and body together and points env's body field at
// the copy. The envelope is the first field, so the message pointer is
// the start of the allocation (runtime.SetFinalizer accepts it) and
// keeps the body alive with it.
func wrap[B Query | Response | Ack | Fragment](env Message, body B) *Message {
	x := &struct {
		m Message
		b B
	}{env, body}
	switch b := any(&x.b).(type) {
	case *Query:
		x.m.Query = b
	case *Response:
		x.m.Response = b
	case *Ack:
		x.m.Ack = b
	case *Fragment:
		x.m.Fragment = b
	}
	return &x.m
}

// WithReceivers returns a copy of the message whose body carries the
// given receiver list, sharing every other section — payloads,
// descriptor lists, Bloom filter, fragment data and memo. The caller
// transfers ownership of rs to the new message. This is how the link
// layer narrows a retransmission to the not-yet-acked subset without
// duplicating a 256 KB chunk payload or encoding it a second time.
func (m *Message) WithReceivers(rs []NodeID) *Message {
	switch {
	case m.Query != nil:
		q := *m.Query
		q.Receivers = rs
		return wrap(*m, q)
	case m.Response != nil:
		r := *m.Response
		r.Receivers = rs
		return wrap(*m, r)
	case m.Fragment != nil:
		f := *m.Fragment
		f.Receivers = rs
		return wrap(*m, f)
	}
	out := *m
	return &out
}

// Clone returns a copy whose protocol-rewritable sections — receiver
// lists, ChunkIDs, Serves and the Bloom filter — are private, for
// callers outside the CoW discipline (tests, external tools). Immutable
// sections are shared: payload bytes, descriptors, entry/CDI lists and
// fragment contents never change after publication, so cloning a 256 KB
// chunk message costs only header work. In-repo code never clones: it
// builds with NewQuery/NewResponse and narrows with WithReceivers.
func (m *Message) Clone() *Message {
	out := &Message{
		Type:       m.Type,
		TransmitID: m.TransmitID,
		From:       m.From,
		NoAck:      m.NoAck,
	}
	if m.Query != nil {
		q := *m.Query
		q.Receivers = append([]NodeID(nil), m.Query.Receivers...)
		q.ChunkIDs = append([]int(nil), m.Query.ChunkIDs...)
		if m.Query.Bloom != nil {
			q.Bloom = m.Query.Bloom.Clone()
		}
		out.Query = &q
	}
	if m.Response != nil {
		r := *m.Response
		r.Receivers = append([]NodeID(nil), m.Response.Receivers...)
		r.Serves = append([]Serve(nil), m.Response.Serves...)
		// Entries, CDI and Blobs are shared: descriptors are immutable
		// value types and payload bytes never mutate after publish.
		out.Response = &r
	}
	if m.Ack != nil {
		a := *m.Ack
		out.Ack = &a
	}
	if m.Fragment != nil {
		f := *m.Fragment
		f.Receivers = append([]NodeID(nil), m.Fragment.Receivers...)
		// Whole, Data and the memo are shared: immutable once published.
		out.Fragment = &f
	}
	return out
}

var errTruncated = errors.New("wire: truncated message")

// ErrBadMessage is returned by Decode for structurally invalid input.
var ErrBadMessage = errors.New("wire: bad message")
