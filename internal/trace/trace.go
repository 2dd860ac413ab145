// Package trace is the hop-level observability layer: a per-node event
// tracer recording the decision points of the radio, link, protocol and
// store layers with enough causal structure (message id, parent id,
// sim-clock timestamp) that a whole run can be reconstructed after the
// fact — which hop suppressed an entry via the Bloom rewrite, where a
// mixedcast merge happened, how a recursive chunk query divided its
// assignment vector.
//
// Tracing is strictly opt-in and free when off: every emit method is a
// no-op on a nil receiver, takes only scalars, pointers and pre-existing
// strings/slices (no interface boxing, no variadics), and formats
// nothing unless enabled, so the disabled fast path performs zero
// allocations (pinned by an alloc regression test, like
// wire/alloc_test.go pins the message builders).
//
// Events land in bounded per-node ring buffers (oldest overwritten) and
// are exported as JSONL sorted by a global sequence number. The tracer
// never draws from any RNG and never schedules clock events, so metric
// rows for identical seeds are identical with tracing on and off, and
// two traced runs with the same seed export byte-identical JSONL.
//
// Ownership: emit methods that receive a *wire.Message only read
// immutable-after-publish fields (the body id); they retain no reference
// to the message or any of its sections, so tracing composes with the
// copy-on-write pipeline without extending any message's lifetime.
package trace

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"pds/internal/wire"
)

// Kind discriminates trace events.
type Kind uint8

// Event kinds, grouped by layer.
const (
	// Radio plane.
	FrameTx        Kind = iota + 1 // frame transmission started (Size bytes, Val airtime ns)
	FrameRx                        // frame delivered (Peer = sender)
	FrameLost                      // frame lost to fading/noise/burst
	FrameCollision                 // frame destroyed by a collision at the receiver
	FrameCorrupt                   // frame corrupted; MAC CRC discarded it
	FrameDup                       // channel duplicated the delivery
	BufferDrop                     // frame tail-dropped at the OS send buffer

	// Link plane.
	LinkFragment    // message split into fragments (Parent = orig id, Val = count)
	LinkRetransmit  // retransmission issued (Val = attempt, Size = remaining receivers)
	LinkReassembled // message reassembled from fragments (Parent = orig id)
	LinkGiveUp      // retransmissions exhausted (Size = unacked receivers)

	// Protocol plane.
	QueryStart     // consumer originated a query round (Val = round)
	QueryForward   // node re-flooded a query (Peer = upstream sender, Val = hops left)
	LQMatch        // response matched a lingering query at a relay (Parent = query id)
	MixedcastMerge // one response serves several queries (Val = queries, Size = entries)
	BloomSuppress  // entry suppressed by a query's Bloom filter (Msg = query id, Note = entry key, Val = 1 when the received filter did not hold it)
	BloomFailOpen  // entry offered Fresh past an overloaded Bloom filter (Msg = query id, Note = entry key)
	CDIUpdate      // CDI table updated from a response (Peer = neighbor, Size = chunk, Val = hop)
	SubQuery       // recursive chunk sub-query sent (Peer = neighbor, Note = assignment vector)
	RespServe      // response generated for a query (Parent = query id, Size = entries)
	RespRelay      // response relayed (Parent = upstream response id, Size = entries)

	// Store plane.
	CacheInsert // entry/payload cached (Note = key, Size = payload bytes)
	CacheEvict  // cached payload evicted (Note = key, Size = payload bytes)
	LQTInsert   // lingering query inserted (Msg = query id)
	LQTExpire   // lingering query expired (Msg = query id)

	// Disk tier (internal/diskstore behind the data store).
	SpillWrite   // payload written to the disk tier (Note = key, Size = bytes, Val = 1 if owned)
	SpillLoad    // payload served from the disk tier (Note = key, Size = bytes)
	StoreCompact // segment log compacted (Val = segments before, Size = bytes reclaimed)
	StoreRecover // recovery scan finished (Val = records replayed, Size = records skipped)

	// Deployment plane (internal/face, internal/tracker, tiered
	// retrieval).
	FaceDial        // unicast face dial attempt (Peer = peer id if known, Val = attempt, Note = addr)
	FaceUp          // face established and hello exchanged (Peer = peer id, Note = addr)
	FaceDown        // face connection lost (Peer = peer id, Val = consecutive failures, Note = reason)
	FaceBreaker     // face circuit breaker opened (Peer = peer id, Val = consecutive failures, Note = addr)
	TransportDrop   // outbound frame dropped at a transport (Size = bytes, Note = error class)
	TrackerLookup   // tracker peer lookup served (Val = peers, Size = 1 when stale cache, Note = tracker addr)
	TrackerFailover // tracker client failed over to another tracker (Note = new tracker addr)
	ChunkTier       // retrieval chunk attributed to its serving tier (Size = chunk id, Val = bytes, Note = tier)

	// Workload plane (internal/workload streaming/bulk drivers).
	PrefetchIssued      // prefetch request issued for a segment/layer (Size = index, Val = pipeline depth, Note = item name)
	SegmentDeadlineMiss // segment missed its playback deadline (Size = index, Val = lateness ns; lateness 0 = never arrived)
	Stall               // playback stalled waiting for a segment (Size = index, Val = stall ns)
)

var kindNames = [...]string{
	FrameTx:        "frame_tx",
	FrameRx:        "frame_rx",
	FrameLost:      "frame_lost",
	FrameCollision: "frame_collision",
	FrameCorrupt:   "frame_corrupt",
	FrameDup:       "frame_dup",
	BufferDrop:     "buffer_drop",

	LinkFragment:    "link_fragment",
	LinkRetransmit:  "link_retransmit",
	LinkReassembled: "link_reassembled",
	LinkGiveUp:      "link_giveup",

	QueryStart:     "query_start",
	QueryForward:   "query_forward",
	LQMatch:        "lq_match",
	MixedcastMerge: "mixedcast_merge",
	BloomSuppress:  "bloom_suppress",
	BloomFailOpen:  "bloom_fail_open",
	CDIUpdate:      "cdi_update",
	SubQuery:       "sub_query",
	RespServe:      "resp_serve",
	RespRelay:      "resp_relay",

	CacheInsert: "cache_insert",
	CacheEvict:  "cache_evict",
	LQTInsert:   "lqt_insert",
	LQTExpire:   "lqt_expire",

	SpillWrite:   "spill_write",
	SpillLoad:    "spill_load",
	StoreCompact: "store_compact",
	StoreRecover: "store_recover",

	FaceDial:        "face_dial",
	FaceUp:          "face_up",
	FaceDown:        "face_down",
	FaceBreaker:     "face_breaker",
	TransportDrop:   "transport_drop",
	TrackerLookup:   "tracker_lookup",
	TrackerFailover: "tracker_failover",
	ChunkTier:       "chunk_tier",

	PrefetchIssued:      "prefetch_issued",
	SegmentDeadlineMiss: "segment_deadline_miss",
	Stall:               "stall",
}

// String returns the snake_case event name used in JSONL exports.
func (k Kind) String() string {
	if int(k) < len(kindNames) && kindNames[k] != "" {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// KindFromString inverts String; it returns 0 for unknown names.
func KindFromString(s string) Kind {
	for k, name := range kindNames {
		if name == s {
			return Kind(k)
		}
	}
	return 0
}

// Event is one trace record. Msg and Parent carry protocol message ids
// (query/response ids, stable across link retransmissions), which is
// what lets an analyzer rebuild per-query message trees; Peer, Size,
// Val and Note are kind-specific (see the Kind constants).
type Event struct {
	Seq    uint64
	T      time.Duration
	Node   wire.NodeID
	Kind   Kind
	Msg    uint64
	Parent uint64
	Peer   wire.NodeID
	Size   int
	Val    int64
	Note   string
}

// MsgID returns the protocol-level id of a message body: the query or
// response id, an ack's acked TransmitID, or — for fragments — the id of
// the fragmented message. Radio frames are tagged with it so airtime and
// per-hop latency attribute to the protocol message they carried.
func MsgID(m *wire.Message) uint64 {
	switch {
	case m == nil:
		return 0
	case m.Query != nil:
		return m.Query.ID
	case m.Response != nil:
		return m.Response.ID
	case m.Fragment != nil:
		if m.Fragment.Whole != nil {
			return MsgID(m.Fragment.Whole)
		}
		return m.Fragment.OrigID
	case m.Ack != nil:
		return m.Ack.MsgID
	}
	return 0
}

// DefaultPerNodeCap is the default ring capacity per node: enough to
// hold every event of a node's role in a full discovery run on the
// paper's 10×10 grid.
const DefaultPerNodeCap = 1 << 16

// ring is a bounded event buffer; when full the oldest event is
// overwritten. Storage grows on demand up to cap, so idle nodes cost
// nothing.
type ring struct {
	buf     []Event
	cap     int
	next    int // write index once len(buf) == cap
	wrapped bool
}

func (r *ring) push(ev Event) (overwrote bool) {
	if len(r.buf) < r.cap {
		r.buf = append(r.buf, ev)
		return false
	}
	r.buf[r.next] = ev
	r.next = (r.next + 1) % r.cap
	r.wrapped = true
	return true
}

// events returns the buffered events oldest-first.
func (r *ring) events() []Event {
	if !r.wrapped {
		return append([]Event(nil), r.buf...)
	}
	out := make([]Event, 0, len(r.buf))
	out = append(out, r.buf[r.next:]...)
	out = append(out, r.buf[:r.next]...)
	return out
}

// Tracer collects events for one deployment (or one real node). It is
// safe for concurrent use — the real-time transport delivers frames from
// timer and socket goroutines — though under the single-threaded
// simulator the mutex is never contended.
type Tracer struct {
	mu      sync.Mutex
	now     func() time.Duration
	perCap  int
	seq     uint64
	rings   map[wire.NodeID]*ring
	dropped uint64
}

// New creates a tracer reading timestamps from now (the sim engine's or
// a real clock's Now). perNodeCap bounds each node's ring;
// <= 0 selects DefaultPerNodeCap.
func New(now func() time.Duration, perNodeCap int) *Tracer {
	if perNodeCap <= 0 {
		perNodeCap = DefaultPerNodeCap
	}
	return &Tracer{now: now, perCap: perNodeCap, rings: make(map[wire.NodeID]*ring)}
}

// ForNode returns a node-bound emitter. A nil tracer yields a nil
// emitter, keeping the whole chain a no-op.
func (t *Tracer) ForNode(id wire.NodeID) *NodeTracer {
	if t == nil {
		return nil
	}
	return &NodeTracer{t: t, id: id}
}

// Dropped returns how many events were overwritten in full rings.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

func (t *Tracer) emit(node wire.NodeID, k Kind, msg, parent uint64, peer wire.NodeID, size int, val int64, note string) {
	t.mu.Lock()
	t.seq++
	r := t.rings[node]
	if r == nil {
		r = &ring{cap: t.perCap}
		t.rings[node] = r
	}
	if r.push(Event{
		Seq: t.seq, T: t.now(), Node: node, Kind: k,
		Msg: msg, Parent: parent, Peer: peer, Size: size, Val: val, Note: note,
	}) {
		t.dropped++
	}
	t.mu.Unlock()
}

// --- Radio plane (the medium knows the node per call) ---------------

// FrameTx records a transmission start with its size and airtime.
//
//pds:hotpath
func (t *Tracer) FrameTx(node wire.NodeID, m *wire.Message, size int, airtime time.Duration) {
	if t == nil {
		return
	}
	t.emit(node, FrameTx, MsgID(m), 0, 0, size, int64(airtime), "")
}

// Frame records a per-receiver frame fate (FrameRx, FrameLost,
// FrameCollision, FrameCorrupt, FrameDup) at node, from the sender.
//
//pds:hotpath
func (t *Tracer) Frame(k Kind, node, from wire.NodeID, m *wire.Message) {
	if t == nil {
		return
	}
	t.emit(node, k, MsgID(m), 0, from, 0, 0, "")
}

// BufferDrop records a tail-drop at node's OS send buffer.
func (t *Tracer) BufferDrop(node wire.NodeID, m *wire.Message, size int) {
	if t == nil {
		return
	}
	t.emit(node, BufferDrop, MsgID(m), 0, 0, size, 0, "")
}

// NodeTracer is a Tracer bound to one node id, handed to the link,
// protocol and store layers. All methods are no-ops on a nil receiver.
type NodeTracer struct {
	t  *Tracer
	id wire.NodeID
}

// Enabled reports whether events will be recorded.
func (nt *NodeTracer) Enabled() bool { return nt != nil }

// --- Link plane -----------------------------------------------------

// Fragment records a message being split into count fragments.
func (nt *NodeTracer) Fragment(m *wire.Message, origID uint64, count, size int) {
	if nt == nil {
		return
	}
	nt.t.emit(nt.id, LinkFragment, MsgID(m), origID, 0, size, int64(count), "")
}

// Retransmit records a retransmission attempt to remaining receivers.
func (nt *NodeTracer) Retransmit(m *wire.Message, attempt, remaining int) {
	if nt == nil {
		return
	}
	nt.t.emit(nt.id, LinkRetransmit, MsgID(m), 0, 0, remaining, int64(attempt), "")
}

// Reassembled records a message completed from count fragments.
func (nt *NodeTracer) Reassembled(m *wire.Message, origID uint64, count int) {
	if nt == nil {
		return
	}
	nt.t.emit(nt.id, LinkReassembled, MsgID(m), origID, 0, 0, int64(count), "")
}

// GiveUp records retransmissions exhausted with unacked receivers.
func (nt *NodeTracer) GiveUp(m *wire.Message, unacked int) {
	if nt == nil {
		return
	}
	nt.t.emit(nt.id, LinkGiveUp, MsgID(m), 0, 0, unacked, 0, "")
}

// --- Protocol plane -------------------------------------------------

// QueryStart records a consumer originating a query round. kindName
// must be a pre-existing string (wire.QueryKind.String returns
// constants for valid kinds).
func (nt *NodeTracer) QueryStart(id uint64, round int, kindName string) {
	if nt == nil {
		return
	}
	nt.t.emit(nt.id, QueryStart, id, 0, 0, 0, int64(round), kindName)
}

// QueryForward records a node re-flooding a query heard from peer.
func (nt *NodeTracer) QueryForward(id uint64, from wire.NodeID, hopsLeft int) {
	if nt == nil {
		return
	}
	nt.t.emit(nt.id, QueryForward, id, 0, from, 0, int64(hopsLeft), "")
}

// LQMatch records a response matching a lingering query at a relay.
func (nt *NodeTracer) LQMatch(respID, queryID uint64) {
	if nt == nil {
		return
	}
	nt.t.emit(nt.id, LQMatch, respID, queryID, 0, 0, 0, "")
}

// MixedcastMerge records one response serving several queries at once.
func (nt *NodeTracer) MixedcastMerge(respID uint64, queries, entries int) {
	if nt == nil {
		return
	}
	nt.t.emit(nt.id, MixedcastMerge, respID, 0, 0, entries, int64(queries), "")
}

// BloomSuppress records an entry suppressed by a query's Bloom filter.
// key must be the already-computed descriptor key. selfInflicted says
// the filter the query arrived with did not hold the key: only this
// relay's private copy of it did, so the suppression is a false
// positive of a filter no other node reads.
func (nt *NodeTracer) BloomSuppress(queryID uint64, key string, selfInflicted bool) {
	if nt == nil {
		return
	}
	v := int64(0)
	if selfInflicted {
		v = 1
	}
	nt.t.emit(nt.id, BloomSuppress, queryID, 0, 0, 0, v, key)
}

// BloomFailOpen records an entry offered Fresh to a query whose Bloom
// filter was already overloaded, so the filter was not consulted. key
// must be the already-computed descriptor key.
func (nt *NodeTracer) BloomFailOpen(queryID uint64, key string) {
	if nt == nil {
		return
	}
	nt.t.emit(nt.id, BloomFailOpen, queryID, 0, 0, 0, 0, key)
}

// CDIUpdate records a CDI table update learned from response respID.
func (nt *NodeTracer) CDIUpdate(respID uint64, neighbor wire.NodeID, chunk, hop int) {
	if nt == nil {
		return
	}
	nt.t.emit(nt.id, CDIUpdate, respID, 0, neighbor, chunk, int64(hop), "")
}

// SubQuery records a recursive chunk sub-query carrying the chunk
// assignment for one neighbor. The assignment vector is formatted only
// when tracing is enabled; the disabled path passes the slice header
// through untouched.
func (nt *NodeTracer) SubQuery(id, parentQID uint64, neighbor wire.NodeID, chunks []int) {
	if nt == nil {
		return
	}
	nt.t.emit(nt.id, SubQuery, id, parentQID, neighbor, len(chunks), 0, formatInts(chunks))
}

// RespServe records a response generated in answer to a query.
func (nt *NodeTracer) RespServe(respID, queryID uint64, entries int) {
	if nt == nil {
		return
	}
	nt.t.emit(nt.id, RespServe, respID, queryID, 0, entries, 0, "")
}

// RespRelay records a relayed response derived from a received one.
func (nt *NodeTracer) RespRelay(respID, srcRespID uint64, entries int) {
	if nt == nil {
		return
	}
	nt.t.emit(nt.id, RespRelay, respID, srcRespID, 0, entries, 0, "")
}

// --- Store plane ----------------------------------------------------

// CacheInsert records an entry or payload landing in the cache. key
// must be the already-computed descriptor key; size is the payload byte
// count (0 for metadata entries).
func (nt *NodeTracer) CacheInsert(key string, size int) {
	if nt == nil {
		return
	}
	nt.t.emit(nt.id, CacheInsert, 0, 0, 0, size, 0, key)
}

// CacheEvict records a cached payload evicted by the cache policy.
func (nt *NodeTracer) CacheEvict(key string, size int) {
	if nt == nil {
		return
	}
	nt.t.emit(nt.id, CacheEvict, 0, 0, 0, size, 0, key)
}

// LQTInsert records a lingering query entering the table.
func (nt *NodeTracer) LQTInsert(queryID uint64) {
	if nt == nil {
		return
	}
	nt.t.emit(nt.id, LQTInsert, queryID, 0, 0, 0, 0, "")
}

// LQTExpire records a lingering query expiring out of the table.
func (nt *NodeTracer) LQTExpire(queryID uint64) {
	if nt == nil {
		return
	}
	nt.t.emit(nt.id, LQTExpire, queryID, 0, 0, 0, 0, "")
}

// --- Disk tier --------------------------------------------------------

// SpillWrite records a payload written to the disk tier. key must be
// the already-computed descriptor key.
func (nt *NodeTracer) SpillWrite(key string, size int, owned bool) {
	if nt == nil {
		return
	}
	v := int64(0)
	if owned {
		v = 1
	}
	nt.t.emit(nt.id, SpillWrite, 0, 0, 0, size, v, key)
}

// SpillLoad records a payload served from the disk tier.
func (nt *NodeTracer) SpillLoad(key string, size int) {
	if nt == nil {
		return
	}
	nt.t.emit(nt.id, SpillLoad, 0, 0, 0, size, 0, key)
}

// StoreCompact records a segment-log compaction reclaiming dead bytes.
func (nt *NodeTracer) StoreCompact(segmentsBefore int, reclaimedBytes int64) {
	if nt == nil {
		return
	}
	nt.t.emit(nt.id, StoreCompact, 0, 0, 0, int(reclaimedBytes), int64(segmentsBefore), "")
}

// StoreRecover records a diskstore recovery scan: records replayed,
// records (or regions) skipped as corrupt.
func (nt *NodeTracer) StoreRecover(records, skipped int) {
	if nt == nil {
		return
	}
	nt.t.emit(nt.id, StoreRecover, 0, 0, 0, skipped, int64(records), "")
}

// --- Deployment plane -------------------------------------------------

// FaceDial records a unicast face dial attempt. addr must be a
// pre-existing string (the face's configured dial address).
func (nt *NodeTracer) FaceDial(peer wire.NodeID, attempt int, addr string) {
	if nt == nil {
		return
	}
	nt.t.emit(nt.id, FaceDial, 0, 0, peer, 0, int64(attempt), addr)
}

// FaceUp records a face reaching the up state after the hello exchange.
func (nt *NodeTracer) FaceUp(peer wire.NodeID, addr string) {
	if nt == nil {
		return
	}
	nt.t.emit(nt.id, FaceUp, 0, 0, peer, 0, 0, addr)
}

// FaceDown records a face connection loss with the consecutive-failure
// count. reason must be a pre-existing string (an error class constant,
// not a formatted error).
func (nt *NodeTracer) FaceDown(peer wire.NodeID, failures int, reason string) {
	if nt == nil {
		return
	}
	nt.t.emit(nt.id, FaceDown, 0, 0, peer, 0, int64(failures), reason)
}

// FaceBreaker records a face circuit breaker opening after consecutive
// failures.
func (nt *NodeTracer) FaceBreaker(peer wire.NodeID, failures int, addr string) {
	if nt == nil {
		return
	}
	nt.t.emit(nt.id, FaceBreaker, 0, 0, peer, 0, int64(failures), addr)
}

// TransportDrop records an outbound frame dropped at a transport. class
// must be a pre-existing string naming the error class ("encode",
// "write", "outbox", "overhear").
func (nt *NodeTracer) TransportDrop(m *wire.Message, size int, class string) {
	if nt == nil {
		return
	}
	nt.t.emit(nt.id, TransportDrop, MsgID(m), 0, 0, size, 0, class)
}

// TrackerLookup records a tracker peer lookup: how many peers it
// returned, and whether it was served from the stale local cache
// because every tracker was unreachable.
func (nt *NodeTracer) TrackerLookup(peers int, stale bool, addr string) {
	if nt == nil {
		return
	}
	s := 0
	if stale {
		s = 1
	}
	nt.t.emit(nt.id, TrackerLookup, 0, 0, 0, s, int64(peers), addr)
}

// TrackerFailover records the tracker client rotating to another
// tracker after the active one stopped answering.
func (nt *NodeTracer) TrackerFailover(addr string) {
	if nt == nil {
		return
	}
	nt.t.emit(nt.id, TrackerFailover, 0, 0, 0, 0, 0, addr)
}

// ChunkTier attributes one retrieved chunk to the tier that served it.
// tier must be a pre-existing string (Tier.String returns constants).
func (nt *NodeTracer) ChunkTier(chunk, bytes int, tier string) {
	if nt == nil {
		return
	}
	nt.t.emit(nt.id, ChunkTier, 0, 0, 0, chunk, int64(bytes), tier)
}

// --- Workload plane ---------------------------------------------------

// PrefetchIssued records a workload driver issuing a prefetch request
// for segment (or layer) index, depth requests ahead of the playhead.
// item must be a pre-existing string (the workload's item name).
func (nt *NodeTracer) PrefetchIssued(index, depth int, item string) {
	if nt == nil {
		return
	}
	nt.t.emit(nt.id, PrefetchIssued, 0, 0, 0, index, int64(depth), item)
}

// SegmentDeadlineMiss records segment index missing its playback
// deadline by late (0 = it never arrived at all).
func (nt *NodeTracer) SegmentDeadlineMiss(index int, late time.Duration, item string) {
	if nt == nil {
		return
	}
	nt.t.emit(nt.id, SegmentDeadlineMiss, 0, 0, 0, index, int64(late), item)
}

// Stall records playback stalling for dur while waiting for segment
// index.
func (nt *NodeTracer) Stall(index int, dur time.Duration, item string) {
	if nt == nil {
		return
	}
	nt.t.emit(nt.id, Stall, 0, 0, 0, index, int64(dur), item)
}

// formatInts renders an assignment vector compactly ("0,3,7").
func formatInts(xs []int) string {
	var b bytes.Buffer
	for i, x := range xs {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%d", x)
	}
	return b.String()
}

// --- Export ---------------------------------------------------------

// Events returns every buffered event, sorted by sequence number. The
// global sequence is assigned in emission order, so under the
// deterministic simulator the result is identical for identical seeds.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	ids := make([]wire.NodeID, 0, len(t.rings))
	for id := range t.rings {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	var out []Event
	for _, id := range ids {
		out = append(out, t.rings[id].events()...)
	}
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// jsonEvent is the JSONL wire form of an Event. Field order is fixed by
// the struct, which is what makes exports byte-stable.
type jsonEvent struct {
	Seq    uint64 `json:"seq"`
	T      int64  `json:"t"` // nanoseconds on the run's clock
	Node   uint32 `json:"node"`
	Kind   string `json:"kind"`
	Msg    uint64 `json:"msg,omitempty"`
	Parent uint64 `json:"parent,omitempty"`
	Peer   uint32 `json:"peer,omitempty"`
	Size   int    `json:"size,omitempty"`
	Val    int64  `json:"val,omitempty"`
	Note   string `json:"note,omitempty"`
}

// WriteJSONL writes every buffered event as one JSON object per line,
// in sequence order. A nil tracer has no events and writes nothing.
func (t *Tracer) WriteJSONL(w io.Writer) error {
	if t == nil {
		return nil
	}
	return WriteJSONL(w, t.Events())
}

// WriteJSONL writes the events as JSONL.
func WriteJSONL(w io.Writer, events []Event) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, ev := range events {
		je := jsonEvent{
			Seq: ev.Seq, T: int64(ev.T), Node: uint32(ev.Node), Kind: ev.Kind.String(),
			Msg: ev.Msg, Parent: ev.Parent, Peer: uint32(ev.Peer),
			Size: ev.Size, Val: ev.Val, Note: ev.Note,
		}
		if err := enc.Encode(&je); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadJSONL parses a JSONL export back into events. Lines that are
// empty are skipped; malformed lines are an error.
func ReadJSONL(r io.Reader) ([]Event, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	var out []Event
	line := 0
	for sc.Scan() {
		line++
		raw := bytes.TrimSpace(sc.Bytes())
		if len(raw) == 0 {
			continue
		}
		var je jsonEvent
		if err := json.Unmarshal(raw, &je); err != nil {
			return nil, fmt.Errorf("trace: line %d: %w", line, err)
		}
		out = append(out, Event{
			Seq: je.Seq, T: time.Duration(je.T), Node: wire.NodeID(je.Node),
			Kind: KindFromString(je.Kind), Msg: je.Msg, Parent: je.Parent,
			Peer: wire.NodeID(je.Peer), Size: je.Size, Val: je.Val, Note: je.Note,
		})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}
