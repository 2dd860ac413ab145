// Package link implements the per-hop reliability layer of the PDS
// prototype (§V-1, §V-2): application-level leaky-bucket pacing in front
// of the OS send buffer, and ack/retransmission toward the intended
// receivers of each transmission.
//
// The layer sits between the protocol engine (package core) and a raw
// broadcast sender (the simulated radio or a UDP socket). It paces
// outgoing messages so the OS buffer never overflows, assigns each
// logical transmission a TransmitID, collects acks from intended
// receivers and retransmits (to the not-yet-acknowledged subset only)
// up to MaxRetr times every RetrTimeout.
package link

import (
	"slices"
	"time"

	"pds/internal/clock"
	"pds/internal/ring"
	"pds/internal/trace"
	"pds/internal/wire"
)

// RawSender pushes a frame toward the medium. It reports false when the
// frame was dropped before transmission (OS buffer overflow).
type RawSender func(*wire.Message) bool

// Config holds the reliability parameters. The defaults mirror the
// prototype's best-performing values (§V-2, §V-4).
type Config struct {
	// PaceEnabled turns the leaky bucket on. Off reproduces the raw-UDP
	// buffer-overflow failure mode of Figure 3.
	PaceEnabled bool
	// BucketBytes is the burst capacity (paper: 300 KB).
	BucketBytes int
	// LeakRate is the sustained pacing rate in bytes/second
	// (paper: 4.5 Mbps = 562 500 B/s).
	LeakRate float64
	// AckEnabled turns per-hop ack/retransmission on.
	AckEnabled bool
	// RetrTimeout is how long to wait for acks before retransmitting
	// (paper: 0.2 s). The wait for a given message is additionally
	// padded by the message's own transmission time at LeakRate, so
	// large chunk messages are not retransmitted while still on the air.
	RetrTimeout time.Duration
	// MaxRetr is the maximum number of retransmissions. The paper's
	// prototype used 4 for standalone 1.5 KB messages; fragments of
	// large chunks default to a slightly more persistent 6 (with
	// exponential backoff) because abandoning one fragment wastes the
	// whole chunk's airtime.
	MaxRetr int
	// DedupRetention is how long received TransmitIDs are remembered to
	// drop retransmitted duplicates.
	DedupRetention time.Duration
	// FragmentBytes is the maximum frame payload; larger messages are
	// split into individually acked and retransmitted fragments, the
	// prototype's 1.5 KB packets (§V-4). Zero disables fragmentation. On
	// a carrier with no shared medium (a face mesh) pds.NewNode sets it to
	// the carrier's MaxFragment, whatever the configuration says.
	FragmentBytes int
}

// fragWindow is the ARQ window: at most this many unacknowledged
// fragments of the active message are in flight, so a chunk stream
// self-clocks to the channel's real per-hop goodput instead of flooding
// the contention domain. Fragmented messages themselves are sent one at
// a time per link.
const fragWindow = 8

// DefaultConfig returns the prototype parameters. Its argument is
// ignored; it is kept only until the benchmark module stops passing one.
func DefaultConfig(func(time.Duration) time.Duration) Config {
	return Config{
		PaceEnabled:    true,
		BucketBytes:    300 << 10,
		LeakRate:       4.5e6 / 8,
		AckEnabled:     true,
		RetrTimeout:    200 * time.Millisecond,
		MaxRetr:        6,
		DedupRetention: 10 * time.Second,
		FragmentBytes:  1400,
	}
}

// Stats counts link-layer activity.
type Stats struct {
	Sent            uint64 // logical sends accepted from the engine
	Transmitted     uint64 // frames handed to the raw sender
	Retransmissions uint64
	AcksSent        uint64
	AcksReceived    uint64
	GiveUps         uint64 // transmissions abandoned with unacked receivers
	DupDropped      uint64 // duplicate frames suppressed on receive
	RawDrops        uint64 // frames rejected by the raw sender
	Fragmented      uint64 // messages split into fragments
	Reassembled     uint64 // messages reassembled from fragments
	ReasmErrors     uint64 // fragments at odds with their reassembly, and reassembled bytes that failed to decode
}

// pending is the record of one frame awaiting acks, pooled per link
// (getPending, putPending): it keeps its timer, bound to it once, and its
// remaining buffer from frame to frame.
type pending struct {
	msg *wire.Message
	// remaining is the receiver list less the nodes that have acked,
	// order and repeats kept: what a retransmission is addressed to.
	remaining []wire.NodeID
	attempts  int
	timer     clock.Timer
	job       *fragJob
	next      *pending // free list
}

// fragJob is one fragmented message being streamed under the ARQ
// window.
type fragJob struct {
	whole       *wire.Message
	origID      uint64
	receivers   []wire.NodeID
	size        int
	count       int
	next        int // next fragment index to release
	outstanding int // released fragments not yet fully acked
	noAck       bool
	aborted     bool
	unacked     []wire.NodeID // receivers the aborted fragments still waited for, repeats and all
	// enc is whole's encoding, filled if a carrier ever encodes one of
	// the job's fragments (the simulator never does). Every fragment
	// points at it, so the bytes are made once and go when the job and
	// its frames do.
	enc wire.Encoding
}

// fragFrame is one fragment on the air: envelope and body in one
// object, the body's pointer set before stamping. A job's frames are one
// slab, cut when it releases its first (see pumpJobs).
type fragFrame struct {
	wire.Message
	frag wire.Fragment
}

// ackFrame is one ack, envelope and body in one object; a link takes
// them from the end of its chunk (see HandleIncoming).
type ackFrame struct {
	wire.Message
	ack wire.Ack
}

type outItem struct {
	msg  *wire.Message
	size int
}

// Link is the reliability layer for one node.
type Link struct {
	clk  clock.Clock
	self wire.NodeID
	raw  RawSender
	cfg  Config

	nextTransmit uint64
	// Leaky bucket state.
	tokens      float64
	lastRefill  time.Duration
	queue       ring.Queue[outItem]
	queuedBytes int // sum of queue's sizes, kept by enqueue/drain/Reset
	drainArmed  bool
	// txNotify records that the transport reports transmission
	// completions via NotifyTransmitted, which arms retransmission
	// timers precisely at airtime end instead of estimating.
	txNotify bool
	wakeup   clock.Timer // re-runs drain; made when the queue first has to wait

	pend map[uint64]*pending // nil until the first acknowledged frame
	free *pending            // idle records, linked by next
	// seen and seenOld are the dedup window (see duplicate): TransmitIDs
	// accepted since seenSince, and those of the generation before.
	seen, seenOld map[uint64]time.Duration
	seenSince     time.Duration
	// reasms tracks fragment reassemblies by OrigID, swept no sooner than
	// reasmSweepAt; nil until the first fragment.
	reasms       map[uint64]reasm
	reasmSweepAt time.Duration
	// fragJobs queues fragmented messages; one streams at a time.
	fragJobs  ring.Queue[*fragJob]
	activeJob *fragJob
	// frames is the active job's slab, one frame per fragment. It lives
	// here, not on the job: every frame points into the job (Fragment.Enc),
	// so a slab on the job would make the two a cycle, and a finalizer on
	// the job never runs on a cycle.
	frames []fragFrame
	// acks is what is left of the chunk acks are taken from, at its end.
	acks []ackFrame

	// OnGiveUp, when set, is called after MaxRetr unsuccessful
	// retransmissions with the message and still-unacked receivers.
	OnGiveUp func(msg *wire.Message, unacked []wire.NodeID)

	// tr records link-plane trace events; nil (the default) is free.
	tr *trace.NodeTracer

	stats Stats
}

// SetTracer installs a node-bound tracer for link events (fragmenting,
// retransmissions, reassembly, give-ups). A nil tracer disables them.
func (l *Link) SetTracer(tr *trace.NodeTracer) { l.tr = tr }

// New returns a link layer for node self sending through raw.
func New(clk clock.Clock, self wire.NodeID, raw RawSender, cfg Config) *Link {
	return &Link{
		clk:    clk,
		self:   self,
		raw:    raw,
		cfg:    cfg,
		tokens: float64(cfg.BucketBytes),
	}
}

// Stats returns a snapshot of the counters.
func (l *Link) Stats() Stats { return l.stats }

// Send transmits a protocol message. Messages larger than FragmentBytes
// are split into individually acknowledged fragments; each frame gets a
// TransmitID and is paced through the leaky bucket.
//
// Ownership of msg transfers to the link layer with the call: Send
// stamps the envelope (TransmitID, From, NoAck) before the frame first
// leaves, and once transmitted the message is frozen — retransmissions
// are built as copy-on-write variants, never by mutating the original.
func (l *Link) Send(msg *wire.Message) {
	l.stats.Sent++
	size := wire.EncodedSize(msg)
	if l.cfg.FragmentBytes > 0 && size > l.cfg.FragmentBytes &&
		(msg.Type == wire.TypeQuery || msg.Type == wire.TypeResponse) {
		l.sendFragmented(msg, size)
		return
	}
	l.sendFrame(msg, nil)
}

// sendFragmented queues msg as a fragment job; jobs stream one at a
// time per link, each under the ARQ window.
func (l *Link) sendFragmented(msg *wire.Message, size int) {
	l.nextTransmit++
	receivers := msg.Receivers()
	job := &fragJob{
		whole:     msg,
		origID:    wire.NewTransmitID(l.self, l.nextTransmit),
		receivers: append([]wire.NodeID(nil), receivers...),
		size:      size,
		count:     (size + l.cfg.FragmentBytes - 1) / l.cfg.FragmentBytes,
		noAck:     !l.cfg.AckEnabled || len(receivers) == 0,
	}
	l.stats.Fragmented++
	l.tr.Fragment(msg, job.origID, job.count, size)
	l.fragJobs.PushBack(job)
	l.pumpJobs()
}

// pumpJobs starts the next queued job when none is active and releases
// window-permitted fragments of the active one.
func (l *Link) pumpJobs() {
	if l.activeJob == nil {
		if l.fragJobs.Len() == 0 {
			return
		}
		l.activeJob = l.fragJobs.PopFront()
	}
	job := l.activeJob
	window := fragWindow
	if job.noAck {
		window = job.count // unacked jobs cannot self-clock; blast
	}
	for job.next < job.count && job.outstanding < window && !job.aborted {
		i := job.next
		job.next++
		fsize := l.cfg.FragmentBytes
		if i == job.count-1 {
			fsize = job.size - (job.count-1)*l.cfg.FragmentBytes
		}
		if i == 0 {
			// Never reused: a frame may outlive the job (a carrier still
			// holding it), and the GC frees the slab with its last frame.
			l.frames = make([]fragFrame, job.count)
		}
		f := &l.frames[i]
		f.frag = wire.Fragment{
			OrigID: job.origID,
			Index:  i,
			Count:  job.count,
			// Shared with every fragment of the job: the list is
			// frozen at job creation, and retransmission narrowing
			// builds its own list via WithReceivers.
			Receivers: job.receivers,
			Size:      fsize,
			Whole:     job.whole,
			Enc:       &job.enc,
		}
		f.Message = wire.Message{Type: wire.TypeFragment, Fragment: &f.frag}
		if !job.noAck {
			job.outstanding++
		}
		l.sendFrame(&f.Message, job)
	}
	if job.aborted || (job.next >= job.count && job.outstanding == 0) {
		l.finishJob(job)
	}
}

// finishJob retires the active job and starts the next.
func (l *Link) finishJob(job *fragJob) {
	if l.activeJob != job {
		return
	}
	l.activeJob, l.frames = nil, nil
	if job.aborted {
		l.giveUp(job.whole, job.unacked)
	}
	l.pumpJobs()
}

// giveUp reports msg abandoned with unacked (taken over) still waited
// for: sorted, each node once, so that health-tracker strikes land one
// per neighbor, in the same order every run (the second kills one).
func (l *Link) giveUp(msg *wire.Message, unacked []wire.NodeID) {
	slices.Sort(unacked)
	unacked = slices.Compact(unacked)
	l.stats.GiveUps++
	l.tr.GiveUp(msg, len(unacked))
	if l.OnGiveUp != nil {
		l.OnGiveUp(msg, unacked)
	}
}

// fragAcked is called when one fragment's pending entry resolves.
func (l *Link) fragAcked(job *fragJob, ok bool, unacked []wire.NodeID) {
	job.outstanding--
	if !ok {
		job.aborted = true
		job.unacked = append(job.unacked, unacked...)
	}
	if l.activeJob == job {
		if job.aborted && job.outstanding <= 0 {
			l.finishJob(job)
			return
		}
		l.pumpJobs()
	}
}

// sendFrame assigns the TransmitID, decides whether acks are expected
// (explicit receiver list, acking enabled) and paces the frame out. job
// is the fragment job the frame belongs to, nil for a whole message.
func (l *Link) sendFrame(msg *wire.Message, job *fragJob) {
	l.nextTransmit++
	receivers := msg.Receivers()
	needAck := l.cfg.AckEnabled && len(receivers) > 0 && msg.Type != wire.TypeAck
	msg.Stamp(wire.NewTransmitID(l.self, l.nextTransmit), l.self, !needAck)

	if needAck {
		p := l.getPending(msg, job)
		p.remaining = append(p.remaining, receivers...)
		if l.pend == nil {
			l.pend = make(map[uint64]*pending)
		}
		l.pend[msg.TransmitID] = p
		// The retry timer is armed when the frame actually leaves the
		// pacing queue (see transmit), not here: frames can wait in the
		// queue long past RetrTimeout.
	}
	l.enqueue(msg)
}

// getPending takes an idle record for msg.
func (l *Link) getPending(msg *wire.Message, job *fragJob) *pending {
	p := l.free
	if p == nil { // the pool grows to the most frames ever in flight
		p = new(pending)
		p.timer = clock.NewTimer(l.clk, func() { l.retry(p) })
	} else {
		l.free, p.next = p.next, nil
	}
	p.msg, p.job = msg, job
	return p
}

// putPending frees p, out of pend already: timer stopped, holding nothing.
//
//pds:hotpath
func (l *Link) putPending(p *pending) {
	p.timer.Stop()
	p.msg, p.job, p.attempts, p.remaining = nil, nil, 0, p.remaining[:0]
	p.next, l.free = l.free, p
}

// enqueue paces a frame through the leaky bucket (or sends immediately
// when pacing is off or the bucket has tokens).
func (l *Link) enqueue(msg *wire.Message) {
	size := wire.EncodedSize(msg)
	if !l.cfg.PaceEnabled {
		l.transmit(msg)
		return
	}
	l.queue.PushBack(outItem{msg: msg, size: size})
	l.queuedBytes += size
	l.drain()
}

func (l *Link) refill() {
	now := l.clk.Now()
	dt := now - l.lastRefill
	if dt > 0 {
		l.tokens += l.cfg.LeakRate * dt.Seconds()
		if l.tokens > float64(l.cfg.BucketBytes) {
			l.tokens = float64(l.cfg.BucketBytes)
		}
		l.lastRefill = now
	}
}

// drain sends queued frames while tokens last, then schedules itself for
// when the next frame's tokens will have accumulated. A frame bigger than
// the bucket (one a carrier with a large frame bound sends whole) leaves
// once the bucket is full, and the bucket runs into debt for the rest.
func (l *Link) drain() {
	l.refill()
	full := float64(l.cfg.BucketBytes)
	for l.queue.Len() > 0 {
		head := l.queue.Front()
		if float64(head.size) > l.tokens && l.tokens < full {
			break
		}
		l.tokens -= float64(head.size)
		l.queue.PopFront()
		l.queuedBytes -= head.size
		l.transmit(head.msg)
	}
	if l.queue.Len() == 0 || l.drainArmed {
		return
	}
	need := min(float64(l.queue.Front().size), full) - l.tokens
	wait := time.Duration(need / l.cfg.LeakRate * float64(time.Second))
	if wait < time.Millisecond {
		wait = time.Millisecond
	}
	l.drainArmed = true
	if l.wakeup == nil {
		l.wakeup = clock.NewTimer(l.clk, func() {
			l.drainArmed = false
			l.drain()
		})
	}
	l.wakeup.Reset(wait)
}

func (l *Link) transmit(msg *wire.Message) {
	l.stats.Transmitted++
	sent := l.raw(msg)
	if !sent {
		// Dropped before the air (OS-buffer overflow). The pending
		// entry must still time out and retransmit — recovering these
		// drops is precisely what lifts reception from ~40-90% to
		// 85-99% in Figure 3's ack experiment.
		l.stats.RawDrops++
	}
	if !sent || !l.txNotify { // else NotifyTransmitted arms it, at airtime end
		l.armRetry(msg)
	}
}

// EnableTransmitNotify switches retransmission timing to transport
// completion callbacks: the caller promises to invoke NotifyTransmitted
// when each frame's transmission ends.
func (l *Link) EnableTransmitNotify() { l.txNotify = true }

// NotifyTransmitted arms the ack timer for a frame whose transmission
// just completed. The wait is RetrTimeout plus the frame's own airtime
// estimate: the ack of a large chunk message typically has to defer
// behind a similarly sized chunk already contending for the channel, so
// a flat 0.2 s (tuned on 1.5 KB packets, §V-4) would retransmit 256 KB
// messages spuriously.
func (l *Link) NotifyTransmitted(msg *wire.Message) { l.armRetry(msg) }

// armRetry starts the retry timer of msg's record, if it has one, afresh.
func (l *Link) armRetry(msg *wire.Message) {
	p := l.pend[msg.TransmitID]
	if p == nil {
		return
	}
	p.timer.Stop()
	timeout := l.cfg.RetrTimeout
	if rate := l.cfg.LeakRate; rate > 0 {
		// Pad by this frame's own airtime (the ack usually defers
		// behind a similarly sized frame) and by our own outbound
		// backlog, which competes with the returning ack for the
		// channel.
		timeout += time.Duration(float64(wire.EncodedSize(msg)+l.QueuedBytes()) / rate * float64(time.Second))
	}
	// Exponential backoff across attempts damps retransmission storms
	// under sustained contention.
	for i := 0; i < p.attempts && timeout < 5*time.Second; i++ {
		timeout *= 2
	}
	p.timer.Reset(timeout)
}

// retry is p's timer callback: never after Stop, so p is in pend, its frame unacknowledged.
func (l *Link) retry(p *pending) {
	if p.attempts >= l.cfg.MaxRetr {
		delete(l.pend, p.msg.TransmitID)
		msg, job, unacked := p.msg, p.job, slices.Clone(p.remaining)
		l.putPending(p)
		if job == nil {
			l.giveUp(msg, unacked)
			return
		}
		// Abort the whole fragment job: the message cannot be
		// reassembled; finishJob reports the give-up once.
		l.fragAcked(job, false, unacked)
		return
	}
	p.attempts++
	l.stats.Retransmissions++
	l.tr.Retransmit(p.msg, p.attempts, len(p.remaining))
	// Retransmit with the receiver list narrowed to nodes that have not
	// acknowledged yet (§V-1). The TransmitID stays the same so
	// receivers that already processed the frame drop the duplicate.
	// The retransmission is a copy-on-write variant of the original:
	// only the receiver list is rebuilt — payload bytes, descriptor
	// lists and Bloom filter stay shared with the published frame, so
	// retrying a 256 KB chunk response costs a few header allocations.
	// The retry timer re-arms when the retransmission leaves the pacing
	// queue (transmit sees the pending entry by TransmitID). The frame
	// owns its list; remaining goes on changing, hence the clone.
	l.enqueue(p.msg.WithReceivers(slices.Clone(p.remaining)))
}

// HandleIncoming processes a frame from the medium. It absorbs acks,
// acknowledges frames addressed to this node, suppresses retransmitted
// duplicates and reassembles fragments. It returns the protocol message
// the upper layer should process, or nil.
func (l *Link) HandleIncoming(msg *wire.Message) *wire.Message {
	now := l.clk.Now()
	if msg.Type == wire.TypeAck {
		l.stats.AcksReceived++
		l.absorbAck(msg.Ack)
		return nil
	}

	intended := msg.IsIntendedFor(l.self)
	if intended && !msg.NoAck {
		// Acks bypass the bucket: they are tiny and latency-critical;
		// the radio model gives them SIFS-like priority and spreads
		// several receivers' acks of one broadcast over its ack slots.
		// Taken from the end of a chunk of up to 64, twice the last
		// chunk's size (cap keeps it), so a link that acks once pays for
		// one. Never reused: the GC frees a chunk with its last ack.
		if len(l.acks) == 0 {
			l.acks = make([]ackFrame, min(max(2*cap(l.acks), 1), 64))
		}
		f := &l.acks[len(l.acks)-1]
		l.acks = l.acks[:len(l.acks)-1]
		f.ack = wire.Ack{MsgID: msg.TransmitID, From: l.self}
		f.Message = wire.Message{Type: wire.TypeAck, Ack: &f.ack}
		l.nextTransmit++
		ack := &f.Message
		ack.Stamp(wire.NewTransmitID(l.self, l.nextTransmit), l.self, true)
		l.stats.AcksSent++
		l.transmit(ack)
	}

	if l.duplicate(msg.TransmitID, now) {
		l.stats.DupDropped++
		return nil
	}

	if msg.Type == wire.TypeFragment {
		return l.reassemble(msg.Fragment, now)
	}
	return msg
}

// absorbAck strikes the acknowledging node, every mention of it, from
// the frame's remaining receivers, and retires the record with the last.
//
//pds:hotpath
func (l *Link) absorbAck(ack *wire.Ack) {
	p := l.pend[ack.MsgID]
	if p == nil {
		return
	}
	if p.remaining = slices.DeleteFunc(p.remaining, func(id wire.NodeID) bool { return id == ack.From }); len(p.remaining) > 0 {
		return
	}
	delete(l.pend, ack.MsgID)
	job := p.job
	l.putPending(p)
	if job != nil {
		l.fragAcked(job, true, nil)
	}
}

// duplicate reports whether id was accepted less than DedupRetention
// ago, and records it as accepted now when it was not. The window ages
// here, on arrival, and nowhere else (no timer): once the current
// generation is a retention old, the one before it holds only ids
// accepted more than a retention ago; it is emptied and the two swap.
// A frame costs two lookups and an insert however many ids are held.
// Lookups compare timestamps, so a generation's age decides no verdict.
func (l *Link) duplicate(id uint64, now time.Duration) bool {
	keep := l.cfg.DedupRetention
	if age := now - l.seenSince; age >= keep {
		clear(l.seenOld)
		if age < 2*keep && len(l.seen) > 0 {
			l.seen, l.seenOld = l.seenOld, l.seen
		} else {
			clear(l.seen) // two retentions on, this one is all stale too
		}
		l.seenSince = now
	}
	if at, ok := l.seen[id]; ok && now-at < keep {
		return true
	}
	if at, ok := l.seenOld[id]; ok && now-at < keep {
		return true
	}
	if l.seen == nil { // made on first use: an idle link holds no map
		l.seen = make(map[uint64]time.Duration)
	}
	l.seen[id] = now
	return false
}

// maxFragments bounds Count, which comes off the wire and sizes a reassembly's tables.
const maxFragments = 1 << 16

// reasm tracks one message reassembly, by value in the table. A message
// of up to 64 fragments that carry it (Whole) is the word have and nothing
// on the heap; big is what a longer one, or one arriving as bytes, needs
// there. Finished (got == count) it stays as a tombstone against a second
// delivery, big gone: it references nothing.
type reasm struct {
	have       uint64 // bit i: fragment i has arrived
	got, count int32
	at         time.Duration
	big        *bigReasm
}

type bigReasm struct {
	have  []uint64 // in place of reasm.have
	parts [][]byte // the fragments' bytes, where they carry any
}

// reassemble records a fragment and returns the completed message the
// first time all fragments are present — the Whole its fragments carry,
// else their bytes decoded. Overhearing nodes reassemble too, which is
// what lets them cache chunks they were never sent.
func (l *Link) reassemble(f *wire.Fragment, now time.Duration) *wire.Message {
	if f == nil || f.Count <= 0 || f.Count > maxFragments || f.Index < 0 || f.Index >= f.Count {
		return nil
	}
	r, ok := l.reasms[f.OrigID]
	if ok && f.Count != int(r.count) { // Index is good for f's Count, not for r's tables
		l.stats.ReasmErrors++
		return nil
	}
	if !ok {
		if l.reasms == nil {
			l.reasms = make(map[uint64]reasm)
		}
		r.count = int32(f.Count)
		if f.Count > 64 || f.Data != nil {
			r.big = &bigReasm{have: make([]uint64, (f.Count+63)/64)}
			if f.Data != nil {
				r.big.parts = make([][]byte, f.Count)
			}
		}
		if len(l.reasms) >= 1024 && now >= l.reasmSweepAt {
			// Make room: drop what is a DedupRetention old, finished or
			// not — at most sixteen times a retention, so a burst of new
			// OrigIDs inside one does not walk the table each.
			for id, old := range l.reasms {
				if now-old.at >= l.cfg.DedupRetention {
					delete(l.reasms, id)
				}
			}
			l.reasmSweepAt = now + l.cfg.DedupRetention/16
		}
	}
	r.at = now
	if r.got == r.count { // the tombstone of a message already handed up
		l.reasms[f.OrigID] = r
		return nil
	}
	word := &r.have
	if r.big != nil {
		word = &r.big.have[f.Index/64]
	}
	if bit := uint64(1) << (f.Index % 64); *word&bit == 0 {
		*word |= bit
		r.got++
	}
	if r.big != nil && r.big.parts != nil && f.Data != nil {
		r.big.parts[f.Index] = f.Data
	}
	var parts [][]byte
	if r.got == r.count && r.big != nil {
		// Complete: the fragments go now, not when the table is next
		// swept, or a node holds a second copy of every chunk it heard.
		parts, r.big = r.big.parts, nil
	}
	l.reasms[f.OrigID] = r
	if r.got < r.count {
		return nil
	}
	l.stats.Reassembled++
	if f.Whole != nil {
		l.tr.Reassembled(f.Whole, f.OrigID, f.Count)
		// Virtual path: hand up the shared original. Every receiver's
		// fragments reference the same published message, and published
		// messages are read-only end to end (wire.Message ownership
		// rules), so no private clone is needed.
		return f.Whole
	}
	// Real-transport path: concatenate the fragments into one buffer and
	// decode. The buffer is never reused: the message's blob payloads
	// alias it, and the large reassemblies are chunks.
	decoded, err := wire.Decode(slices.Concat(parts...))
	if err != nil {
		l.stats.ReasmErrors++
		return nil
	}
	l.tr.Reassembled(decoded, f.OrigID, f.Count)
	return decoded
}

// Reset wipes all volatile link state — pacing queue, in-flight ARQ
// entries (their retry timers cancelled), fragment jobs, reassembly
// buffers and the dedup window — as when the node's radio powers off.
// The leaky bucket refills; the TransmitID counter keeps advancing so
// post-restart frames never collide with pre-crash ones still cached in
// neighbors' dedup windows.
func (l *Link) Reset() {
	ids := make([]uint64, 0, len(l.pend))
	for id := range l.pend {
		ids = append(ids, id)
	}
	slices.Sort(ids) // records go back to the free list in TransmitID order
	for _, id := range ids {
		l.putPending(l.pend[id])
	}
	l.pend = nil
	l.queue.Reset()
	l.queuedBytes = 0
	l.fragJobs.Reset()
	l.activeJob, l.frames = nil, nil
	l.seen, l.seenOld, l.reasms = nil, nil, nil
	l.tokens = float64(l.cfg.BucketBytes)
	l.lastRefill = l.clk.Now()
	// drainArmed stays as-is: a pending drain callback finds an empty
	// queue and exits harmlessly.
}

// SetRawSender swaps the raw sender, used when a crashed node re-attaches
// to the medium with a fresh radio.
func (l *Link) SetRawSender(raw RawSender) { l.raw = raw }

// QueuedBytes reports bytes waiting in the pacing queue.
func (l *Link) QueuedBytes() int { return l.queuedBytes }

// PendingAcks reports in-flight transmissions awaiting acks (for tests).
func (l *Link) PendingAcks() int { return len(l.pend) }
