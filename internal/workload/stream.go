package workload

import (
	"fmt"
	"time"

	"pds/internal/attr"
	"pds/internal/clock"
	"pds/internal/core"
	"pds/internal/metrics"
	"pds/internal/qoe"
	"pds/internal/trace"
)

// PublishFunc publishes one chunk of an item somewhere in the
// deployment. Drivers never talk to producer nodes directly — the
// scenario decides where published data lands (one radio node, the k
// nearest city nodes, ...), which keeps the drivers reusable across
// simulation cores.
type PublishFunc func(item attr.Descriptor, chunkID int, payload []byte)

// ChunkCount returns how many chunkBytes-sized chunks cover totalBytes.
func ChunkCount(totalBytes, chunkBytes int) int {
	if chunkBytes <= 0 {
		chunkBytes = core.DefaultChunkSize
	}
	n := (totalBytes + chunkBytes - 1) / chunkBytes
	if n == 0 {
		n = 1
	}
	return n
}

// ChunkPayload builds chunk c's deterministic payload for a
// totalBytes-long item: the same position-dependent byte pattern the
// scenario layer seeds, with the final chunk truncated to the item's
// exact size.
func ChunkPayload(totalBytes, chunkBytes, c int) []byte {
	if chunkBytes <= 0 {
		chunkBytes = core.DefaultChunkSize
	}
	size := chunkBytes
	if rem := totalBytes - c*chunkBytes; rem < size {
		size = rem
	}
	if size <= 0 {
		size = 1
	}
	payload := make([]byte, size)
	for i := range payload {
		payload[i] = byte(c + i)
	}
	return payload
}

// SegmentDescriptor names segment seg of the stream called name.
func SegmentDescriptor(name string, seg int, spec StreamSpec) attr.Descriptor {
	return attr.NewDescriptor().
		Set(attr.AttrNamespace, attr.String("media")).
		Set(attr.AttrDataType, attr.String("hls")).
		Set(attr.AttrName, attr.String(fmt.Sprintf("%s/seg%04d", name, seg))).
		Set(attr.AttrTotalChunks, attr.Int(int64(ChunkCount(spec.SegmentBytes, spec.ChunkBytes))))
}

// StreamResult is one finished streaming session.
type StreamResult struct {
	// Report is the playback model's account of the session.
	Report qoe.Report
	// QoE is the session's metric counters (startup, stalls, rebuffer
	// ratio, segment-latency percentiles, byte attribution).
	QoE metrics.QoECounters
	// SegmentsComplete counts segments fully retrieved before the
	// session budget ran out.
	SegmentsComplete int
	// MeanLatency is the mean availability-to-ready segment latency
	// over completed segments.
	MeanLatency time.Duration
	// Rounds is the mean request rounds per completed segment.
	Rounds float64
}

// StreamSession drives one HLS-style streaming session: the producer
// side publishes fixed-duration segments on its timeline (live) or all
// at once (VOD); the consumer side keeps up to Prefetch segments in
// flight ahead of the playhead, each as its own PDR retrieval with a
// deadline equal to the remaining session budget and a request window
// shrunk so the pipelined sessions together impose one foreground
// retrieval's load. Completions feed the qoe.Playback model, which
// charges startup delay and stalls.
type StreamSession struct {
	clk  clock.Clock
	spec StreamSpec
	pub  PublishFunc
	cons *core.Node
	tr   *trace.NodeTracer
	name string

	start  time.Duration
	endAt  time.Duration
	window int

	items       []attr.Descriptor
	published   []bool
	publishedAt []time.Duration
	requested   []bool
	inFlight    int
	resolved    int

	play      *qoe.Playback
	lat       metrics.Pool
	localB    uint64
	p2pB      uint64
	roundsSum int
	complete  int
}

// StartStream begins a streaming session on clk and returns it. budget
// bounds the whole session (publish timeline plus retrieval tail);
// drive the clock until Done() and then read Result(). tr may be nil.
func StartStream(clk clock.Clock, spec StreamSpec, pub PublishFunc, cons *core.Node,
	tr *trace.NodeTracer, name string, budget time.Duration) *StreamSession {
	spec = spec.withDefaults()
	s := &StreamSession{
		clk: clk, spec: spec, pub: pub, cons: cons, tr: tr, name: name,
		start:       clk.Now(),
		endAt:       clk.Now() + budget,
		items:       make([]attr.Descriptor, spec.Segments),
		published:   make([]bool, spec.Segments),
		publishedAt: make([]time.Duration, spec.Segments),
		requested:   make([]bool, spec.Segments),
	}
	// Split one foreground retrieval's request window across the
	// pipeline so aggregate in-flight load stays polite.
	s.window = core.OutstandingChunks / spec.Prefetch
	if s.window < 1 {
		s.window = 1
	}
	s.play = qoe.NewPlayback(spec.Segments, spec.SegmentDuration, s.start)
	for i := 0; i < spec.Segments; i++ {
		s.items[i] = SegmentDescriptor(name, i, spec)
	}
	if spec.VOD {
		for i := 0; i < spec.Segments; i++ {
			s.publish(i)
		}
	} else {
		for i := 0; i < spec.Segments; i++ {
			seg := i
			clk.Schedule(time.Duration(i)*spec.SegmentDuration, func() { s.publish(seg) })
		}
	}
	return s
}

func (s *StreamSession) publish(seg int) {
	total := ChunkCount(s.spec.SegmentBytes, s.spec.ChunkBytes)
	for c := 0; c < total; c++ {
		s.pub(s.items[seg], c, ChunkPayload(s.spec.SegmentBytes, s.spec.ChunkBytes, c))
	}
	s.published[seg] = true
	s.publishedAt[seg] = s.clk.Now()
	s.topUp()
}

// topUp keeps the prefetch pipeline full: request published segments in
// order until Prefetch retrievals are in flight.
func (s *StreamSession) topUp() {
	for s.inFlight < s.spec.Prefetch {
		next := -1
		for i := 0; i < s.spec.Segments; i++ {
			if s.published[i] && !s.requested[i] {
				next = i
				break
			}
		}
		if next < 0 {
			return
		}
		s.request(next)
	}
}

func (s *StreamSession) request(seg int) {
	s.requested[seg] = true
	s.inFlight++
	s.tr.PrefetchIssued(seg, s.inFlight, s.name)
	budget := s.endAt - s.clk.Now()
	if budget <= 0 {
		budget = time.Millisecond
	}
	arrivals := 0
	opts := core.RetrieveOptions{
		Deadline:          budget,
		Progress:          func(done, total int) { arrivals++ },
		OutstandingChunks: s.window,
	}
	s.cons.RetrieveWithOptions(s.items[seg], opts, func(r core.RetrievalResult) {
		s.finish(seg, arrivals, r)
	})
}

func (s *StreamSession) finish(seg, arrivals int, r core.RetrievalResult) {
	now := s.clk.Now()
	s.inFlight--
	s.resolved++

	// Byte attribution: chunks the progress callback never reported
	// were already held locally (cached from relaying/overhearing);
	// the rest travelled the P2P plane.
	delivered := 0
	total := r.Item.TotalChunks()
	for c := 0; c < total; c++ {
		delivered += len(r.Chunks[c])
	}
	localChunks := len(r.Chunks) - arrivals
	if localChunks < 0 {
		localChunks = 0
	}
	localBytes := localChunks * s.spec.ChunkBytes
	if localBytes > delivered {
		localBytes = delivered
	}
	s.localB += uint64(localBytes)
	s.p2pB += uint64(delivered - localBytes)

	if r.Complete {
		s.complete++
		s.roundsSum += r.Rounds
		s.lat.AddDuration(now - s.publishedAt[seg])
		for _, st := range s.play.SegmentReady(seg, now) {
			s.tr.Stall(st.Segment, st.Duration, s.name)
			s.tr.SegmentDeadlineMiss(st.Segment, st.Duration, s.name)
		}
	} else {
		// Lateness 0 marks a segment that never became playable.
		s.tr.SegmentDeadlineMiss(seg, 0, s.name)
	}
	s.topUp()
}

// Done reports whether every segment's retrieval has resolved
// (complete or failed).
func (s *StreamSession) Done() bool { return s.resolved == s.spec.Segments }

// Result finalizes the playback model at the current clock time and
// returns the session's QoE account. Call once, after Done() (or after
// the session budget elapsed).
func (s *StreamSession) Result() StreamResult {
	rep := s.play.Finalize(s.clk.Now())
	q := rep.Counters(&s.lat)
	q.LocalBytes = s.localB
	q.P2PBytes = s.p2pB
	out := StreamResult{Report: rep, QoE: q, SegmentsComplete: s.complete}
	if s.complete > 0 {
		out.Rounds = float64(s.roundsSum) / float64(s.complete)
		out.MeanLatency = time.Duration(s.lat.Mean() * float64(time.Second))
	}
	return out
}
