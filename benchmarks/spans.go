package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math/bits"
	"os"
	"path/filepath"
	"sync"
	"time"

	"pds/internal/wire"
)

// spanKind names one seam the traced run wraps. A span is one call
// across that seam; nesting follows the call stack (an engine event
// enters link.rx, which enters core.rx, which enters link.tx, which
// enters radio.send), so a layer's self time is its span's duration
// minus the time its child spans cover.
type spanKind uint8

const (
	spanCoreAPI      spanKind = iota // driver → core: Discover/Retrieve/Publish*
	spanCoreRx                       // link → core.HandleMessage / OnSendFailure
	spanCoreTimer                    // a timer callback fired through core's clock
	spanLinkRx                       // medium → link.HandleIncoming
	spanLinkTx                       // core → link.Send
	spanLinkTimer                    // a timer callback fired through link's clock
	spanLinkNotify                   // radio → link.NotifyTransmitted
	spanRadioSend                    // link → radio.Send (link's raw sender)
	spanRadioSetPos                  // mobility loop → Medium.SetPositions
	spanMobilityStep                 // mobility loop → Waypoint.Step
	spanFaceSend                     // pds.Node → Transport.Send (live)
	spanPdsRx                        // Transport → pds.Node receiver callback (live)
	numSpanKinds
)

var spanNames = [numSpanKinds]string{
	"core.api", "core.rx", "core.timer",
	"link.rx", "link.tx", "link.timer", "link.notify",
	"radio.send", "radio.set_positions", "mobility.step",
	"face.send", "pds.rx",
}

// histBuckets log2 buckets cover 1 ns … ~18 min.
const histBuckets = 40

// spanAgg is the in-memory aggregate kept per span name.
type spanAgg struct {
	Count   uint64              `json:"count"`
	TotalNs int64               `json:"total_ns"`
	SelfNs  int64               `json:"self_ns"`
	Hist    [histBuckets]uint64 `json:"hist_log2_ns"`
}

// spanRecord is one fully recorded span. Only the first
// maxSpanRecords spans of a traced pass are kept this way.
type spanRecord struct {
	ID      uint32 `json:"id"`
	Parent  uint32 `json:"parent"` // 0 = root
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	Op      int32  `json:"op"` // 0 = not attributable to one op (shared traffic)
}

const maxSpanRecords = 50000

// spanSink accumulates finished spans. It is not synchronized: the
// simulator is single-goroutine, and the live tracer serializes access
// with its own mutex.
type spanSink struct {
	agg     [numSpanKinds]spanAgg
	rootNs  int64 // Σ duration of spans without a parent
	records []spanRecord
	nextID  uint32
}

func (s *spanSink) newID() uint32 {
	s.nextID++
	return s.nextID
}

func (s *spanSink) finish(kind spanKind, id, parent uint32, op int32, start, end, child int64) {
	dur := end - start
	a := &s.agg[kind]
	a.Count++
	a.TotalNs += dur
	a.SelfNs += dur - child
	b := 0
	if dur > 0 {
		b = bits.Len64(uint64(dur)) - 1
	}
	if b >= histBuckets {
		b = histBuckets - 1
	}
	a.Hist[b]++
	if parent == 0 {
		s.rootNs += dur
	}
	if id <= maxSpanRecords {
		s.records = append(s.records, spanRecord{
			ID: id, Parent: parent, Name: spanNames[kind], StartNs: start, EndNs: end, Op: op,
		})
	}
}

func (s *spanSink) selfMs(k spanKind) float64 { return float64(s.agg[k].SelfNs) / 1e6 }
func (s *spanSink) count(k spanKind) float64  { return float64(s.agg[k].Count) }

// writeJSONL writes the recorded spans, one JSON object per line.
func (s *spanSink) writeJSONL(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("span dir: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("span file: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range s.records {
		if err := enc.Encode(&s.records[i]); err != nil {
			f.Close()
			return fmt.Errorf("write %s: %w", path, err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}

// Replay capture bounds.
const (
	maxCapturedMsgs   = 10000
	maxCapturedDelays = 200000
)

// capture collects inputs for the outside-in layer replays while a
// traced pass runs: the distinct logical messages handed to the medium
// and the delay mix of every timer armed through a wrapped clock.
type capture struct {
	msgs   []*wire.Message
	wholes map[uint64]struct{} // fragmented messages already captured, by OrigID
	delays []time.Duration
}

// message records one frame crossing the link→medium boundary. A
// fragment stands for its whole message, captured once: that is the
// unit the codec encodes (once, at the sender) and decodes (at every
// reassembly).
func (c *capture) message(m *wire.Message) {
	if len(c.msgs) >= maxCapturedMsgs {
		return
	}
	if m.Type == wire.TypeFragment {
		f := m.Fragment
		if f == nil || f.Whole == nil {
			return
		}
		if c.wholes == nil {
			c.wholes = make(map[uint64]struct{})
		}
		if _, dup := c.wholes[f.OrigID]; dup {
			return
		}
		c.wholes[f.OrigID] = struct{}{}
		m = f.Whole
	}
	c.msgs = append(c.msgs, m)
}

func (c *capture) delay(d time.Duration) {
	if len(c.delays) < maxCapturedDelays {
		c.delays = append(c.delays, d)
	}
}

// openSpan is a span on the simulator tracer's call stack.
type openSpan struct {
	kind   spanKind
	id     uint32
	parent uint32
	op     int32
	start  int64
	child  int64
}

// tracer records spans for a single-goroutine (simulated) pass.
type tracer struct {
	now   func() int64
	sink  spanSink
	stack []openSpan
	// op is the operation the next root span is attributed to; the
	// driver sets it around API calls, receive wrappers set it from the
	// frame's query origin.
	op int32
	// opByNode maps a consumer node id to its in-flight op.
	opByNode map[wire.NodeID]int32
	cap      capture
}

func newTracer() *tracer {
	base := time.Now()
	return &tracer{
		now:      func() int64 { return int64(time.Since(base)) },
		opByNode: make(map[wire.NodeID]int32),
	}
}

func (t *tracer) begin(k spanKind) {
	id := t.sink.newID()
	op, parent := t.op, uint32(0)
	if n := len(t.stack); n > 0 {
		parent, op = t.stack[n-1].id, t.stack[n-1].op
	}
	t.stack = append(t.stack, openSpan{kind: k, id: id, parent: parent, op: op})
	t.stack[len(t.stack)-1].start = t.now()
}

func (t *tracer) end() {
	end := t.now()
	n := len(t.stack) - 1
	s := t.stack[n]
	t.stack = t.stack[:n]
	if n > 0 {
		t.stack[n-1].child += end - s.start
	}
	t.sink.finish(s.kind, s.id, s.parent, s.op, s.start, end, s.child)
}

// opOf attributes a received frame to an op when it carries a query
// whose origin is a consumer with exactly one op in flight; responses
// and acks serve several queries at once (mixedcast) and stay at 0.
func (t *tracer) opOf(m *wire.Message) int32 {
	if m.Type == wire.TypeFragment && m.Fragment != nil && m.Fragment.Whole != nil {
		m = m.Fragment.Whole
	}
	if m.Query == nil {
		return 0
	}
	return t.opByNode[m.Query.Origin]
}

// liveTracer records spans for the multi-goroutine live swarm. Only
// two seams exist there — Transport.Send and the receiver callback —
// so instead of a call stack each node tracks the one receive span
// that may currently be running protocol code.
type liveTracer struct {
	now  func() int64
	mu   sync.Mutex
	sink spanSink
	cap  capture
	// inbound keeps every frame each node received, with its arrival
	// time, for the link receive replay.
	inbound [liveNodes][]rxSample
}

func newLiveTracer() *liveTracer {
	base := time.Now()
	return &liveTracer{now: func() int64 { return int64(time.Since(base)) }}
}
