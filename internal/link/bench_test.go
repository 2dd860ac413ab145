package link

import (
	"testing"
	"time"

	"pds/internal/wire"
)

// rxLoad feeds a link distinct overheard frames (no ack, nothing handed
// down) at a steady rate of `window` frames per DedupRetention, taking
// the senders in turn, each seq `stride` past the sender's last (a
// stride of 2 leaves the holes of the acks a sender sends elsewhere):
// what HandleIncoming costs per frame at a given shape of the dedup
// windows, and nothing else.
type rxLoad struct {
	clk    *manualClock
	lk     *Link
	msg    *wire.Message
	step   time.Duration
	seqs   []uint64 // each sender's last seq
	stride uint64
	frames int
}

func newRxLoad(window, senders int, stride uint64) *rxLoad {
	cfg := testConfig()
	ld := &rxLoad{
		clk:    &manualClock{},
		step:   cfg.DedupRetention / time.Duration(window),
		msg:    dedupFrame(0, kindOverheard),
		seqs:   make([]uint64, senders),
		stride: stride,
	}
	ld.lk = New(ld.clk, 1, func(*wire.Message) bool { return true }, cfg)
	ld.run(3 * window) // past the first sweeps
	return ld
}

// run delivers n further frames. The one message is re-stamped for each:
// the link keeps no reference to a frame it hands up.
func (ld *rxLoad) run(n int) {
	for range n {
		ld.clk.now += ld.step
		s := ld.frames % len(ld.seqs)
		ld.frames++
		ld.seqs[s] += ld.stride
		ld.msg.TransmitID = wire.NewTransmitID(wire.NodeID(100+s), ld.seqs[s])
		if ld.lk.HandleIncoming(ld.msg) == nil {
			panic("fresh frame suppressed")
		}
	}
}

// rxShapes are the benchmarked loads: one sender's window at three
// sizes; eight interleaved senders with ack holes, the bulk's shape; and
// a thousand senders heard once a retention each, the city's.
var rxShapes = []struct {
	name            string
	window, senders int
	stride          uint64
}{
	{"window=1k", 1 << 10, 1, 1},
	{"window=16k", 16 << 10, 1, 1},
	{"window=128k", 128 << 10, 1, 1},
	{"senders=8", 16 << 10, 8, 2},
	{"senders=1k", 1 << 10, 1 << 10, 1},
}

func BenchmarkHandleIncoming(b *testing.B) {
	for _, sh := range rxShapes {
		b.Run(sh.name, func(b *testing.B) {
			ld := newRxLoad(sh.window, sh.senders, sh.stride)
			b.ReportAllocs()
			b.ResetTimer()
			ld.run(b.N)
		})
	}
}

// TestHandleIncomingCostIndependentOfWindow is the scaling guard: a
// frame arriving at a window of 128 k ids may cost at most ten times
// one arriving at a window of 1 k (cache misses in a larger window are
// allowed for; a walk of it is not — the sweep the windows replaced was
// more than a hundred times slower at 128 k than at 1 k), and one
// arriving among a thousand senders at most ten times one among eight.
func TestHandleIncomingCostIndependentOfWindow(t *testing.T) {
	const frames = 20000
	perFrame := func(window, senders int, stride uint64) time.Duration {
		ld := newRxLoad(window, senders, stride)
		best := time.Duration(1 << 62)
		for round := 0; round < 5; round++ {
			start := time.Now()
			ld.run(frames)
			best = min(best, time.Since(start))
		}
		return best / frames
	}
	small, large := perFrame(1<<10, 1, 1), perFrame(128<<10, 1, 1)
	t.Logf("HandleIncoming: %v per frame at 1k ids in the window, %v at 128k", small, large)
	if large > 10*max(small, 20*time.Nanosecond) {
		t.Fatalf("a frame costs %v with 128k ids in the dedup window and %v with 1k: the receive path scales with the window", large, small)
	}
	few, many := perFrame(16<<10, 8, 2), perFrame(1<<10, 1<<10, 1)
	t.Logf("HandleIncoming: %v per frame among 8 senders, %v among 1k", few, many)
	if many > 10*max(few, 20*time.Nanosecond) {
		t.Fatalf("a frame costs %v among 1k senders and %v among 8: the receive path scales with the senders", many, few)
	}
}

// TestDuplicateVerdictDoesNotAllocate pins the cheapest and most common
// outcome on a busy mesh: an overheard frame seen before is dropped
// without allocating.
func TestDuplicateVerdictDoesNotAllocate(t *testing.T) {
	ld := newRxLoad(1<<10, 1, 1)
	if allocs := testing.AllocsPerRun(1000, func() {
		if ld.lk.HandleIncoming(ld.msg) != nil {
			panic("duplicate handed up")
		}
	}); allocs != 0 {
		t.Fatalf("a duplicate overheard frame costs %v allocations, want 0", allocs)
	}
}

// TestWarmStreamDoesNotAllocate: once its windows have grown, an
// in-order stream from eight senders with ack holes is accepted frame
// after frame, across several retentions and their sweeps, without
// allocating.
func TestWarmStreamDoesNotAllocate(t *testing.T) {
	const window = 4 << 10
	ld := newRxLoad(window, 8, 2)
	if allocs := testing.AllocsPerRun(5, func() { ld.run(window) }); allocs != 0 {
		t.Fatalf("%d frames from eight senders (a retention) cost %v allocations, want 0", window, allocs)
	}
}
