package link

import (
	"fmt"
	"testing"
	"time"

	"pds/internal/wire"
)

// rxLoad feeds a link distinct overheard frames (no ack, nothing handed
// down) at a steady rate of `window` frames per DedupRetention, so the
// dedup window holds that many live ids once it has filled: what
// HandleIncoming costs per frame at a given window size, and nothing
// else.
type rxLoad struct {
	clk  *manualClock
	lk   *Link
	msg  *wire.Message
	step time.Duration
}

func newRxLoad(window int) *rxLoad {
	cfg := testConfig()
	ld := &rxLoad{
		clk:  &manualClock{},
		step: cfg.DedupRetention / time.Duration(window),
		msg:  dedupFrame(0, kindOverheard),
	}
	ld.lk = New(ld.clk, 1, func(*wire.Message) bool { return true }, cfg)
	ld.run(window + window/2) // past the first rotation
	return ld
}

// run delivers n further frames. The one message is re-stamped for each:
// the link keeps no reference to a frame it hands up.
func (ld *rxLoad) run(n int) {
	for i := 0; i < n; i++ {
		ld.clk.now += ld.step
		ld.msg.TransmitID++
		if ld.lk.HandleIncoming(ld.msg) == nil {
			panic("fresh frame suppressed")
		}
	}
}

func BenchmarkHandleIncoming(b *testing.B) {
	for _, window := range []int{1 << 10, 16 << 10, 128 << 10} {
		b.Run(fmt.Sprintf("window=%dk", window>>10), func(b *testing.B) {
			ld := newRxLoad(window)
			b.ReportAllocs()
			b.ResetTimer()
			ld.run(b.N)
		})
	}
}

// TestHandleIncomingCostIndependentOfWindow is the scaling guard: a
// frame arriving at a window of 128 k ids may cost at most ten times
// one arriving at a window of 1 k (cache misses in a larger map are
// allowed for; a walk of the map is not — the sweep this replaced was
// more than a hundred times slower at 128 k than at 1 k).
func TestHandleIncomingCostIndependentOfWindow(t *testing.T) {
	const frames = 20000
	perFrame := func(window int) time.Duration {
		ld := newRxLoad(window)
		best := time.Duration(1 << 62)
		for round := 0; round < 5; round++ {
			start := time.Now()
			ld.run(frames)
			best = min(best, time.Since(start))
		}
		return best / frames
	}
	small, large := perFrame(1<<10), perFrame(128<<10)
	t.Logf("HandleIncoming: %v per frame at 1k ids in the window, %v at 128k", small, large)
	if large > 10*max(small, 20*time.Nanosecond) {
		t.Fatalf("a frame costs %v with 128k ids in the dedup window and %v with 1k: the receive path scales with the window", large, small)
	}
}

// TestDuplicateVerdictDoesNotAllocate pins the cheapest and most common
// outcome on a busy mesh: an overheard frame seen before is dropped
// without allocating.
func TestDuplicateVerdictDoesNotAllocate(t *testing.T) {
	ld := newRxLoad(1 << 10)
	if allocs := testing.AllocsPerRun(1000, func() {
		if ld.lk.HandleIncoming(ld.msg) != nil {
			panic("duplicate handed up")
		}
	}); allocs != 0 {
		t.Fatalf("a duplicate overheard frame costs %v allocations, want 0", allocs)
	}
}
