package core

import (
	"fmt"
	"testing"
	"time"

	"pds/internal/attr"
	"pds/internal/wire"
)

// settleItem is a four-chunk item whose first held chunks the producer
// publishes.
func settleItem(h *harness, producer wire.NodeID, name string, held int) attr.Descriptor {
	item := attr.NewDescriptor().
		Set(attr.AttrNamespace, attr.String("media")).
		Set(attr.AttrName, attr.String(name)).
		Set(attr.AttrTotalChunks, attr.Int(4))
	for c := 0; c < held; c++ {
		h.nodes[producer].PublishChunk(item, c, []byte{byte(c)})
	}
	return item
}

// TestUnjitteredRoundSettlesOnCoveringCDI: with no response spread to
// wait out, a one-hop retrieval leaves phase 1 the instant the producer's
// CDI answer — which covers every chunk — lands, not on the next
// RoundCheck tick.
func TestUnjitteredRoundSettlesOnCoveringCDI(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ResponseJitterMax = 0
	h := newHarness(t, cfg, 1, 2)
	h.line(1, 2)
	item := settleItem(h, 2, "clip", 4)
	arrived := time.Duration(-1)
	h.taps = append(h.taps, func(from, to wire.NodeID, msg *wire.Message) {
		if to == 1 && arrived < 0 && msg.Type == wire.TypeResponse && msg.Response.Kind == wire.KindCDI {
			arrived = h.eng.Now()
		}
	})
	var res RetrievalResult
	h.nodes[1].Retrieve(item, func(r RetrievalResult) { res = r })
	h.run(time.Minute)
	if !res.Complete {
		t.Fatalf("retrieval incomplete: %d of 4 chunks", len(res.Chunks))
	}
	if arrived < 0 {
		t.Fatal("no CDI response reached the consumer")
	}
	if res.CDILatency != arrived {
		t.Fatalf("phase 1 took %v; the covering CDI landed at %v (RoundCheck %v)", res.CDILatency, arrived, RoundCheck)
	}
}

// cornerRun is one consumer's view of a cornerRetrievals run: when its
// retrieval began, the CDI answers about its item it heard (since that
// start, in arrival order, with their chunk ids), and its result.
type cornerRun struct {
	start  time.Duration
	heard  []time.Duration
	chunks [][]int
	result RetrievalResult
	done   bool
}

// coveredAt is when, since the start, the answers heard had first named
// every one of total chunks; false if they never did.
func (c *cornerRun) coveredAt(total int) (time.Duration, bool) {
	named := map[int]bool{}
	for i, ids := range c.chunks {
		for _, id := range ids {
			named[id] = true
		}
		if len(named) == total {
			return c.heard[i], true
		}
	}
	return 0, false
}

// cornerRetrievals runs three corners of a 5×5 grid at the default
// spread, each fetching its own four-chunk item from the fourth corner,
// which holds the first `held` chunks of each. The consumers start 37 ms
// apart, off each other's RoundCheck grid.
func cornerRetrievals(t *testing.T, cfg Config, held int) map[wire.NodeID]*cornerRun {
	const side = 5
	ids := make([]wire.NodeID, 0, side*side)
	for i := 1; i <= side*side; i++ {
		ids = append(ids, wire.NodeID(i))
	}
	h := newHarness(t, cfg, ids...)
	h.links = make(map[[2]wire.NodeID]bool)
	for i := 0; i < side*side; i++ {
		a := wire.NodeID(i + 1)
		if i%side+1 < side {
			h.links[[2]wire.NodeID{a, a + 1}], h.links[[2]wire.NodeID{a + 1, a}] = true, true
		}
		if i+side < side*side {
			h.links[[2]wire.NodeID{a, a + side}], h.links[[2]wire.NodeID{a + side, a}] = true, true
		}
	}

	runs := map[wire.NodeID]*cornerRun{}
	items := map[wire.NodeID]string{} // the key of each consumer's item
	h.taps = append(h.taps, func(from, to wire.NodeID, msg *wire.Message) {
		c, ok := runs[to]
		if !ok || c.done || msg.Type != wire.TypeResponse || msg.Response.Kind != wire.KindCDI ||
			msg.Response.Item.Key() != items[to] {
			return
		}
		var named []int
		for _, p := range msg.Response.CDI {
			named = append(named, p.ChunkID)
		}
		c.heard, c.chunks = append(c.heard, h.eng.Now()-c.start), append(c.chunks, named)
	})
	for i, c := range []wire.NodeID{1, side, side*side - side + 1} {
		item := settleItem(h, side*side, fmt.Sprintf("clip-%d", c), held)
		items[c] = item.Key()
		h.eng.Schedule(time.Duration(i)*37*time.Millisecond, func() {
			run := &cornerRun{start: h.eng.Now()}
			runs[c] = run
			h.nodes[c].Retrieve(item, func(r RetrievalResult) { run.result, run.done = r, true })
		})
	}
	h.run(2 * time.Minute)
	for c, run := range runs {
		if !run.done {
			t.Fatalf("consumer %d never finished", c)
		}
	}
	return runs
}

// TestJitteredRoundsSettleOnArrival: with the default spread, a round
// leaves phase 1 as the CDI answer that completes its picture of the
// item lands, once one ResponseJitterMax has passed since its query —
// not on the next RoundCheck tick. Some consumer must hear that answer
// between two ticks after its first, where a tick-decided round would
// show.
func TestJitteredRoundsSettleOnArrival(t *testing.T) {
	cfg := DefaultConfig()
	late := 0
	for c, run := range cornerRetrievals(t, cfg, 4) {
		if !run.result.Complete {
			t.Fatalf("consumer %d: retrieval incomplete", c)
		}
		covered, ok := run.coveredAt(4)
		if !ok {
			t.Fatalf("consumer %d: CDI answers %v never named every chunk", c, run.chunks)
		}
		if want := max(covered, cfg.ResponseJitterMax); run.result.CDILatency != want {
			t.Errorf("consumer %d: phase 1 took %v; the covering CDI landed after %v, the spread is %v",
				c, run.result.CDILatency, covered, cfg.ResponseJitterMax)
		}
		if covered > RoundCheck && covered%RoundCheck != 0 {
			late++
		}
	}
	if late == 0 {
		t.Fatal("every consumer's covering CDI landed by its first tick or on a tick; the test compared nothing")
	}
}

// TestJitteredRoundsSettleOnTicks pins what is still decided on the
// RoundCheck poll: a round whose CDI never covers every chunk — the
// producer holds three of four — enters phase 2 on partial knowledge
// once CDI has been quiet for cdiWindow, and only a tick can find that.
// Some consumer hears CDI in phase 1 between two ticks after its first,
// so a quiet window counted from an arrival would fall off the grid.
func TestJitteredRoundsSettleOnTicks(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RetrievalRounds = 1 // phase 2's watchdog ends the session instead of re-flooding
	late := 0
	for c, run := range cornerRetrievals(t, cfg, 3) {
		if r := run.result; r.Complete || len(r.Chunks) != 3 {
			t.Fatalf("consumer %d: complete %v with %d chunks, want the 3 the producer holds", c, r.Complete, len(r.Chunks))
		}
		if _, ok := run.coveredAt(4); ok {
			t.Fatalf("consumer %d: CDI answers %v named a chunk nobody holds", c, run.chunks)
		}
		lat := run.result.CDILatency
		if lat < cdiWindow || lat%RoundCheck != 0 {
			t.Errorf("consumer %d: phase 1 took %v, not a whole number of %v ticks past the %v quiet window (CDI heard after %v)",
				c, lat, RoundCheck, cdiWindow, run.heard)
		}
		for _, d := range run.heard {
			if d > RoundCheck && d < lat && d%RoundCheck != 0 {
				late++
				break
			}
		}
	}
	if late == 0 {
		t.Fatal("every consumer heard its CDI by its first tick or on a tick; the test compared nothing")
	}
}
