package core

import (
	"fmt"
	"testing"
	"time"

	"pds/internal/attr"
	"pds/internal/wire"
)

// settleItem is a four-chunk item published whole on the producer.
func settleItem(h *harness, producer wire.NodeID, name string) attr.Descriptor {
	item := attr.NewDescriptor().
		Set(attr.AttrNamespace, attr.String("media")).
		Set(attr.AttrName, attr.String(name)).
		Set(attr.AttrTotalChunks, attr.Int(4))
	for c := 0; c < 4; c++ {
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
	item := settleItem(h, 2, "clip")
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
		t.Fatalf("phase 1 took %v; the covering CDI landed at %v (RoundCheck %v)", res.CDILatency, arrived, cfg.RoundCheck)
	}
}

// TestJitteredRoundsSettleOnTicks pins the simulator's instants: with the
// default spread (ResponseJitterMax = RoundCheck), phase 1 is decided on
// RoundCheck ticks only, however far the covering answers travel. Three
// corners of a 5×5 grid each fetch their own item from the fourth,
// starting off each other's tick grid; some first hear of their item
// after their round's first tick and between two ticks, which a round
// that settled on arrival would show.
func TestJitteredRoundsSettleOnTicks(t *testing.T) {
	cfg := DefaultConfig()
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

	consumers := []wire.NodeID{1, side, side*side - side + 1}
	items := map[wire.NodeID]string{} // the key of each consumer's item
	start := map[wire.NodeID]time.Duration{}
	heard := map[wire.NodeID]time.Duration{} // since start, the first CDI answer about its item
	results := map[wire.NodeID]RetrievalResult{}
	h.taps = append(h.taps, func(from, to wire.NodeID, msg *wire.Message) {
		s, ok := start[to]
		if _, seen := heard[to]; ok && !seen && msg.Type == wire.TypeResponse && msg.Response.Kind == wire.KindCDI &&
			msg.Response.Item.Key() == items[to] {
			heard[to] = h.eng.Now() - s
		}
	})
	for i, c := range consumers {
		item := settleItem(h, side*side, fmt.Sprintf("clip-%d", c))
		items[c] = item.Key()
		h.eng.Schedule(time.Duration(i)*37*time.Millisecond, func() {
			start[c] = h.eng.Now()
			h.nodes[c].Retrieve(item, func(r RetrievalResult) { results[c] = r })
		})
	}
	h.run(2 * time.Minute)
	late := 0
	for _, c := range consumers {
		r, ok := results[c]
		if !ok || !r.Complete {
			t.Fatalf("consumer %d: finished %v, complete %v", c, ok, r.Complete)
		}
		if r.CDILatency <= 0 || r.CDILatency%cfg.RoundCheck != 0 {
			t.Errorf("consumer %d: phase 1 took %v, not a whole number of %v ticks (first CDI answer after %v)",
				c, r.CDILatency, cfg.RoundCheck, heard[c])
		}
		if d := heard[c]; d > cfg.RoundCheck && d%cfg.RoundCheck != 0 {
			late++
		}
	}
	if late == 0 {
		t.Fatalf("every consumer heard its first CDI answer by its first tick (%v); the test compared nothing", heard)
	}
}
