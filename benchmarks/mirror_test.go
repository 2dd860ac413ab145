package main

import (
	"testing"
	"time"

	"pds/internal/core"
	"pds/internal/scenario"
	"pds/internal/wire"
)

// driveSmallGrid publishes a small catalog and runs two simultaneous
// discoveries followed by a chunked retrieval — enough to cross every
// seam the mirror wraps (timers, rx, tx, raw send, transmit notify,
// fragmentation). It returns the recall numerator.
func driveSmallGrid(t *testing.T, net *simNet) (entries, chunks int) {
	t.Helper()
	const catalog = 40
	net.api(0, func() {
		for i := 0; i < catalog; i++ {
			net.peers[wire.NodeID(1+i%len(net.ids))].node.PublishEntry(scenario.EntryDescriptor(i))
		}
	})
	pending := 2
	for i, c := range []wire.NodeID{1, 9} {
		net.issue(c, int32(i+1), func() {
			net.peers[c].node.Discover(scenario.EntrySelector(), core.DiscoverOptions{}, func(r core.DiscoveryResult) {
				entries += len(r.Entries)
				pending--
				net.endOp(c)
			})
		})
	}
	net.eng.RunUntil(net.eng.Now()+5*time.Minute, func() bool { return pending == 0 })
	if pending != 0 {
		t.Fatal("discoveries did not finish")
	}

	item := scenario.ItemDescriptor("clip", 96<<10, 32<<10)
	payload := make([]byte, 32<<10)
	net.api(0, func() {
		for c := 0; c < item.TotalChunks(); c++ {
			net.peers[wire.NodeID(2+c)].node.PublishChunk(item, c, payload)
		}
	})
	done := false
	net.api(3, func() {
		net.peers[7].node.Retrieve(item, func(r core.RetrievalResult) {
			chunks = len(r.Chunks)
			done = true
		})
	})
	net.eng.RunUntil(net.eng.Now()+10*time.Minute, func() bool { return done })
	if !done {
		t.Fatal("retrieval did not finish")
	}
	return entries, chunks
}

// The traced mirror must be the production wiring with spans added and
// nothing else: same events, same bytes on air, same results.
func TestMirrorMatchesScenarioGrid(t *testing.T) {
	const seed = 42
	prod := viewOf(scenario.Grid(3, 3, scenario.GridSpacing, scenario.Options{Seed: seed}))
	prodEntries, prodChunks := driveSmallGrid(t, prod)

	tr := newTracer()
	mirror := mirrorGrid(3, 3, scenario.GridSpacing, seed, tr)
	mirEntries, mirChunks := driveSmallGrid(t, mirror)

	if prodEntries != mirEntries || prodChunks != mirChunks {
		t.Errorf("recall differs: production %d entries/%d chunks, mirror %d/%d", prodEntries, prodChunks, mirEntries, mirChunks)
	}
	if prodEntries != 2*40 || prodChunks != 3 {
		t.Errorf("production run found %d entries and %d chunks, want 80 and 3", prodEntries, prodChunks)
	}
	pc, mc := simCounters(prod), simCounters(mirror)
	for _, k := range []string{"sim.events", "radio.tx_bytes"} {
		if pc[k] == 0 {
			t.Errorf("%s is zero in the production run", k)
		}
	}
	for k, v := range pc {
		if mc[k] != v {
			t.Errorf("%s: production %v, mirror %v", k, v, mc[k])
		}
	}
	if prod.eng.Now() != mirror.eng.Now() {
		t.Errorf("simulated clocks differ: %v vs %v", prod.eng.Now(), mirror.eng.Now())
	}

	// Every seam fired, every span closed, and the timers the mirror
	// counted went through the engine.
	for _, k := range []spanKind{spanCoreAPI, spanCoreRx, spanCoreTimer, spanLinkRx, spanLinkTx, spanLinkNotify, spanRadioSend} {
		if tr.sink.agg[k].Count == 0 {
			t.Errorf("no %s span recorded", spanNames[k])
		}
	}
	if len(tr.stack) != 0 {
		t.Errorf("%d spans left open", len(tr.stack))
	}
	if timers := tr.sink.agg[spanCoreTimer].Count + tr.sink.agg[spanLinkTimer].Count; float64(timers) >= mc["sim.events"] {
		t.Errorf("%d timer spans out of %v engine events", timers, mc["sim.events"])
	}
	if len(tr.cap.msgs) == 0 || len(tr.cap.delays) == 0 {
		t.Errorf("replay capture is empty: %d messages, %d delays", len(tr.cap.msgs), len(tr.cap.delays))
	}
}

// The replays must fill their metrics from a real capture.
func TestReplaysFromCapture(t *testing.T) {
	tr := newTracer()
	driveSmallGrid(t, mirrorGrid(3, 3, scenario.GridSpacing, 7, tr))
	m := map[string]float64{}
	replayWire(tr.cap.msgs, m)
	replaySched(tr.cap.delays, m)
	replayStore(40, scenario.EntrySelector(), m)
	for _, k := range []string{
		"wire.msgs", "wire.bytes_per_msg", "wire.encode_ns_per_msg", "wire.decode_ns_per_msg",
		"wire.decode_allocs_per_msg", "sim.sched_ns_per_event", "store.match_us", "store.put_cached_ns",
	} {
		if m[k] <= 0 {
			t.Errorf("%s = %v, want > 0", k, m[k])
		}
	}
}
