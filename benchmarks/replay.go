package main

import (
	"runtime"
	"time"

	"pds/internal/attr"
	"pds/internal/clock"
	"pds/internal/link"
	"pds/internal/scenario"
	"pds/internal/sim"
	"pds/internal/store"
	"pds/internal/wire"
)

// The replays time one layer's public functions on inputs captured
// from the traced pass, outside the running system: what a call costs,
// free of everything around it.

// replayRounds repeats each replay and keeps the fastest round, the
// usual guard against a preempted measurement.
const replayRounds = 5

func fastest(rounds int, fn func() time.Duration) time.Duration {
	best := time.Duration(0)
	for i := 0; i < rounds; i++ {
		if d := fn(); i == 0 || d < best {
			best = d
		}
	}
	return best
}

// replayWire encodes and decodes every captured logical message
// through wire.AppendEncode / wire.Decode.
func replayWire(msgs []*wire.Message, out map[string]float64) {
	out["wire.msgs"] = float64(len(msgs))
	if len(msgs) == 0 {
		return
	}
	encoded := make([][]byte, len(msgs))
	var bytesTotal int
	var buf []byte
	enc := fastest(replayRounds, func() time.Duration {
		start := time.Now()
		for _, m := range msgs {
			b, err := wire.AppendEncode(buf[:0], m)
			if err != nil {
				continue // virtual fragments are not captured; nothing else fails to encode
			}
			buf = b
		}
		return time.Since(start)
	})
	for i, m := range msgs {
		b, err := wire.Encode(m)
		if err != nil {
			continue
		}
		encoded[i] = b
		bytesTotal += len(b)
	}
	var ms0, ms1 runtime.MemStats
	var mallocs uint64
	dec := fastest(replayRounds, func() time.Duration {
		runtime.ReadMemStats(&ms0)
		start := time.Now()
		for _, b := range encoded {
			if b != nil {
				_, _ = wire.Decode(b) // bytes we just encoded; decode errors cannot occur
			}
		}
		d := time.Since(start)
		runtime.ReadMemStats(&ms1)
		mallocs = ms1.Mallocs - ms0.Mallocs
		return d
	})
	n := float64(len(msgs))
	out["wire.bytes_per_msg"] = float64(bytesTotal) / n
	out["wire.encode_ns_per_msg"] = float64(enc.Nanoseconds()) / n
	out["wire.decode_ns_per_msg"] = float64(dec.Nanoseconds()) / n
	out["wire.decode_allocs_per_msg"] = float64(mallocs) / n
}

// replayStore times DataStore.Match and DataStore.PutCached on a store
// filled to the workload's per-node entry count with its selector.
func replayStore(entries int, sel attr.Query, out map[string]float64) {
	if entries < 1 {
		entries = 1
	}
	descs := make([]attr.Descriptor, entries)
	for i := range descs {
		descs[i] = scenario.EntryDescriptor(i)
	}
	const expire = time.Hour
	filled := store.NewDataStore(0)
	for _, d := range descs {
		filled.PutCached(d, expire)
	}
	const matches = 50
	match := fastest(replayRounds, func() time.Duration {
		start := time.Now()
		for i := 0; i < matches; i++ {
			_ = filled.Match(sel, time.Minute)
		}
		return time.Since(start)
	})
	put := fastest(replayRounds, func() time.Duration {
		ds := store.NewDataStore(0)
		start := time.Now()
		for _, d := range descs {
			ds.PutCached(d, expire)
		}
		return time.Since(start)
	})
	out["store.match_us"] = float64(match.Nanoseconds()) / matches / 1e3
	out["store.put_cached_ns"] = float64(put.Nanoseconds()) / float64(entries)
}

// replaySched schedules empty callbacks at the captured delay mix on a
// fresh engine and runs them: the wheel's own cost per event.
func replaySched(delays []time.Duration, out map[string]float64) {
	if len(delays) == 0 {
		return
	}
	nop := func() {}
	d := fastest(replayRounds, func() time.Duration {
		eng := sim.NewEngine(1)
		start := time.Now()
		for _, delay := range delays {
			eng.Schedule(delay, nop)
		}
		eng.Run(24 * time.Hour)
		return time.Since(start)
	})
	out["sim.sched_ns_per_event"] = float64(d.Nanoseconds()) / float64(len(delays))
}

// replayClock feeds a replayed link the arrival time of the frame it
// is handling, so the dedup window and reassembly table age exactly as
// they did live. Timers armed during the replay (jittered acks) never
// fire: their cost belongs to link.timer, not link.rx.
type replayClock struct{ now time.Duration }

var _ clock.Clock = (*replayClock)(nil)

func (c *replayClock) Now() time.Duration { return c.now }
func (c *replayClock) Schedule(time.Duration, func()) (cancel func()) {
	return func() {}
}

// replayLinkRx runs every frame each live node received through a
// fresh link.Link's HandleIncoming, in arrival order and at its
// recorded arrival time. pds.Node keeps its link private, so this is
// the only outside-in way to split link's receive cost out of pds.rx.
// It returns the replayed links' summed counters.
func replayLinkRx(inbound [][]rxSample, cfg link.Config, out map[string]float64) {
	var total time.Duration
	var ls link.Stats
	for node, samples := range inbound {
		clk := &replayClock{}
		lk := link.New(clk, wire.NodeID(node+1), func(*wire.Message) bool { return true }, cfg)
		start := time.Now()
		for _, s := range samples {
			clk.now = s.at
			lk.HandleIncoming(s.msg)
		}
		total += time.Since(start)
		st := lk.Stats()
		ls.AcksSent += st.AcksSent
		ls.DupDropped += st.DupDropped
		ls.Reassembled += st.Reassembled
	}
	out["link.rx_self_ms"] = float64(total.Nanoseconds()) / 1e6
	out["link.acks_sent"] = float64(ls.AcksSent)
	out["link.dup_dropped"] = float64(ls.DupDropped)
	out["link.reassembled"] = float64(ls.Reassembled)
}
