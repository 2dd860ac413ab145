package qoe

import (
	"math"
	"testing"
	"time"

	"pds/internal/metrics"
)

const seg = 6 * time.Second

func TestSmoothPlayback(t *testing.T) {
	p := NewPlayback(3, seg, 0)
	// Segment 0 at t=2s, the rest always ahead of the playhead.
	if st := p.SegmentReady(0, 2*time.Second); len(st) != 0 {
		t.Fatalf("unexpected stalls: %v", st)
	}
	p.SegmentReady(1, 4*time.Second)
	p.SegmentReady(2, 6*time.Second)
	rep := p.Finalize(30 * time.Second)
	if rep.StartupDelay != 2*time.Second {
		t.Fatalf("startup = %v", rep.StartupDelay)
	}
	if len(rep.Stalls) != 0 || rep.StallTime != 0 || rep.RebufferRatio != 0 {
		t.Fatalf("smooth playback stalled: %+v", rep)
	}
	if rep.SegmentsPlayed != 3 || rep.SegmentsMissed != 0 {
		t.Fatalf("segments = %+v", rep)
	}
	if rep.PlayedTime != 18*time.Second {
		t.Fatalf("played = %v", rep.PlayedTime)
	}
}

func TestStallChargedOnLateSegment(t *testing.T) {
	p := NewPlayback(2, seg, 0)
	p.SegmentReady(0, 1*time.Second) // plays 1s..7s
	// Segment 1 arrives at 10s: 3s past the 7s deadline.
	st := p.SegmentReady(1, 10*time.Second)
	if len(st) != 1 || st[0].Segment != 1 || st[0].Duration != 3*time.Second {
		t.Fatalf("stall = %+v", st)
	}
	rep := p.Finalize(20 * time.Second)
	if rep.StallTime != 3*time.Second || len(rep.Stalls) != 1 {
		t.Fatalf("report stalls = %+v", rep)
	}
	want := float64(3*time.Second) / float64(3*time.Second+12*time.Second)
	if math.Abs(rep.RebufferRatio-want) > 1e-9 {
		t.Fatalf("rebuffer = %v want %v", rep.RebufferRatio, want)
	}
}

func TestOutOfOrderBuffering(t *testing.T) {
	p := NewPlayback(3, seg, 0)
	// 1 and 2 arrive before 0: they buffer, nothing plays.
	p.SegmentReady(2, 1*time.Second)
	p.SegmentReady(1, 2*time.Second)
	if p.Started() || p.Committed() != 0 {
		t.Fatalf("playback started before segment 0")
	}
	// 0 arrives: all three commit, no stall (1 and 2 were buffered).
	if st := p.SegmentReady(0, 5*time.Second); len(st) != 0 {
		t.Fatalf("buffered commit stalled: %v", st)
	}
	if p.Committed() != 3 {
		t.Fatalf("committed = %d", p.Committed())
	}
	rep := p.Finalize(60 * time.Second)
	if rep.StartupDelay != 5*time.Second || rep.StallTime != 0 {
		t.Fatalf("report = %+v", rep)
	}
}

func TestMissingTailChargedAsStall(t *testing.T) {
	p := NewPlayback(3, seg, 0)
	p.SegmentReady(0, 2*time.Second) // plays 2s..8s
	rep := p.Finalize(20 * time.Second)
	if rep.SegmentsPlayed != 1 || rep.SegmentsMissed != 2 {
		t.Fatalf("segments = %+v", rep)
	}
	// Tail wait: playhead parked at 8s, session ends at 20s -> 12s stall.
	if rep.StallTime != 12*time.Second {
		t.Fatalf("tail stall = %v", rep.StallTime)
	}
}

func TestNothingArrived(t *testing.T) {
	p := NewPlayback(2, seg, 3*time.Second)
	rep := p.Finalize(13 * time.Second)
	if rep.StartupDelay != 0 || rep.SegmentsPlayed != 0 {
		t.Fatalf("report = %+v", rep)
	}
	if rep.StallTime != 10*time.Second || rep.RebufferRatio != 1 {
		t.Fatalf("all-wait session: %+v", rep)
	}
}

func TestDuplicateAndOutOfRangeIgnored(t *testing.T) {
	p := NewPlayback(2, seg, 0)
	p.SegmentReady(0, time.Second)
	p.SegmentReady(0, 2*time.Second) // duplicate
	p.SegmentReady(5, time.Second)   // out of range
	p.SegmentReady(-1, time.Second)
	p.SegmentReady(1, 2*time.Second)
	rep := p.Finalize(20 * time.Second)
	if rep.SegmentsPlayed != 2 || rep.StallTime != 0 {
		t.Fatalf("report = %+v", rep)
	}
}

func TestCounters(t *testing.T) {
	p := NewPlayback(2, seg, 0)
	p.SegmentReady(0, time.Second)
	p.SegmentReady(1, 12*time.Second) // 5s stall (deadline was 7s)
	rep := p.Finalize(20 * time.Second)
	var lat metrics.Pool
	lat.AddDuration(time.Second)
	lat.AddDuration(3 * time.Second)
	q := rep.Counters(&lat)
	if q.StartupDelay != time.Second || q.Stalls != 1 || q.StallTime != 5*time.Second {
		t.Fatalf("counters = %+v", q)
	}
	if q.DeadlineMisses != 1 {
		t.Fatalf("misses = %d", q.DeadlineMisses)
	}
	if q.P50 != 2*time.Second || q.P99 < 2900*time.Millisecond {
		t.Fatalf("percentiles = %+v", q)
	}
	if q.P99Sec == 0 {
		t.Fatalf("seconds mirror not synced")
	}
	if !metrics.Any(q) {
		t.Fatalf("counters should be Any")
	}
}
