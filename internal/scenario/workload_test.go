package scenario

import (
	"testing"
	"time"

	"pds/internal/metrics"
	"pds/internal/trace"
	"pds/internal/workload"
)

// quickStream is a reduced spec for fast single-run tests; the figure
// tests below use the real defaults.
func quickStream() workload.StreamSpec {
	return workload.StreamSpec{
		Segments: 4, SegmentDuration: 2 * time.Second, SegmentBytes: 256 << 10,
	}
}

func TestStreamingRunDeterministic(t *testing.T) {
	a := StreamingRun(GridTopology(7, "", ""), quickStream())
	b := StreamingRun(GridTopology(7, "", ""), quickStream())
	if a.Row != b.Row {
		t.Fatalf("same-seed rows differ:\n  %s\n  %s", a.Row, b.Row)
	}
	if a.Sample.QoE == nil || !metrics.Any(*a.Sample.QoE) {
		t.Fatal("streaming sample carries no QoE counters")
	}
	if !a.Done {
		t.Fatalf("streaming run did not resolve: %s", a.Row)
	}
}

func TestFlashCrowdRunDeterministic(t *testing.T) {
	spec := workload.CrowdSpec{Clients: 6, Layers: 2, LayerBytes: 256 << 10}
	a := FlashCrowdRun(GridTopology(7, "", ""), spec)
	b := FlashCrowdRun(GridTopology(7, "", ""), spec)
	if a.Row != b.Row {
		t.Fatalf("same-seed rows differ:\n  %s\n  %s", a.Row, b.Row)
	}
	if a.Sample.QoE == nil || !metrics.Any(*a.Sample.QoE) {
		t.Fatal("crowd sample carries no QoE counters")
	}
	if !a.Done {
		t.Fatalf("crowd run did not resolve: %s", a.Row)
	}
}

// TestLossyChannelDegradesRebuffer pins the acceptance property: the
// existing burst fault plan on the same seed strictly degrades the
// rebuffer ratio (and startup delay) versus a clean channel.
func TestLossyChannelDegradesRebuffer(t *testing.T) {
	clean := StreamingRun(GridTopology(7, "", ""), workload.StreamSpec{})
	lossyGrid := GridTopology(7, "", "")
	lossyGrid.D.InstallFaults(lossyStreamPlan(7))
	lossy := StreamingRun(lossyGrid, workload.StreamSpec{})
	cq, lq := clean.Sample.QoE, lossy.Sample.QoE
	if cq == nil || lq == nil {
		t.Fatal("missing QoE counters")
	}
	if lq.RebufferRatio <= cq.RebufferRatio {
		t.Fatalf("lossy rebuffer %.4f not strictly worse than clean %.4f",
			lq.RebufferRatio, cq.RebufferRatio)
	}
	if lq.StartupDelay <= cq.StartupDelay {
		t.Fatalf("lossy startup %v not strictly worse than clean %v",
			lq.StartupDelay, cq.StartupDelay)
	}
}

// TestStreamingTracePlayback checks that a traced streaming run can be
// reconstructed: every segment's prefetch is on record and the playback
// summary agrees with the QoE counters.
func TestStreamingTracePlayback(t *testing.T) {
	grid := GridTopology(7, "", "")
	tr := grid.D.EnableTracing(0)
	rep := StreamingRun(grid, quickStream())
	if tr == nil {
		t.Fatal("no tracer returned")
	}
	a := trace.Analyze(tr.Events())
	if a.PlaybackSummary.Prefetches != 4 {
		t.Fatalf("prefetches = %d, want 4", a.PlaybackSummary.Prefetches)
	}
	if got, want := uint64(a.PlaybackSummary.Stalls), rep.Sample.QoE.Stalls; got != want {
		t.Fatalf("trace stalls = %d, QoE stalls = %d", got, want)
	}
	if a.PlaybackSummary.StallTime != rep.Sample.QoE.StallTime {
		t.Fatalf("trace stall time = %v, QoE stall time = %v",
			a.PlaybackSummary.StallTime, rep.Sample.QoE.StallTime)
	}
}

// TestStreamSeriesDeterministic: the `pds-bench stream` figure emits
// byte-identical QoE rows for the same seed.
func TestStreamSeriesDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("full figure; skipped in -short")
	}
	a := figureRows(t, "stream", Params{Seed: 11, Runs: 1})
	b := figureRows(t, "stream", Params{Seed: 11, Runs: 1})
	if a != b {
		t.Fatalf("same-seed stream figure differs:\n%s\n---\n%s", a, b)
	}
	if a == "" {
		t.Fatal("empty stream figure")
	}
}

// TestCrowdSeriesDeterministic: the `pds-bench crowd` figure emits
// byte-identical QoE rows for the same seed.
func TestCrowdSeriesDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("full figure; skipped in -short")
	}
	a := figureRows(t, "crowd", Params{Seed: 11, Runs: 1})
	b := figureRows(t, "crowd", Params{Seed: 11, Runs: 1})
	if a != b {
		t.Fatalf("same-seed crowd figure differs:\n%s\n---\n%s", a, b)
	}
	if a == "" {
		t.Fatal("empty crowd figure")
	}
}

// TestCityStreamingSmoke: the streaming driver on the city-scale core —
// a moving population, segments published at the nodes nearest the
// consumer — resolves within budget and stays deterministic.
func TestCityStreamingSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("city smoke; skipped in -short")
	}
	cfg := CityConfig{Nodes: 300, Items: 100}
	a := StreamingRun(CityTopology(cfg, 7), quickStream())
	if !a.Done {
		t.Fatalf("city streaming did not resolve: %s", a.Row)
	}
	if a.Result.SegmentsComplete == 0 {
		t.Fatalf("no segment completed: %s", a.Row)
	}
	b := StreamingRun(CityTopology(cfg, 7), quickStream())
	if a.Row != b.Row {
		t.Fatalf("same-seed city rows differ:\n  %s\n  %s", a.Row, b.Row)
	}
}

// TestCityCrowdSmoke: the flash-crowd driver on the city-scale core
// resolves within budget and stays deterministic.
func TestCityCrowdSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("city smoke; skipped in -short")
	}
	cfg := CityConfig{Nodes: 300, Items: 100}
	spec := workload.CrowdSpec{Clients: 4, Layers: 2, LayerBytes: 256 << 10}
	a := FlashCrowdRun(CityTopology(cfg, 7), spec)
	if !a.Done {
		t.Fatalf("city crowd did not resolve: %s", a.Row)
	}
	if a.Result.LayersComplete == 0 {
		t.Fatalf("no layer completed: %s", a.Row)
	}
	b := FlashCrowdRun(CityTopology(cfg, 7), spec)
	if a.Row != b.Row {
		t.Fatalf("same-seed city rows differ:\n  %s\n  %s", a.Row, b.Row)
	}
}
