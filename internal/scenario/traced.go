package scenario

import (
	"pds/internal/metrics"
	"pds/internal/trace"
)

// TracedFig08 runs the Figure 8 cell — `consumers` simultaneous
// consumers in the center subgrid of the 10×10 grid over `entries`
// metadata entries — on a dedicated deployment, optionally with
// hop-level tracing. Traced runs always get their own deployment
// (never the concurrent parMap sweeps) so event order, and therefore
// the JSONL export, is deterministic per seed. The tracer reads only
// the sim clock, so the returned sample is identical for the same seed
// whether tracing is on or off.
func TracedFig08(seed int64, consumers, entries int, traced bool, perNodeCap int) (metrics.Sample, *trace.Tracer) {
	d := Grid(10, 10, GridSpacing, Options{Seed: seed})
	var t *trace.Tracer
	if traced {
		t = d.EnableTracing(perNodeCap)
	}
	return fig8Cell(d, seed, consumers, entries), t
}
