package scenario

import (
	"flag"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"pds/internal/core"
	"pds/internal/metrics"
	"pds/internal/wire"
	"pds/internal/workload"
)

var updateGolden = flag.Bool("update-golden", false,
	"rewrite testdata/figure_rows.golden from the current implementation")

// goldenFigureRows renders the pinned figures — Fig 8, Fig 11, chaos and
// disk — as one deterministic text blob, every figure's rows read from
// ciFigures. Single run per point, base seed 1: exactly the rows
// `pds-bench -seed 1 -runs 1` prints for these figures. The rows after
// the disk figure pin the PDD paths those four never run: the ablations
// (one-shot interests, per-query responses, no Bloom rewriting), MDR
// (small-data relay carrying chunks) and a multi-consumer small-data
// collection (blob mixedcast). The last rows are the single-hop harness:
// Fig 3 and the leak-rate and ack sweeps.
func goldenFigureRows(t *testing.T) string {
	t.Helper()
	var b strings.Builder
	writeFigures(&b, "fig8", "fig11", "chaos", "disk", "ablation", "fig13")
	b.WriteString(smallDataCollect(t, 1).String())
	b.WriteString(trialGoldenRows(t))
	writeFigures(&b, "fig3", "leaky", "ack")
	return b.String()
}

// writeFigures renders the named figures' CI rows (ciFigures) in order.
func writeFigures(b *strings.Builder, figs ...string) {
	for _, fig := range figs {
		for _, s := range ciFigures[fig]() {
			b.WriteString(s.String())
		}
	}
}

// trialGoldenRows pins the runners that drive and reduce a deployment
// by themselves and that no row above covers: the sequential-consumer
// figures, Fig 16, the balance ablation, one mobility point, the
// workload runners on the grid and on a small city, the
// bfr+opportunistic rows of the compare figures built on the grid's
// retrieval, and the traced Fig 8 cell.
func trialGoldenRows(t *testing.T) string {
	t.Helper()
	var b strings.Builder
	writeFigures(&b, "fig7", "fig15", "fig16", "balance")
	mob := &metrics.Series{Name: "PDD under mobility"}
	mob.Add(1, "x1.0 rates", ciFigures["fig9"]()[0].Points[1].Sample)
	b.WriteString(mob.String())

	stream := workload.StreamSpec{Segments: 3, SegmentBytes: 128 << 10, SegmentDuration: 2 * time.Second}
	crowd := workload.CrowdSpec{
		Items: 2, Layers: 2, LayerBytes: 96 << 10, Clients: 4,
		Arrival: workload.ArrivalSpec{Kind: workload.Step, At: time.Second, Count: 4},
	}
	city := CityConfig{Nodes: 300}
	for _, row := range []string{
		StreamingRun(GridTopology(1, "", ""), stream).Row, FlashCrowdRun(GridTopology(1, "", ""), crowd).Row,
		StreamingRun(CityTopology(city, 1), stream).Row, FlashCrowdRun(CityTopology(city, 1), crowd).Row,
	} {
		b.WriteString(row + "\n")
	}

	for _, scen := range []string{"fig11", "sparse", "repeat", "pressure"} {
		s := ciFigures["compare/"+scen]()[0]
		i := slices.IndexFunc(s.Points, func(p metrics.Point) bool { return p.Label == "bfr+opportunistic" })
		b.WriteString((&metrics.Series{Name: s.Name, Points: s.Points[i : i+1]}).String())
	}

	traced, _ := TracedFig08(1, 2, 500, true, 0)
	plain, _ := TracedFig08(1, 2, 500, false, 0)
	if traced != plain {
		t.Errorf("tracing moved the Fig 8 cell:\n  traced = %+v\n  plain  = %+v", traced, plain)
	}
	s := &metrics.Series{Name: "traced fig8 cell"}
	s.Add(2, "2 consumers", traced)
	b.WriteString(s.String())
	return b.String()
}

// smallDataCollect is one row of small-data collection on the 10×10
// grid: 120 owned 400-byte items spread uniformly, three center-subgrid
// consumers collecting them all at once, so served and relayed responses
// carry blobs for several lingering queries.
func smallDataCollect(t *testing.T, seed int64) *metrics.Series {
	const items, consumers = 120, 3
	d := Grid(10, 10, GridSpacing, Options{Seed: seed})
	ids := d.sortedPeerIDs()
	rng := newRand(seed + 7)
	for i := 0; i < items; i++ {
		payload := make([]byte, 400)
		for j := range payload {
			payload[j] = byte(i + j)
		}
		d.Peers[ids[rng.Intn(len(ids))]].Node.PublishSmall(EntryDescriptor(i), payload)
	}
	mark := d.Medium.Stats().TxBytes
	res, _ := d.Discover(consumerIDs(d, consumers, seed), EntrySelector(),
		core.DiscoverOptions{Kind: wire.KindData, CollectPayloads: true}, discoveryDeadline)
	for _, r := range res {
		if len(r.Payloads) != len(r.Entries) {
			t.Errorf("collected %d payloads for %d descriptors", len(r.Payloads), len(r.Entries))
		}
	}
	s := &metrics.Series{Name: "small-data collection"}
	s.Add(consumers, "3 collectors", d.pddSample(res, items, mark))
	return s
}

// TestFigureRowsGolden pins the metric rows of the Fig8 / Fig11 / chaos
// / disk figures byte-for-byte against testdata/figure_rows.golden. The
// golden file was captured before the city-scale core refactor (spatial
// radio index, timing-wheel scheduler, dense node state); any
// simulation-visible behavior change in those layers shows up here as a
// diff. Regenerate deliberately with -update-golden, which refuses while
// a claim of the paper ledger (TestPaperClaims) fails.
func TestFigureRowsGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("long")
	}
	seedOne(t)
	if *updateGolden {
		if failing := failingClaims(); len(failing) > 0 {
			t.Fatalf("refusing to re-pin while paper claims fail (go test -run TestPaperClaims -v): %v", failing)
		}
	}
	path := filepath.Join("testdata", "figure_rows.golden")
	got := goldenFigureRows(t)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", path, len(got))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with -update-golden to create): %v", err)
	}
	if got != string(want) {
		t.Fatalf("metric rows diverged from pre-refactor golden.\n--- want\n%s\n--- got\n%s", want, got)
	}
}
