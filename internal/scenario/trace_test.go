package scenario

import (
	"bytes"
	"testing"

	"pds/internal/trace"
)

// Two traced runs with the same seed must export byte-identical JSONL:
// the tracer draws no randomness and the simulator is deterministic.
func TestTraceExportDeterministic(t *testing.T) {
	var exports [2]bytes.Buffer
	for i := range exports {
		_, tr := TracedFig08(42, 2, 500, true, 0)
		if err := tr.WriteJSONL(&exports[i]); err != nil {
			t.Fatalf("export %d: %v", i, err)
		}
	}
	if exports[0].Len() == 0 {
		t.Fatal("empty export")
	}
	if !bytes.Equal(exports[0].Bytes(), exports[1].Bytes()) {
		t.Errorf("same-seed exports differ: %d vs %d bytes",
			exports[0].Len(), exports[1].Len())
	}
}

// Tracing must be invisible to the run itself: identical seeds produce
// identical metric rows with tracing on and off.
func TestTraceDoesNotPerturbMetrics(t *testing.T) {
	traced, _ := TracedFig08(7, 2, 500, true, 0)
	plain, _ := TracedFig08(7, 2, 500, false, 0)
	if traced != plain {
		t.Errorf("metrics diverge:\n  traced = %+v\n  plain  = %+v", traced, plain)
	}
}

// A traced discovery must yield a complete consumer-rooted message
// tree: every response event resolves to a traced query root, the
// flood covers the grid, and responses with airtime attribute to the
// tree.
func TestTraceReconstructsQueryTree(t *testing.T) {
	_, tr := TracedFig08(11, 1, 1000, true, 0)
	if tr.Dropped() != 0 {
		t.Fatalf("ring dropped %d events; raise the cap for this test", tr.Dropped())
	}
	a := trace.Analyze(tr.Events())
	if len(a.Queries) == 0 {
		t.Fatal("no query roots reconstructed")
	}
	if a.Unrooted != 0 {
		t.Errorf("%d response events not attributable to any root", a.Unrooted)
	}
	root := a.Queries[0]
	if root.Kind != "metadata" || root.Round != 1 {
		t.Errorf("first root = kind %q round %d, want metadata round 1", root.Kind, root.Round)
	}
	consumer := root.Consumer
	for _, q := range a.Queries {
		if q.Consumer != consumer {
			t.Errorf("root %d from node %d, want single consumer %d", q.ID, q.Consumer, consumer)
		}
	}
	// Round 1 floods the whole 10×10 grid: nearly every other node
	// forwards once, several hops deep.
	if len(root.Hops) < 50 {
		t.Errorf("round-1 flood reached %d forwarders, want >= 50", len(root.Hops))
	}
	if root.MaxDepth < 3 {
		t.Errorf("flood depth = %d, want >= 3", root.MaxDepth)
	}
	if len(root.RespIDs) == 0 || root.ServedEntries == 0 {
		t.Errorf("no responses in tree: resp=%d entries=%d", len(root.RespIDs), root.ServedEntries)
	}
	if root.Frames == 0 || root.Airtime == 0 {
		t.Errorf("no channel cost attributed: frames=%d airtime=%v", root.Frames, root.Airtime)
	}
	if root.FirstResponse <= root.Start {
		t.Errorf("first response %v not after start %v", root.FirstResponse, root.Start)
	}
}

// TestFig4BloomVerdictsSeed1 traces Figure 4's five cells at seed 1,
// built as fig04HopCount builds them, and pins which filter decided
// each suppression: every one is held only by a relay's private copy of
// the query's filter, which no other node reads — a unit the relay
// forwarded before, or a false positive of its copy. It also pins the
// offers that passed an overloaded filter, and holds the traced rows to
// the untraced ones.
func TestFig4BloomVerdictsSeed1(t *testing.T) {
	if testing.Short() {
		t.Skip("five traced Figure 4 cells")
	}
	var suppressed, copyOnly, failOpen int
	for _, rows := range []int{3, 5, 7, 9, 11} {
		entries := 50 * rows * rows
		d := Grid(rows, rows, GridSpacing, singleRoundOptions(1, true))
		tr := d.EnableTracing(0)
		d.DistributeEntries(entries, 1)
		traced := d.pddTrial(entries, CenterID(rows, rows))
		if plain := runPDD(rows, rows, entries, 1, singleRoundOptions(1, true)); traced != plain {
			t.Errorf("%dx%d: traced row %+v, untraced %+v", rows, rows, traced, plain)
		}
		if n := tr.Dropped(); n != 0 {
			t.Fatalf("%dx%d: ring dropped %d events", rows, rows, n)
		}
		for _, q := range trace.Analyze(tr.Events()).Queries {
			suppressed += q.Suppressions
			copyOnly += q.SelfInflicted
			failOpen += q.FailOpen
		}
	}
	if suppressed != 11597 || copyOnly != 11597 || failOpen != 24257 {
		t.Errorf("suppressions/copy-only/fail-open = %d/%d/%d, want 11597/11597/24257",
			suppressed, copyOnly, failOpen)
	}
}
