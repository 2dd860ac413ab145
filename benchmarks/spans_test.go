package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// fakeClock hands out scripted readings.
type fakeClock struct {
	t     *testing.T
	ticks []int64
}

func (c *fakeClock) now() int64 {
	if len(c.ticks) == 0 {
		c.t.Fatal("tracer read the clock more often than scripted")
	}
	v := c.ticks[0]
	c.ticks = c.ticks[1:]
	return v
}

// Hand-built nesting, as an engine event produces it:
//
//	link.rx   [  0 ........................ 100]
//	  core.rx   [ 10 ............... 80]
//	    link.tx    [ 20 ...... 50]
//	      radio.send  [ 30 . 40]
//	    link.tx    [ 60 . 70]
//	core.timer [200 ... 230]
func TestSpanSelfTime(t *testing.T) {
	clk := &fakeClock{t: t, ticks: []int64{0, 10, 20, 30, 40, 50, 60, 70, 80, 100, 200, 230}}
	tr := newTracer()
	tr.now = clk.now

	tr.op = 7
	tr.begin(spanLinkRx)
	tr.begin(spanCoreRx)
	tr.begin(spanLinkTx)
	tr.begin(spanRadioSend)
	tr.end()
	tr.end()
	tr.begin(spanLinkTx)
	tr.end()
	tr.end()
	tr.end()
	tr.op = 0
	tr.begin(spanCoreTimer)
	tr.end()

	want := map[spanKind]struct {
		count       uint64
		total, self int64
	}{
		spanLinkRx:    {1, 100, 30}, // 100 − core.rx 70
		spanCoreRx:    {1, 70, 30},  // 70 − link.tx 30 − link.tx 10
		spanLinkTx:    {2, 40, 30},  // (30 − radio.send 10) + 10
		spanRadioSend: {1, 10, 10},
		spanCoreTimer: {1, 30, 30},
	}
	for k, w := range want {
		a := tr.sink.agg[k]
		if a.Count != w.count || a.TotalNs != w.total || a.SelfNs != w.self {
			t.Errorf("%s: count/total/self = %d/%d/%d, want %d/%d/%d",
				spanNames[k], a.Count, a.TotalNs, a.SelfNs, w.count, w.total, w.self)
		}
	}
	// Self times partition the root spans' duration.
	var self int64
	for k := range tr.sink.agg {
		self += tr.sink.agg[k].SelfNs
	}
	if self != tr.sink.rootNs || tr.sink.rootNs != 130 {
		t.Errorf("Σ self = %d, root total = %d, want both 130", self, tr.sink.rootNs)
	}
	if len(tr.stack) != 0 {
		t.Errorf("%d spans left open", len(tr.stack))
	}
	// 10 ns falls in the [8,16) bucket.
	if got := tr.sink.agg[spanRadioSend].Hist[3]; got != 1 {
		t.Errorf("radio.send histogram bucket 3 = %d, want 1", got)
	}

	// Records: parents point up the stack, children inherit the op.
	byID := map[uint32]spanRecord{}
	for _, r := range tr.sink.records {
		byID[r.ID] = r
	}
	if len(byID) != 6 {
		t.Fatalf("%d records, want 6", len(byID))
	}
	radio := byID[4]
	if radio.Name != "radio.send" || byID[radio.Parent].Name != "link.tx" || radio.Op != 7 {
		t.Errorf("radio.send record = %+v (parent %q), want parent link.tx and op 7", radio, byID[radio.Parent].Name)
	}
	if timer := byID[6]; timer.Parent != 0 || timer.Op != 0 {
		t.Errorf("core.timer record = %+v, want a root with op 0", timer)
	}

	path := filepath.Join(t.TempDir(), "out", "spans.jsonl")
	if err := tr.sink.writeJSONL(path); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	lines := 0
	for sc := bufio.NewScanner(f); sc.Scan(); lines++ {
		var r spanRecord
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			t.Fatalf("line %d: %v", lines, err)
		}
		if r.EndNs < r.StartNs || r.Name == "" {
			t.Errorf("line %d: malformed record %+v", lines, r)
		}
	}
	if lines != 6 {
		t.Errorf("%d JSONL lines, want 6", lines)
	}
}

func TestSpanRecordCap(t *testing.T) {
	var s spanSink
	for i := 0; i < maxSpanRecords+10; i++ {
		s.finish(spanLinkRx, s.newID(), 0, 0, 0, 1, 0)
	}
	if len(s.records) != maxSpanRecords {
		t.Errorf("%d records kept, want the first %d", len(s.records), maxSpanRecords)
	}
	if s.agg[spanLinkRx].Count != maxSpanRecords+10 {
		t.Errorf("aggregate lost spans past the record cap: %d", s.agg[spanLinkRx].Count)
	}
}
