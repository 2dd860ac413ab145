package scenario

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"pds/internal/attr"
	"pds/internal/core"
	"pds/internal/metrics"
	"pds/internal/radio"
	"pds/internal/wire"
)

// TestTrialOnGrid drives the seam on a 4×4 grid with one and three
// simultaneous consumers per plane. The middle consumer of each trio is
// stranded out of radio range, so its slot tells consumer order apart:
// it must come back empty while its neighbours complete. A deadline
// inside the transfer cuts the run short: not done, results partial. The
// single-consumer samples are the values the three one-consumer helpers
// this seam replaced produced for the same seed.
func TestTrialOnGrid(t *testing.T) {
	const (
		seed     = 5
		entries  = 120
		stranded = wire.NodeID(17)
	)
	center := CenterID(4, 4)
	for _, tc := range []struct {
		kind      string // pdd | pdr | mdr
		consumers []wire.NodeID
		deadline  time.Duration
		want      metrics.Sample // of the uncut single-consumer run
	}{
		{"pdd", []wire.NodeID{center}, time.Minute,
			metrics.Sample{Recall: 1, Latency: 178447934, OverheadBytes: 104124, Rounds: 2}},
		{"pdd", []wire.NodeID{center, stranded, 1}, time.Minute, metrics.Sample{}},
		{"pdr", []wire.NodeID{center}, time.Minute,
			metrics.Sample{Recall: 1, Latency: 2533552822, OverheadBytes: 1774772, Rounds: 1}},
		{"pdr", []wire.NodeID{center, stranded, 1}, time.Minute, metrics.Sample{}},
		{"pdr", []wire.NodeID{center, 1}, time.Second, metrics.Sample{}},
		{"mdr", []wire.NodeID{center}, time.Minute,
			metrics.Sample{Recall: 1, Latency: 2809627132, OverheadBytes: 1719636, Rounds: 1}},
		{"mdr", []wire.NodeID{center, stranded, 1}, time.Minute, metrics.Sample{}},
		{"mdr", []wire.NodeID{center}, time.Second, metrics.Sample{}},
	} {
		cut := tc.deadline < time.Minute
		d := Grid(4, 4, GridSpacing, Options{Seed: seed})
		var item attr.Descriptor
		if tc.kind == "pdd" {
			d.DistributeEntries(entries, 1)
		} else {
			item = d.seedClip(1, 1, center)
		}
		if slices.Contains(tc.consumers, stranded) {
			// Seeded first, so the stranded peer holds nothing.
			d.AddPeer(stranded, radio.Pos{X: 1e5, Y: 1e5})
		}

		mark := d.Medium.Stats().TxBytes
		var (
			got    []float64 // delivered fraction per consumer slot
			done   bool
			sample metrics.Sample
		)
		if tc.kind == "pdd" {
			res, ok := d.Discover(tc.consumers, EntrySelector(), core.DiscoverOptions{}, tc.deadline)
			for _, r := range res {
				got = append(got, float64(len(r.Entries))/entries)
			}
			done, sample = ok, d.pddSample(res, entries, mark)
		} else {
			res, ok := d.Retrieve(tc.consumers, item, tc.kind == "mdr", tc.deadline)
			for _, r := range res {
				got = append(got, float64(len(r.Chunks))/float64(item.TotalChunks()))
			}
			done, sample = ok, d.pdrSample(res, item, mark)
		}

		name := fmt.Sprintf("%s × %d within %v", tc.kind, len(tc.consumers), tc.deadline)
		if len(got) != len(tc.consumers) {
			t.Fatalf("%s: %d results", name, len(got))
		}
		if done == cut {
			t.Errorf("%s: done = %v", name, done)
		}
		for i, c := range tc.consumers {
			want := 1.0
			if c == stranded {
				want = 0
			}
			if cut && got[i] >= 1 || !cut && got[i] != want {
				t.Errorf("%s: slot %d (node %d) delivered %.2f", name, i, c, got[i])
			}
		}
		switch {
		case cut:
			if sample.Recall >= 1 {
				t.Errorf("%s: mean recall %.3f of a run cut short", name, sample.Recall)
			}
		case len(got) == 3:
			if sample.Recall != 2.0/3 {
				t.Errorf("%s: mean recall %.3f, want 2/3", name, sample.Recall)
			}
		case sample != tc.want:
			t.Errorf("%s moved off the single-consumer helper's sample:\n got %+v\nwant %+v", name, sample, tc.want)
		}
	}
}

// TestTrialOverheadSinceMark: the overhead cell counts only what the
// medium carried after the mark.
func TestTrialOverheadSinceMark(t *testing.T) {
	const entries = 120
	d := Grid(4, 4, GridSpacing, Options{Seed: 5})
	d.DistributeEntries(entries, 1)
	d.pddTrial(entries, 1)
	mark := d.Medium.Stats().TxBytes
	if mark == 0 {
		t.Fatal("warm-up trial sent nothing")
	}
	res, _ := d.Discover([]wire.NodeID{CenterID(4, 4)}, EntrySelector(), core.DiscoverOptions{}, discoveryDeadline)
	total := d.Medium.Stats().TxBytes
	if got := d.pddSample(res, entries, mark).OverheadBytes; got != total-mark || got == 0 {
		t.Errorf("overhead since mark = %d, want %d", got, total-mark)
	}
	if got := d.pddSample(res, entries, 0).OverheadBytes; got != total {
		t.Errorf("overhead of the whole run = %d, want %d", got, total)
	}
}

// TestTrialSlotsAndDeadline pins the driver itself with scripted
// sessions: slots follow start order even when callbacks fire in
// reverse, and a session the deadline cuts off leaves its zero value.
func TestTrialSlotsAndDeadline(t *testing.T) {
	d := New(Options{Seed: 1})
	script := func(i int, cb func(int)) { // session i answers 10·(i+1) at t = 3−i seconds
		d.Eng.Schedule(time.Duration(3-i)*time.Second, func() { cb(10 * (i + 1)) })
	}
	res, done := trial(d, 3, 2500*time.Millisecond, script)
	if done || res[0] != 0 || res[1] != 20 || res[2] != 30 {
		t.Fatalf("cut short: got %v done=%v, want [0 20 30] false", res, done)
	}
	d = New(Options{Seed: 1})
	res, done = trial(d, 3, time.Minute, script)
	if !done || res[0] != 10 || res[1] != 20 || res[2] != 30 {
		t.Fatalf("got %v done=%v, want [10 20 30] true", res, done)
	}
}
