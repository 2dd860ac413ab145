package fault

import (
	"testing"
	"time"

	"pds/internal/radio"
	"pds/internal/sim"
	"pds/internal/wire"
)

type fakeTarget struct {
	log []string
}

func (t *fakeTarget) Crash(id wire.NodeID)   { t.log = append(t.log, "crash") }
func (t *fakeTarget) Restart(id wire.NodeID) { t.log = append(t.log, "restart") }
func (t *fakeTarget) Depart(id wire.NodeID)  { t.log = append(t.log, "depart") }

func TestParsePlan(t *testing.T) {
	p, err := ParsePlan("crash:45@30s+20s; burst@10s+60s:0.4,250ms,1s; corrupt@0s:0.1; dup@5s+2s:0.05; depart:7@1m")
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Events) != 5 {
		t.Fatalf("got %d events", len(p.Events))
	}
	c := p.Events[0]
	if c.Kind != Crash || c.Node != 45 || c.At != 30*time.Second || c.Downtime != 20*time.Second {
		t.Fatalf("crash event %+v", c)
	}
	b := p.Events[1]
	if b.Kind != Burst || b.At != 10*time.Second || b.Duration != time.Minute ||
		b.GE.LossBad != 0.4 || b.GE.MeanBad != 250*time.Millisecond || b.GE.MeanGood != time.Second {
		t.Fatalf("burst event %+v", b)
	}
	if p.Events[2].Kind != Corrupt || p.Events[2].Rate != 0.1 {
		t.Fatalf("corrupt event %+v", p.Events[2])
	}
	if p.Events[3].Kind != Duplicate || p.Events[3].Duration != 2*time.Second {
		t.Fatalf("dup event %+v", p.Events[3])
	}
	if p.Events[4].Kind != Depart || p.Events[4].Node != 7 {
		t.Fatalf("depart event %+v", p.Events[4])
	}

	for _, bad := range []string{
		"crash@10s",          // missing node id
		"burst:3@10s:0.4",    // node id on channel event
		"burst@10s",          // missing lossBad
		"corrupt@0s:1.5",     // rate out of range
		"explode:1@0s",       // unknown kind
		"crash:1@ten",        // bad duration
		"burst@0s:0.4,a,b,c", // too many params
		"dial-fail@0s:1.0",   // face kinds are not plan kinds
		"conn-reset@1s:0.5",
		"stall@0s:1",
		"burst@0s:1.5",        // lossBad out of range
		"burst@0s:-0.1",       // lossBad out of range
		"burst@0s:NaN",        // lossBad not a probability
		"burst@0s:0.4,0s",     // meanBad not positive
		"burst@0s:0.4,1s,-1s", // meanGood not positive
		"crash:3@-1s",         // negative at
		"crash:3@1s+-2s",      // negative downtime
		"corrupt@0s+-1s:0.1",  // negative duration
		"dup@0s:NaN",          // rate not a probability
	} {
		if _, err := ParsePlan(bad); err == nil {
			t.Errorf("ParsePlan(%q) accepted", bad)
		}
	}
}

func TestInjectorSchedulesNodeFaults(t *testing.T) {
	eng := sim.NewEngine(1)
	tgt := &fakeTarget{}
	in := NewInjector(eng, 1, tgt)
	in.Install(Plan{Events: []Event{
		{At: 2 * time.Second, Kind: Crash, Node: 3, Downtime: time.Second},
		{At: 5 * time.Second, Kind: Depart, Node: 4},
	}})
	eng.Run(10 * time.Second)
	want := []string{"crash", "restart", "depart"}
	if len(tgt.log) != len(want) {
		t.Fatalf("log %v", tgt.log)
	}
	for i := range want {
		if tgt.log[i] != want[i] {
			t.Fatalf("log %v, want %v", tgt.log, want)
		}
	}
	st := in.Stats()
	if st.Crashes != 1 || st.Restarts != 1 || st.Departures != 1 {
		t.Fatalf("stats %+v", st)
	}
}

// TestBurstLossShape: under an open burst window the loss rate measured
// during bad-state periods must be near LossBad and the good-state rate
// near the ambient base loss, and bursts must actually alternate.
func TestBurstLossShape(t *testing.T) {
	eng := sim.NewEngine(7)
	in := NewInjector(eng, 7, nil)
	in.SetBaseLoss(0.01)
	in.Install(Plan{Events: []Event{{
		At: 0, Kind: Burst,
		GE: GEConfig{MeanGood: time.Second, MeanBad: time.Second, LossBad: 0.9},
	}}})

	var lost, total int
	// Sample the channel every millisecond for 60 virtual seconds.
	var tick func()
	tick = func() {
		if eng.Now() >= 60*time.Second {
			return
		}
		total++
		if in.Fate(1, 2, eng.Now()) == radio.FateLost {
			lost++
		}
		eng.Schedule(time.Millisecond, tick)
	}
	eng.Schedule(0, tick)
	eng.Run(61 * time.Second)

	st := in.Stats()
	if st.BurstsEntered < 10 {
		t.Fatalf("only %d bursts in 60s with 1s mean sojourns", st.BurstsEntered)
	}
	// Equal sojourn means → overall loss ≈ (0.9+0.01)/2.
	rate := float64(lost) / float64(total)
	if rate < 0.30 || rate < float64(st.BurstLosses)/float64(total) {
		t.Fatalf("overall loss rate %.3f implausible for GE(0.01, 0.9)", rate)
	}
	if st.BurstLosses == 0 {
		t.Fatal("no losses attributed to bad state")
	}
}

func TestBurstWindowCloses(t *testing.T) {
	eng := sim.NewEngine(3)
	in := NewInjector(eng, 3, nil)
	in.Install(Plan{Events: []Event{{
		At: 0, Kind: Burst, Duration: 5 * time.Second,
		GE: GEConfig{MeanGood: 100 * time.Millisecond, MeanBad: 100 * time.Millisecond, LossBad: 1.0},
	}}})
	eng.Run(10 * time.Second)
	// After the window closed every frame survives (base loss 0).
	for i := 0; i < 100; i++ {
		if f := in.Fate(1, 2, eng.Now()); f != radio.FateDeliver {
			t.Fatalf("fate %v after burst window closed", f)
		}
	}
}

func TestCorruptAndDuplicateWindows(t *testing.T) {
	eng := sim.NewEngine(9)
	in := NewInjector(eng, 9, nil)
	in.Install(Plan{Events: []Event{
		{At: 0, Kind: Corrupt, Rate: 0.5, Duration: time.Second},
		{At: 0, Kind: Duplicate, Rate: 0.5, Duration: time.Second},
	}})
	eng.Run(time.Millisecond)
	var corrupt, dup int
	for i := 0; i < 1000; i++ {
		switch in.Fate(1, 2, eng.Now()) {
		case radio.FateCorrupt:
			corrupt++
		case radio.FateDuplicate:
			dup++
		}
	}
	if corrupt < 300 || dup < 100 {
		t.Fatalf("corrupt=%d dup=%d out of 1000 at rate 0.5", corrupt, dup)
	}
	// Windows expire.
	eng.Run(2 * time.Second)
	for i := 0; i < 200; i++ {
		if f := in.Fate(1, 2, eng.Now()); f != radio.FateDeliver {
			t.Fatalf("fate %v after windows closed", f)
		}
	}
	st := in.Stats()
	if st.CorruptedFrames == 0 || st.DuplicatedFrames == 0 {
		t.Fatalf("stats %+v", st)
	}
}

// TestDeterminism: identical seeds must produce identical fate
// sequences and stats; different seeds must diverge.
func TestDeterminism(t *testing.T) {
	run := func(seed int64) ([]radio.FrameFate, Stats) {
		eng := sim.NewEngine(1)
		in := NewInjector(eng, seed, nil)
		in.SetBaseLoss(0.05)
		in.Install(Plan{Events: []Event{
			{At: 0, Kind: Burst, GE: GEConfig{MeanGood: 200 * time.Millisecond, MeanBad: 200 * time.Millisecond, LossBad: 0.8}},
			{At: 0, Kind: Corrupt, Rate: 0.1},
		}})
		var fates []radio.FrameFate
		var tick func()
		tick = func() {
			if eng.Now() >= 5*time.Second {
				return
			}
			fates = append(fates, in.Fate(1, 2, eng.Now()))
			eng.Schedule(time.Millisecond, tick)
		}
		eng.Schedule(0, tick)
		eng.Run(6 * time.Second)
		return fates, in.Stats()
	}
	fa, sa := run(42)
	fb, sb := run(42)
	if len(fa) != len(fb) || sa != sb {
		t.Fatalf("same seed diverged: %+v vs %+v", sa, sb)
	}
	for i := range fa {
		if fa[i] != fb[i] {
			t.Fatalf("fate %d differs: %v vs %v", i, fa[i], fb[i])
		}
	}
	fc, _ := run(43)
	same := len(fa) == len(fc)
	if same {
		for i := range fa {
			if fa[i] != fc[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical fate sequences")
	}
}
