package fault

import (
	"reflect"
	"strings"
	"testing"
)

// FuzzParsePlan hammers the fault-plan grammar with arbitrary strings:
// parsing must never panic, accepted plans must contain only valid
// event kinds with their grammar-enforced fields, and parsing must be
// deterministic (the parser is pure — same spec, same plan).
func FuzzParsePlan(f *testing.F) {
	f.Add("crash:45@30s+20s")
	f.Add("burst@10s+60s:0.4,2s,10s")
	f.Add("corrupt@5s+30s:0.1")
	f.Add("dup@1s:0.05")
	f.Add("depart:3@1m")
	f.Add("crash:45@30s+20s;burst@10s:0.4;;corrupt@5s:0.1")
	f.Add("")
	f.Add(" ; ; ")
	f.Add("crash:45")
	f.Add("burst@10s")
	f.Add("crash:-1@30s")
	f.Add("dup:7@1s:0.05")
	// Face fault names are no plan kinds: these must be rejected.
	f.Add("dial-fail@0s+10s:1.0;conn-reset@2s:0.5;stall@1s+3s:0.25")
	f.Add("dial-fail@0s:1.0")
	f.Add("conn-reset:3@1s:0.5")
	f.Add("stall@1s")
	// Out-of-range values: these must be rejected.
	f.Add("burst@0s:1.5")
	f.Add("burst@0s:0.4,0s,-1s")
	f.Add("crash:3@1s+-2s")
	f.Add("dup@-1s:NaN")
	f.Fuzz(func(t *testing.T, spec string) {
		p, err := ParsePlan(spec)
		for _, face := range []string{"dial-fail", "conn-reset", "stall"} {
			if err == nil && strings.Contains(spec, face) {
				t.Fatalf("spec %q: accepted the face fault name %q", spec, face)
			}
		}
		if err != nil {
			// A rejected spec must reject identically on re-parse.
			if _, err2 := ParsePlan(spec); err2 == nil {
				t.Fatalf("spec %q: rejected once (%v), accepted on re-parse", spec, err)
			}
			return
		}
		for i, ev := range p.Events {
			switch ev.Kind {
			case Crash, Depart, Burst, Corrupt, Duplicate:
			default:
				t.Fatalf("spec %q: event %d has invalid kind %d", spec, i, ev.Kind)
			}
			if ev.Kind != Crash && ev.Kind != Depart && ev.Node != 0 {
				t.Fatalf("spec %q: event %d: %s carries a node id", spec, i, ev.Kind)
			}
			if ev.Kind != Crash && ev.Downtime != 0 {
				t.Fatalf("spec %q: event %d: %s carries a downtime", spec, i, ev.Kind)
			}
			if ev.At < 0 || ev.Duration < 0 || ev.Downtime < 0 {
				t.Fatalf("spec %q: event %d: negative time %+v", spec, i, ev)
			}
			if !(ev.Rate >= 0 && ev.Rate <= 1) {
				t.Fatalf("spec %q: event %d: rate %v out of [0,1]", spec, i, ev.Rate)
			}
			if ev.Kind == Burst && (!(ev.GE.LossBad >= 0 && ev.GE.LossBad <= 1) || ev.GE.MeanBad <= 0 || ev.GE.MeanGood <= 0) {
				t.Fatalf("spec %q: event %d: burst parameters %+v", spec, i, ev.GE)
			}
		}
		p2, err := ParsePlan(spec)
		if err != nil {
			t.Fatalf("spec %q: accepted once, rejected on re-parse: %v", spec, err)
		}
		if !reflect.DeepEqual(p, p2) {
			t.Fatalf("spec %q: re-parse differs:\n  %+v\n  %+v", spec, p, p2)
		}
	})
}
