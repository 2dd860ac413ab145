package scenario

import (
	"testing"
	"time"

	"pds/internal/core"
	"pds/internal/fault"
	"pds/internal/wire"
)

// TestFacePlaneFaultsInertInSim: one fault.Plan string can describe
// both the simulated radio plane and the real-socket face plane. The
// sim injector must ignore the face-level kinds (dial-fail,
// conn-reset, stall) completely — adding them to a plan cannot change
// a simulated run by a single byte.
func TestFacePlaneFaultsInertInSim(t *testing.T) {
	const entries = 100
	seed := int64(11)
	run := func(planStr string) (recall float64, txBytes uint64) {
		t.Helper()
		d := Grid(4, 4, GridSpacing, Options{Seed: seed, Core: chaosConfig(0)})
		d.DistributeEntries(entries, 2)
		consumer := CenterID(4, 4)
		plan, err := fault.ParsePlan(planStr)
		if err != nil {
			t.Fatalf("ParsePlan(%q): %v", planStr, err)
		}
		plan.Seed = seed
		d.InstallFaults(plan)
		results, done := d.Discover([]wire.NodeID{consumer}, EntrySelector(), core.DiscoverOptions{}, 2*time.Minute)
		res := results[0]
		if !done {
			t.Fatalf("discovery hung under plan %q", planStr)
		}
		return float64(len(res.Entries)) / entries, d.Medium.Stats().TxBytes
	}

	simOnly := "burst@2s+3s:0.4"
	mixed := simOnly + ";dial-fail@0s:1.0;conn-reset@1s+5s:0.9;stall@0s:1.0"
	r1, b1 := run(simOnly)
	r2, b2 := run(mixed)
	if r1 != r2 || b1 != b2 {
		t.Fatalf("face-plane kinds changed the simulated run: recall %.4f→%.4f, bytes %d→%d",
			r1, r2, b1, b2)
	}
}
