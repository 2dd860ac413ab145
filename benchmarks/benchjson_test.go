package main

import "testing"

// BENCHMARK.json must stay inside the contract's limits and declare
// exactly what the runner prints.
func TestBenchmarkJSONMatchesRunner(t *testing.T) {
	bj, err := loadBenchmarkJSON()
	if err != nil {
		t.Fatal(err)
	}
	if err := bj.check(); err != nil {
		t.Fatal(err)
	}
	if bj.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %d, runner's default -seconds is %d", bj.RunSeconds, defaultSeconds)
	}
	if len(bj.Paths) != 1 || bj.Paths[0] != "benchmarks" {
		t.Errorf("paths = %v, want [benchmarks]", bj.Paths)
	}
	setup := false
	for _, m := range bj.EndToEnd {
		if m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower" {
			setup = true
		}
	}
	if !setup {
		t.Error("end_to_end lacks setup_s (unit s, lower is better)")
	}
}

func TestCheckRejectsDrift(t *testing.T) {
	bj, err := loadBenchmarkJSON()
	if err != nil {
		t.Fatal(err)
	}
	bj.PerLayer[0].Name = "sim.not_printed"
	if err := bj.check(); err == nil {
		t.Error("check accepted a per-layer metric the runner does not print")
	}
	bj, _ = loadBenchmarkJSON()
	bad := 0.5
	bj.EndToEnd[1].Bound = &bad
	if err := bj.check(); err == nil {
		t.Error("check accepted a bound above 0.25")
	}
	bj, _ = loadBenchmarkJSON()
	bj.Workloads[0].Name = "bad name"
	if err := bj.check(); err == nil {
		t.Error("check accepted a workload name with a space")
	}
}
