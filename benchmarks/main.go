// Command benchmarks is the repo benchmark: four long-run workloads
// (three simulated, one over real loopback sockets), eight end-to-end
// metrics per workload, and an outside-in per-layer ledger from a
// traced run. BENCHMARK.json at the repo root declares the command,
// the workloads and every metric name printed here; README.md in this
// directory explains each of them.
//
//	go run -C benchmarks pds/benchmarks                          # every workload, untraced
//	go run -C benchmarks pds/benchmarks -trace 1                 # the per-layer ledger
//	go run -C benchmarks pds/benchmarks -workload live-swarm -seed 7
//	go run -C benchmarks pds/benchmarks -selfcheck               # suite twice, diff table
//	go run -C benchmarks pds/benchmarks -list
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// defaultSeconds is BENCHMARK.json's run_seconds: how long the
// measured passes of one workload run last.
const defaultSeconds = 12

type stringList []string

func (l *stringList) String() string { return strings.Join(*l, ",") }
func (l *stringList) Set(v string) error {
	*l = append(*l, v)
	return nil
}

func main() {
	var (
		names      stringList
		seed       = flag.Int64("seed", 1, "seed every generated input derives from")
		seconds    = flag.Float64("seconds", defaultSeconds, "measure each workload for this long (but run at least one pass per replica)")
		trace      = flag.Int("trace", 0, "1 = traced run: print the per-layer metrics instead of the end-to-end ones")
		list       = flag.Bool("list", false, "list workloads and metrics, then exit")
		selfcheck  = flag.Bool("selfcheck", false, "run the untraced suite twice and fail if any end-to-end metric differs by more than its bound")
		jsonPath   = flag.String("json", "", "also write the full report (per-pass host readings, gauges, span aggregates) to this file")
		cpuProfile = flag.String("cpuprofile", "", "directory for a CPU profile of each workload's measured passes")
		memProfile = flag.String("memprofile", "", "directory for an allocation profile of each workload's child")

		child   = flag.Bool("child", false, "internal: run one workload in this process")
		spawned = flag.Int64("spawned", 0, "internal: unix nanoseconds at which the runner started this child")
	)
	flag.Var(&names, "workload", "workload to run (repeatable; default: all)")
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "benchmarks: unexpected argument %q\n", flag.Arg(0))
		os.Exit(2)
	}

	if *child {
		if len(names) != 1 {
			fmt.Fprintln(os.Stderr, "benchmarks: -child needs exactly one -workload")
			os.Exit(2)
		}
		os.Exit(runChild(childConfig{
			workload: names[0], seed: *seed, seconds: *seconds, trace: *trace != 0,
			spawned:    time.Unix(0, *spawned),
			cpuProfile: *cpuProfile, memProfile: *memProfile,
		}))
	}
	if *list {
		printList()
		return
	}
	if len(names) == 0 {
		for _, w := range workloads() {
			names = append(names, w.name())
		}
	}
	for _, n := range names {
		if _, err := workloadByName(n); err != nil {
			fmt.Fprintln(os.Stderr, "benchmarks:", err)
			os.Exit(2)
		}
	}
	r := runner{
		seed: *seed, seconds: *seconds, trace: *trace != 0,
		cpuProfile: *cpuProfile, memProfile: *memProfile,
	}
	if *selfcheck {
		os.Exit(r.selfcheck(names))
	}
	os.Exit(r.suite(names, *jsonPath))
}

// outDir is benchmarks/out, from either working directory the runner
// is started in: benchmarks/ (go run -C) or the repo root.
func outDir() string {
	if _, err := os.Stat("../BENCHMARK.json"); err != nil {
		if fi, err := os.Stat("benchmarks"); err == nil && fi.IsDir() {
			return filepath.Join("benchmarks", "out")
		}
	}
	return "out"
}

func printList() {
	fmt.Println("workloads:")
	for _, w := range workloads() {
		clock := "host clock"
		if w.simulated() {
			clock = "simulated clock"
		}
		fmt.Printf("  %-14s %s — %s\n", w.name(), clock, w.why())
	}
	fmt.Println("end-to-end metrics (untraced run):")
	for _, m := range endToEnd {
		fmt.Printf("  %-28s %-6s %s is better\n", m.Name, m.Unit, m.Better)
	}
	fmt.Println("per-layer metrics (-trace 1):")
	for _, m := range perLayer {
		fmt.Printf("  %-28s %-6s %s is better\n", m.Name, m.Unit, m.Better)
	}
}
