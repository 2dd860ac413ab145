package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"time"
)

// childProcs is the GOMAXPROCS every workload child runs with: the
// build box has two cores, and a fixed value keeps the scheduler's
// shape the same wherever the benchmark runs.
const childProcs = 2

// runner is the parent side: it runs each workload in a fresh child
// process of this same binary and reports what the children measured.
type runner struct {
	seed       int64
	seconds    float64
	trace      bool
	cpuProfile string
	memProfile string
}

// runWorkload runs one workload in a fresh child process.
func (r *runner) runWorkload(name string) (*childResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("locate own binary: %w", err)
	}
	traceArg := "0"
	if r.trace {
		traceArg = "1"
	}
	cmd := exec.Command(exe,
		"-child", "-workload", name,
		"-seed", strconv.FormatInt(r.seed, 10),
		"-seconds", strconv.FormatFloat(r.seconds, 'g', -1, 64),
		"-trace", traceArg,
		"-cpuprofile", r.cpuProfile, "-memprofile", r.memProfile,
		"-spawned", strconv.FormatInt(time.Now().UnixNano(), 10),
	)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(childProcs))
	cmd.Stderr = os.Stderr
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	err = cmd.Run() // waits for the child to exit
	line := bytes.TrimSpace(stdout.Bytes())
	if i := bytes.LastIndexByte(line, '\n'); i >= 0 {
		line = line[i+1:]
	}
	var res childResult
	if jerr := json.Unmarshal(line, &res); jerr != nil {
		if err != nil {
			return nil, fmt.Errorf("%s child: %w", name, err)
		}
		return nil, fmt.Errorf("%s child: unreadable result: %w", name, jerr)
	}
	return &res, nil
}

func (r *runner) metricSet() []metricDecl {
	if r.trace {
		return perLayer
	}
	return endToEnd
}

// suite runs the named workloads, prints every metric by name with its
// unit, and ends with the one-line JSON result. The exit code is
// non-zero when any workload's output was incorrect.
func (r *runner) suite(names []string, jsonPath string) int {
	results, code := r.runAll(names)
	if jsonPath != "" {
		b, err := json.MarshalIndent(results, "", "  ")
		if err == nil {
			err = os.WriteFile(jsonPath, append(b, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmarks: -json:", err)
			return 2
		}
	}
	if code != 0 {
		return code
	}
	printFinal(results, r.metricSet())
	return 0
}

// runAll runs each workload once and prints its table. It returns a
// non-zero code after the first failed workload.
func (r *runner) runAll(names []string) ([]*childResult, int) {
	var results []*childResult
	for _, name := range names {
		res, err := r.runWorkload(name)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmarks:", err)
			return results, 2
		}
		results = append(results, res)
		if !res.Correct {
			fmt.Fprintf(os.Stderr, "benchmarks: %s: FAILED: %s\n", name, res.Reason)
			return results, 1
		}
		printTable(res, r.metricSet())
	}
	return results, 0
}

func printTable(res *childResult, set []metricDecl) {
	mode := "untraced"
	if res.Trace {
		mode = "traced"
	}
	fmt.Printf("== %s  seed=%d  %s  ops attempted=%d failed=%d  passes stolen from=%d\n",
		res.Workload, res.Seed, mode, res.Attempted, res.Failed, res.Discarded)
	for _, m := range set {
		fmt.Printf("  %-28s %16.6g %s\n", m.Name, res.Metrics[m.Name], m.Unit)
	}
	if len(res.Gauges) > 0 {
		fmt.Printf("  -- host time of a pass (not gated): pass.wall_s=%.4g s pass.cpu_s=%.4g s\n",
			res.Gauges["pass.wall_s"], res.Gauges["pass.cpu_s"])
		fmt.Printf("  -- noise gauges: passes=%g spread=%.2f%% steal=%.2f%% gc.cycles=%g gc.pause=%.2fms\n",
			res.Gauges["pass.count"], res.Gauges["pass.spread_pct"], res.Gauges["host.steal_pct"],
			res.Gauges["gc.cycles"], res.Gauges["gc.pause_ms"])
	}
	for _, n := range res.Notes {
		fmt.Printf("  !! %s\n", n)
	}
	if res.SpansFile != "" {
		fmt.Printf("  -- spans: %s\n", res.SpansFile)
	}
}

type finalMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// printFinal prints the contract's last line. With one workload the
// metric names are bare; with several each is prefixed "<workload>/".
func printFinal(results []*childResult, set []metricDecl) {
	final := struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]finalMetric `json:"metrics"`
	}{Correct: true, Metrics: map[string]finalMetric{}}
	for _, res := range results {
		final.Correct = final.Correct && res.Correct
		final.Attempted += res.Attempted
		final.Failed += res.Failed
		prefix := ""
		if len(results) > 1 {
			prefix = res.Workload + "/"
		}
		for _, m := range set {
			final.Metrics[prefix+m.Name] = finalMetric{Value: res.Metrics[m.Name], Unit: m.Unit}
		}
	}
	b, err := json.Marshal(final)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmarks: encode result:", err)
		os.Exit(2)
	}
	fmt.Println(string(b))
}

// selfcheck runs the untraced suite twice back to back and prints, per
// workload × end-to-end metric, the relative difference between the
// two. Any difference beyond the metric's bound in BENCHMARK.json fails
// the check: the benchmark cannot tell a regression of that size from
// its own noise.
func (r *runner) selfcheck(names []string) int {
	bj, err := loadBenchmarkJSON()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmarks:", err)
		return 2
	}
	bounds := bj.bounds()
	r.trace = false
	first, code := r.runAll(names)
	if code != 0 {
		return code
	}
	second, code := r.runAll(names)
	if code != 0 {
		return code
	}
	fmt.Printf("\nselfcheck: |run1 − run2| ÷ mean, in %% (bound in parentheses)\n%-14s", "")
	for _, w := range names {
		fmt.Printf(" %16s", w)
	}
	fmt.Println()
	bad := 0
	for _, m := range endToEnd {
		fmt.Printf("%-14s", m.Name)
		for i := range names {
			d := relDiff(first[i].Metrics[m.Name], second[i].Metrics[m.Name])
			mark := " "
			if d > bounds[m.Name] {
				mark = "!"
				bad++
			}
			fmt.Printf(" %8.3f%s(%4.1f)", d*100, mark, bounds[m.Name]*100)
		}
		fmt.Println()
	}
	if bad > 0 {
		fmt.Printf("selfcheck: FAILED — %d cells beyond their bound\n", bad)
		return 1
	}
	fmt.Println("selfcheck: ok")
	return 0
}
