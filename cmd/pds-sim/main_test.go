package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRunModes drives run through each kind of simulation it offers,
// every one small enough to finish in well under a second.
func TestRunModes(t *testing.T) {
	grid := []string{"-rows", "3", "-cols", "3", "-entries", "50", "-size", "1"}
	for _, args := range [][]string{
		append([]string{"-mode", "pdd"}, grid...),
		append([]string{"-mode", "pdr"}, grid...),
		append([]string{"-mode", "mdr"}, grid...),
		{"-workload", "stream:segs=2"},
		{"-workload", "crowd:clients=2"},
		{"-nodes", "200", "-deadline", "30s"},
		{"-mobility", "classroom", "-entries", "50"},
	} {
		if err := run(args); err != nil {
			t.Errorf("run(%q): %v", args, err)
		}
	}
}

// TestRunWritesTraceUnderFaults: a fault plan and -trace-out together
// run, and the trace file holds events.
func TestRunWritesTraceUnderFaults(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	args := []string{"-mode", "pdd", "-rows", "3", "-cols", "3", "-entries", "50",
		"-fault-plan", "crash:1@1s+2s;burst@0s+5s:0.2", "-trace-out", path}
	if err := run(args); err != nil {
		t.Fatalf("run(%q): %v", args, err)
	}
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if info.Size() == 0 {
		t.Fatalf("%s is empty", path)
	}
}

// TestRunRejectsBadInput: a plan that does not parse and an unknown
// mode are errors.
func TestRunRejectsBadInput(t *testing.T) {
	for args, want := range map[string]string{
		"-fault-plan crash:1@1s+-2s": "negative",
		"-mode bogus":                "unknown mode",
	} {
		argv := append(strings.Fields(args), "-rows", "3", "-cols", "3", "-entries", "50")
		if err := run(argv); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("run(%q) = %v, want an error containing %q", argv, err, want)
		}
	}
}
