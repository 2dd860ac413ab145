package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// lintRun calls run on args with both output streams in a temporary
// file, and returns the exit status and what was written.
func lintRun(t *testing.T, args ...string) (int, string) {
	t.Helper()
	out, err := os.Create(filepath.Join(t.TempDir(), "out"))
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()
	code := run(args, out, out)
	text, err := os.ReadFile(out.Name())
	if err != nil {
		t.Fatal(err)
	}
	return code, string(text)
}

func TestRunCleanPackage(t *testing.T) {
	if code, out := lintRun(t, "./internal/ring"); code != 0 {
		t.Fatalf("run ./internal/ring = %d, want 0:\n%s", code, out)
	}
}

func TestRunWritesSARIF(t *testing.T) {
	path := filepath.Join(t.TempDir(), "report.sarif")
	if code, out := lintRun(t, "-sarif", path, "./internal/ring"); code != 0 {
		t.Fatalf("run -sarif = %d, want 0:\n%s", code, out)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc sarifLog
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("report is not JSON: %v", err)
	}
	if doc.Version != "2.1.0" || len(doc.Runs) != 1 {
		t.Fatalf("report version %q with %d runs, want 2.1.0 with 1", doc.Version, len(doc.Runs))
	}
	if r := doc.Runs[0].Results; len(r) != 0 {
		t.Errorf("clean package reported %d results: %+v", len(r), r)
	}
}

func TestRunOverBudget(t *testing.T) {
	if code, out := lintRun(t, "-budget", "1ns", "./internal/ring"); code != 1 {
		t.Fatalf("run -budget 1ns = %d, want 1:\n%s", code, out)
	}
}

func TestRunUnknownFlag(t *testing.T) {
	if code, _ := lintRun(t, "-no-such-flag"); code != 2 {
		t.Fatalf("run -no-such-flag = %d, want 2", code)
	}
}
