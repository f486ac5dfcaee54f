package main

import (
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// buildFlickrun builds the program under test from the enclosing module.
func buildFlickrun(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "flickrun")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/flickrun")
	cmd.Dir = ".."
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build ./cmd/flickrun: %v\n%s", err, out)
	}
	return bin
}

func selfRun(t *testing.T, bin, out string, extra ...string) error {
	t.Helper()
	args := []string{"-flickrun", bin, "-spec", filepath.Join("..", "BENCHMARK.json"), "-out", out,
		"-seconds", "0.3", "-warmup", "100ms", "-replay-messages", "1000"}
	return run(append(args, extra...))
}

func readJSON(t *testing.T, path string, v any) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, v); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
}

// Every workload runs end to end against a freshly built flickrun, and
// every metric BENCHMARK.json names comes out present and finite.
func TestEveryWorkloadReportsEveryMetric(t *testing.T) {
	bin, out := buildFlickrun(t), t.TempDir()
	if err := selfRun(t, bin, out); err != nil {
		t.Fatal(err)
	}
	spec, err := loadSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var res results
	readJSON(t, filepath.Join(out, "results.json"), &res)
	if res.Claim != nil {
		t.Errorf("claim = %q, want null", *res.Claim)
	}
	for _, w := range spec.Workloads {
		r := res.Workloads[w.Name]
		if r == nil {
			t.Fatalf("%s: not in results.json", w.Name)
		}
		if r.Failed != 0 || r.FailRatio != 0 || r.Attempted == 0 {
			t.Errorf("%s: attempted %d, failed %d %v", w.Name, r.Attempted, r.Failed, r.FailByKind)
		}
		for _, m := range spec.EndToEnd {
			if s, ok := r.EndToEnd[m.Name]; !ok || math.IsNaN(s.Value) || math.IsInf(s.Value, 0) || s.Value <= 0 {
				t.Errorf("%s: end-to-end %s = %v (present %v), want a positive number", w.Name, m.Name, s.Value, ok)
			}
		}
		for _, m := range spec.PerLayer {
			if v, ok := r.PerLayer[m.Name]; !ok || v == nil || math.IsNaN(*v) || math.IsInf(*v, 0) {
				t.Errorf("%s: per-layer %s missing or not finite", w.Name, m.Name)
			}
		}
		if len(r.PerLayer) != len(spec.PerLayer) {
			t.Errorf("%s: harness measures %d per-layer metrics, BENCHMARK.json names %d", w.Name, len(r.PerLayer), len(spec.PerLayer))
		}
		if len(r.EndToEnd) != len(spec.EndToEnd) {
			t.Errorf("%s: harness measures %d end-to-end metrics, BENCHMARK.json names %d", w.Name, len(r.EndToEnd), len(spec.EndToEnd))
		}
		if leak := r.PerLayer["buffer.ref_leak"]; leak != nil && *leak != 0 {
			t.Errorf("%s: buffer.ref_leak = %v", w.Name, *leak)
		}

		// The trace: every span names its parent, roots name none, and the
		// children account for their root.
		var tr struct {
			Share float64 `json:"child_self_share_of_root"`
			Spans [][]any `json:"spans"`
		}
		readJSON(t, filepath.Join(out, "trace-"+w.Name+".json"), &tr)
		if tr.Share < 0.95 {
			t.Errorf("%s: child spans cover %.3f of the root spans, want >= 0.95", w.Name, tr.Share)
		}
		roots := 0
		for _, sp := range tr.Spans {
			id, parent, name := sp[0].(float64), sp[1].(float64), sp[3].(string)
			if (name == "request") != (parent == -1) || parent >= id {
				t.Fatalf("%s: span %v has parent %v", w.Name, sp, parent)
			}
			if parent == -1 {
				roots++
			}
		}
		if roots != 1000 {
			t.Errorf("%s: %d root spans for 1000 replayed messages", w.Name, roots)
		}
	}
}

// A corrupted byte anywhere on the path must not pass as a response.
func TestCorruptOriginFailsTheRun(t *testing.T) {
	bin, out := buildFlickrun(t), t.TempDir()
	for _, w := range []string{"mc-small", "http-large"} {
		if err := selfRun(t, bin, out, "-workload", w, "-trace", "0", "-corrupt-origin"); err == nil {
			t.Errorf("%s: a run whose origins corrupt every body exited zero", w)
		}
		var res results
		readJSON(t, filepath.Join(out, "results.json"), &res)
		if r := res.Workloads[w]; r == nil || r.FailRatio == 0 || r.FailByKind["wrong_value"] == 0 {
			t.Errorf("%s: corruption not counted: %+v", w, r)
		}
	}
}

// A program that has lost one of the flags the benchmark passes must fail
// the run, not be skipped.
func TestMissingFlagFailsTheRun(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "flickrun")
	script := "#!/bin/sh\necho 'flag provided but not defined: -cache' >&2\nexit 2\n"
	if err := os.WriteFile(bin, []byte(script), 0o755); err != nil {
		t.Fatal(err)
	}
	err := selfRun(t, bin, t.TempDir(), "-workload", "mc-hot-cached", "-trace", "0")
	if err == nil || !strings.Contains(err.Error(), "flag provided but not defined") {
		t.Fatalf("flickrun rejected a flag and the run said: %v", err)
	}
}
