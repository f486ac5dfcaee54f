package main

import (
	"path/filepath"
	"strings"
	"testing"
)

func TestCompareVerdicts(t *testing.T) {
	spec := &benchSpec{EndToEnd: []metricSpec{
		{Name: "req_per_s", Unit: "1/s", Better: "higher", Bound: 0.10},
		{Name: "p50_us", Unit: "us", Better: "lower", Bound: 0.10},
	}}
	spec.Workloads = append(spec.Workloads, struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}{Name: "w"})
	file := func(name string, rate, p50 []float64, failRatio float64) string {
		path := filepath.Join(t.TempDir(), name)
		res := &results{Workloads: map[string]*workloadResult{"w": {
			EndToEnd:  map[string]stat{"req_per_s": newStat(rate), "p50_us": newStat(p50)},
			FailRatio: failRatio,
		}}}
		if err := writeJSON(path, res); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := file("a.json", []float64{100, 101, 99}, []float64{50, 50.5, 49.5}, 0)

	if err := compareFiles(spec, base, file("same.json", []float64{96, 97, 95}, []float64{52, 52.5, 51.5}, 0)); err != nil {
		t.Errorf("4%% worse on a 10%% bound: %v", err)
	}
	if err := compareFiles(spec, base, file("slow.json", []float64{85, 86, 84}, []float64{50, 50.5, 49.5}, 0)); err == nil {
		t.Error("15% less throughput passed a 10% bound")
	}
	if err := compareFiles(spec, base, file("late.json", []float64{100, 101, 99}, []float64{56, 56.5, 55.5}, 0)); err == nil {
		t.Error("12% more latency passed a 10% bound")
	}
	if err := compareFiles(spec, base, file("fail.json", []float64{100, 101, 99}, []float64{50, 50.5, 49.5}, 1e-6)); err == nil {
		t.Error("a rise in fail_ratio passed")
	}
	// Better numbers whose repetitions scatter wider than the bound are
	// not a regression, and not a verdict either.
	if err := compareFiles(spec, base, file("noisy.json", []float64{80, 110, 140, 100, 120}, []float64{50, 50.5, 49.5}, 0)); err != nil {
		t.Errorf("unresolved rows must not fail the comparison: %v", err)
	}
	if err := compareFiles(spec, base, filepath.Join(t.TempDir(), "missing.json")); err == nil || !strings.Contains(err.Error(), "missing.json") {
		t.Errorf("missing file: %v", err)
	}
}
