package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"slices"
)

func readResults(path string) (*results, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r results
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// spread is the distance between the first and third quartile of a metric's
// own repetitions as a share of their median — the same measure, by the same
// quartile rule (Python's statistics.quantiles), that the benchmark's bounds
// are accepted by. One repetition has no spread.
func (s stat) spread() float64 {
	v := slices.Clone(s.Samples)
	slices.Sort(v)
	n := len(v)
	if n < 2 {
		return 0
	}
	quartile := func(k int) float64 {
		pos := float64(k*(n+1)) / 4 // 1-based position, exclusive method
		j := min(max(int(pos), 1), n-1)
		return v[j-1] + (pos-float64(j))*(v[j]-v[j-1])
	}
	return (quartile(3) - quartile(1)) / math.Abs(s.Value)
}

// compareFiles prints one row per workload × end-to-end metric: how much
// worse b is than a, against the metric's bound. A row whose repetitions'
// quartiles lie further apart than the bound is unresolved — the benchmark
// cannot tell.
// The error return makes the command exit non-zero when any row is outside
// its bound.
func compareFiles(spec *benchSpec, pathA, pathB string) error {
	a, err := readResults(pathA)
	if err != nil {
		return err
	}
	b, err := readResults(pathB)
	if err != nil {
		return err
	}
	fmt.Printf("a: %s (commit %.12s, seed %d, %gs reps)\nb: %s (commit %.12s, seed %d, %gs reps)\n",
		pathA, a.Env.GitCommit, a.Config.Seed, a.Config.RepSeconds, pathB, b.Env.GitCommit, b.Config.Seed, b.Config.RepSeconds)
	fmt.Printf("%-14s %-16s %14s %14s %9s %7s  %s\n", "workload", "metric", "a", "b", "worse by", "bound", "verdict")
	outside, unresolved := 0, 0
	for _, w := range spec.Workloads {
		ra, rb := a.Workloads[w.Name], b.Workloads[w.Name]
		if ra == nil || rb == nil {
			fmt.Printf("%-14s missing from one file\n", w.Name)
			outside++
			continue
		}
		for _, m := range spec.EndToEnd {
			sa, okA := ra.EndToEnd[m.Name]
			sb, okB := rb.EndToEnd[m.Name]
			if !okA || !okB {
				fmt.Printf("%-14s %-16s missing from one file\n", w.Name, m.Name)
				outside++
				continue
			}
			worse := (sb.Value - sa.Value) / math.Abs(sa.Value)
			if m.Better == "higher" {
				worse = -worse
			}
			verdict := "ok"
			switch {
			case worse > m.Bound:
				verdict = "OUTSIDE"
				outside++
			case math.Max(sa.spread(), sb.spread()) > m.Bound:
				verdict = "unresolved"
				unresolved++
			}
			fmt.Printf("%-14s %-16s %14.4f %14.4f %+8.1f%% %6.0f%%  %s\n", w.Name, m.Name, sa.Value, sb.Value, 100*worse, 100*m.Bound, verdict)
		}
		// Failures have no bound: any increase is outside.
		verdict := "ok"
		if rb.FailRatio > ra.FailRatio {
			verdict = "OUTSIDE"
			outside++
		}
		fmt.Printf("%-14s %-16s %14g %14g %9s %7s  %s\n", w.Name, "fail_ratio", ra.FailRatio, rb.FailRatio, "", "none", verdict)
		sentinel := "netstack.loopback_rtt_p50_us"
		if va, vb := ra.PerLayer[sentinel], rb.PerLayer[sentinel]; va != nil && vb != nil && math.Abs(*vb-*va) / *va > 0.10 {
			fmt.Printf("%-14s note: the loopback sentinel moved %.1f → %.1f µs: the box drifted between the two files\n", w.Name, *va, *vb)
		}
	}
	fmt.Printf("%d outside, %d unresolved\n", outside, unresolved)
	if outside > 0 {
		return fmt.Errorf("%d rows outside their bound", outside)
	}
	return nil
}
