// Command benchmark is the out-of-process regression benchmark: it execs a
// separately built flickrun, drives it over kernel TCP on the host's
// loopback interface with its own load generator and origins, reads the
// proxy's cost from /proc, and in a separate traced run scrapes the admin
// API and replays the workload through each layer. See README.md.
//
//	bash benchmark/run.sh                          every workload, both runs → benchmark/out/results.json
//	bash benchmark/run.sh -workload mc-small -trace 0
//	bash benchmark/run.sh -compare a.json b.json
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// results is benchmark/out/results.json and the ledger format.
type results struct {
	Benchmark string                     `json:"benchmark"`
	Claim     *string                    `json:"claim"` // this benchmark claims no gain
	Env       env                        `json:"env"`
	Config    config                     `json:"config"`
	Workloads map[string]*workloadResult `json:"workloads"`
}

// config records the load model the numbers were taken under.
type config struct {
	Seed         int64   `json:"seed"`
	Seconds      float64 `json:"seconds"`
	RepSeconds   float64 `json:"rep_seconds"`
	Repetitions  int     `json:"repetitions"`
	WarmupSecs   float64 `json:"warmup_seconds"`
	LoadModel    string  `json:"load_model"`
	Connections  int     `json:"connections"`
	ProxyWorkers int     `json:"proxy_workers"`
	ProxyCPUs    string  `json:"proxy_cpus"`   // "": not confined
	HarnessCPUs  string  `json:"harness_cpus"` // the harness's own affinity
	Origins      int     `json:"origins"`
	Link         string  `json:"link"`
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	flag := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	var (
		name    = flag.String("workload", "all", "workload to run, or all")
		seed    = flag.Int64("seed", 1, "seed of the request streams")
		seconds = flag.Float64("seconds", 0, "timed seconds per workload, split over the repetitions (0: run_seconds of BENCHMARK.json)")
		trace   = flag.String("trace", "both", "0: end-to-end run, 1: traced per-layer run, both")
		warmup  = flag.Duration("warmup", 2*time.Second, "warm-up before the timed repetitions")
		replay  = flag.Int("replay-messages", 20000, "messages the layer replay takes from the workload's stream")
		cpus    = flag.String("proxy-cpus", "", "CPU list to confine the proxy to, as taskset -c takes it (run.sh: every CPU but the harness's)")
		bin     = flag.String("flickrun", filepath.Join(".bench_build", "flickrun"), "the flickrun binary under test")
		specP   = flag.String("spec", "BENCHMARK.json", "the metric and workload declaration")
		outDir  = flag.String("out", filepath.Join("benchmark", "out"), "directory for results.json and trace files")
		compare = flag.Bool("compare", false, "compare two results files given as arguments against the bounds in -spec")
		corrupt = flag.Bool("corrupt-origin", false, "fault injection: origins flip one byte of every value or body")
	)
	if err := flag.Parse(args); err != nil {
		return err
	}
	spec, err := loadSpec(*specP)
	if err != nil {
		return err
	}
	if *compare {
		if flag.NArg() != 2 {
			return errors.New("-compare needs two results files")
		}
		return compareFiles(spec, flag.Arg(0), flag.Arg(1))
	}
	if *trace != "0" && *trace != "1" && *trace != "both" {
		return fmt.Errorf("-trace %q: want 0, 1 or both", *trace)
	}
	if *seconds <= 0 {
		*seconds = float64(spec.RunSeconds)
	}
	run := workloads
	if *name != "all" {
		w := findWorkload(*name)
		if w == nil {
			return fmt.Errorf("no workload %q", *name)
		}
		run = []workload{*w}
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		return err
	}

	runtime.GOMAXPROCS(harnessProcs)
	rep := time.Duration(*seconds / repetitions * float64(time.Second))
	h := &harness{bin: *bin, cpus: *cpus, seed: *seed, rep: rep, warm: *warmup, corrupt: *corrupt, outDir: *outDir, replayMsgs: *replay}
	res := &results{
		Benchmark: "flick out-of-process regression benchmark",
		Env:       fingerprint(),
		Config: config{Seed: *seed, Seconds: *seconds, RepSeconds: rep.Seconds(), Repetitions: repetitions,
			WarmupSecs: warmup.Seconds(), LoadModel: "closed loop", Connections: clientConns,
			ProxyWorkers: proxyWorkers, ProxyCPUs: *cpus, HarnessCPUs: cpusAllowed(), Origins: originCount, Link: "host loopback, not a real link"},
		Workloads: map[string]*workloadResult{},
	}
	fmt.Printf("flick regression benchmark: closed loop, %d connections, proxy -workers %d, %d origins, %d × %.2fs repetitions, seed %d\n",
		clientConns, proxyWorkers, originCount, repetitions, rep.Seconds(), *seed)
	fmt.Printf("harness on CPU %s (GOMAXPROCS %d), proxy on CPU %q; traffic crosses the host loopback, not a real link\n",
		res.Config.HarnessCPUs, harnessProcs, *cpus)
	fmt.Printf("%d CPUs, load average %.2f\n", res.Env.NProc, res.Env.LoadAvgStart)
	if res.Env.Noisy {
		fmt.Println("NOISY: the load average is above the CPU count; the box is busy with something else")
	}

	var last *workloadResult
	for i := range run {
		w := &run[i]
		r := &workloadResult{Why: spec.why(w.Name), FailByKind: map[string]uint64{}}
		res.Workloads[w.Name] = r
		last = r
		if *trace != "1" {
			if err := h.untraced(w, r); err != nil {
				return err
			}
		}
		if *trace != "0" {
			if err := h.traced(w, r); err != nil {
				return err
			}
		}
		printWorkload(spec, w.Name, r)
	}
	res.Env.finish(res)
	out := filepath.Join(*outDir, "results.json")
	if err := writeJSON(out, res); err != nil {
		return err
	}
	fmt.Printf("\nresults: %s\n", out)

	var failed uint64
	for _, r := range res.Workloads {
		failed += r.Failed
	}
	// One workload, one kind of run: the driver's form. Its last line of
	// output is the result object.
	if len(run) == 1 && *trace != "both" {
		if err := printDriverLine(spec, last, *trace == "1"); err != nil {
			return err
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d requests failed verification", failed)
	}
	return nil
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// printWorkload prints every metric measured for one workload by name,
// with its unit.
func printWorkload(spec *benchSpec, name string, r *workloadResult) {
	fmt.Printf("\n== %s — %s\n", name, r.Why)
	fmt.Printf("   attempted %d, failed %d, fail_ratio %g %v\n", r.Attempted, r.Failed, r.FailRatio, r.FailByKind)
	for _, m := range spec.EndToEnd {
		if s, ok := r.EndToEnd[m.Name]; ok {
			fmt.Printf("   %-34s %14.4f %-6s (min %.4f, max %.4f, n=%d)\n", m.Name, s.Value, m.Unit, s.Min, s.Max, s.N)
		}
	}
	if r.PerLayer == nil {
		return
	}
	for _, m := range spec.PerLayer {
		switch v, ok := r.PerLayer[m.Name]; {
		case !ok:
			fmt.Printf("   %-42s %14s %s\n", m.Name, "not measured", m.Unit)
		case v == nil:
			fmt.Printf("   %-42s %14s %s\n", m.Name, "null", m.Unit)
		default:
			fmt.Printf("   %-42s %14.4f %s\n", m.Name, *v, m.Unit)
		}
	}
	fmt.Printf("   layer replay: child spans' self time covers %.1f%% of the root spans\n", 100*r.ChildSelfShare)
}

// printDriverLine prints the one-object result line: every end-to-end
// metric of an untraced run, or every per-layer metric of a traced one.
func printDriverLine(spec *benchSpec, r *workloadResult, traced bool) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	if traced {
		for _, m := range spec.PerLayer {
			// The line carries numbers only: a counter the program no
			// longer exports (null in results.json) reads 0 here.
			v := value{Unit: m.Unit}
			if p := r.PerLayer[m.Name]; p != nil {
				v.Value = *p
			}
			metrics[m.Name] = v
		}
	} else {
		for _, m := range spec.EndToEnd {
			s, ok := r.EndToEnd[m.Name]
			if !ok {
				return fmt.Errorf("BENCHMARK.json declares end-to-end metric %q, which the harness does not measure", m.Name)
			}
			metrics[m.Name] = value{s.Value, m.Unit}
		}
	}
	line, err := json.Marshal(map[string]any{
		"correct": r.Failed == 0, "attempted": r.Attempted, "failed": r.Failed, "metrics": metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}
