package main

import (
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
)

// env fingerprints the box and the build a results file came from, so two
// files can be told apart when their numbers differ.
type env struct {
	NProc        int     `json:"nproc"`
	GOMAXPROCS   int     `json:"gomaxprocs"`
	GoVersion    string  `json:"go_version"`
	Kernel       string  `json:"kernel"`
	GitCommit    string  `json:"git_commit"`
	LoadAvgStart float64 `json:"loadavg_1m_start"`
	LoadAvgEnd   float64 `json:"loadavg_1m_end"`
	// Noisy marks a run started with more runnable work than CPUs.
	Noisy bool `json:"noisy"`
	// LoopbackRTTp50Us is the noise sentinel, per workload: the harness's
	// clients against its origins with no proxy. If it differs by more
	// than 10 % between two files, the box drifted, not the code.
	LoopbackRTTp50Us map[string]float64 `json:"loopback_rtt_p50_us,omitempty"`
}

func fingerprint() env {
	e := env{NProc: nproc(), GOMAXPROCS: harnessProcs, GoVersion: runtime.Version(),
		Kernel: "unknown", GitCommit: "unknown", LoadAvgStart: loadAvg()}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		e.Kernel = strings.TrimSpace(string(b))
	}
	// A driver's checkout is not a git repository; "unknown" is right there.
	if b, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		e.GitCommit = strings.TrimSpace(string(b))
	}
	e.Noisy = e.LoadAvgStart > float64(e.NProc)
	return e
}

func (e *env) finish(res *results) {
	e.LoadAvgEnd = loadAvg()
	for name, r := range res.Workloads {
		if v := r.PerLayer["netstack.loopback_rtt_p50_us"]; v != nil {
			if e.LoopbackRTTp50Us == nil {
				e.LoopbackRTTp50Us = map[string]float64{}
			}
			e.LoopbackRTTp50Us[name] = *v
		}
	}
}

func loadAvg() float64 {
	b, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return -1
	}
	f := strings.Fields(string(b))
	if len(f) == 0 {
		return -1
	}
	v, err := strconv.ParseFloat(f[0], 64)
	if err != nil {
		return -1
	}
	return v
}

// nproc counts the box's CPUs, not the ones this process may run on:
// run.sh confines the harness to one.
func nproc() int {
	b, err := os.ReadFile("/proc/cpuinfo")
	if n := strings.Count("\n"+string(b), "\nprocessor"); err == nil && n > 0 {
		return n
	}
	return runtime.NumCPU()
}

// cpusAllowed is the CPU list this process may run on.
func cpusAllowed() string {
	b, _ := os.ReadFile("/proc/self/status")
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "Cpus_allowed_list:"); ok {
			return strings.TrimSpace(rest)
		}
	}
	return "unknown"
}
