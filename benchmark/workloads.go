package main

import (
	"encoding/json"
	"fmt"
	"os"
	"strconv"

	"flick/benchmark/loadgen"
)

// The load model, fixed for every workload and recorded with the results:
// closed loop, this many client connections and proxy workers, the harness
// itself on this many Ps, this many origins behind the proxy, and this many
// timed repetitions whose median is the reported figure.
const (
	clientConns   = 2
	proxyWorkers  = 2
	harnessProcs  = 1
	originCount   = 4
	repetitions   = 5
	setupExecs    = 4       // proxy execs per repetition of setup_s, after one discarded cold exec
	streamOps     = 1 << 18 // requests generated per connection, then cycled
	connSetupRuns = 200
)

// workload is one traffic mix with the flickrun flags it runs against. The
// reason each exists is in BENCHMARK.json ("why") and README.md.
type workload struct {
	Name    string
	Service string
	Traffic loadgen.Traffic
	// Cache runs flickrun with -cache, CacheMaxBytes (when not 0) with
	// -cache-max-bytes; the layer replay builds its cache the same way.
	Cache         bool
	CacheMaxBytes int64
}

// flags are the flickrun flags the workload adds to the common ones.
func (w *workload) flags() []string {
	var f []string
	if w.Cache {
		f = append(f, "-cache")
	}
	if w.CacheMaxBytes != 0 {
		f = append(f, "-cache-max-bytes", strconv.FormatInt(w.CacheMaxBytes, 10))
	}
	return f
}

var workloads = []workload{
	{Name: "mc-small", Service: "memcachedproxy",
		Traffic: loadgen.Traffic{Proto: loadgen.Memcached, Keys: 10000, ValueSize: 64, Window: 8}},
	{Name: "mc-hot-cached", Service: "memcachedproxy", Cache: true,
		Traffic: loadgen.Traffic{Proto: loadgen.Memcached, Keys: 1000, ValueSize: 64, Window: 8, HotPct: 50, ZipfS: 1.1}},
	{Name: "mc-rw-cached", Service: "memcachedproxy", Cache: true, CacheMaxBytes: 4 << 20,
		Traffic: loadgen.Traffic{Proto: loadgen.Memcached, Keys: 50000, ValueSize: 512, Window: 8, SetPct: 10, ZipfS: 1.01}},
	{Name: "http-small", Service: "httplb",
		Traffic: loadgen.Traffic{Proto: loadgen.HTTP, Keys: 1000, ValueSize: 137, Window: 1}},
	{Name: "http-large", Service: "httplb",
		Traffic: loadgen.Traffic{Proto: loadgen.HTTP, Keys: 1000, ValueSize: 64 << 10, Window: 1}},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}

// metricSpec is one metric as BENCHMARK.json declares it.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// benchSpec is BENCHMARK.json: the single list of metric names, units,
// directions and regression bounds. The harness computes values by name and
// reads everything else about a metric from here.
type benchSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func loadSpec(path string) (*benchSpec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(s.Workloads) != len(workloads) {
		return nil, fmt.Errorf("%s names %d workloads, the harness has %d", path, len(s.Workloads), len(workloads))
	}
	for _, w := range s.Workloads {
		if findWorkload(w.Name) == nil {
			return nil, fmt.Errorf("%s names workload %q, which the harness does not have", path, w.Name)
		}
	}
	return &s, nil
}

func (s *benchSpec) why(name string) string {
	for _, w := range s.Workloads {
		if w.Name == name {
			return w.Why
		}
	}
	return ""
}
