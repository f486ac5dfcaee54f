package bench

import (
	"strings"
	"testing"
	"time"

	"flick/internal/core"
)

// Small parameters keep these integration tests fast; the full-scale runs
// live in cmd/flickbench and the root bench_test.go.

func TestWebServerExperimentSmoke(t *testing.T) {
	pts, err := RunWebServer(WebServerConfig{
		Systems:    []System{SysFlickMTCP, SysNginx},
		Clients:    []int{8},
		Persistent: true,
		Duration:   200 * time.Millisecond,
		Workers:    4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 {
		t.Fatalf("points = %d", len(pts))
	}
	for _, p := range pts {
		if p.Throughput <= 0 {
			t.Fatalf("%s: zero throughput (errors=%d)", p.System, p.Errors)
		}
	}
	tbl := WebServerTable(pts, true)
	if !strings.Contains(tbl.String(), "req/s") {
		t.Fatal("table rendering")
	}
}

func TestFig4Smoke(t *testing.T) {
	pts, err := RunFig4(Fig4Config{
		Systems:    []System{SysFlickMTCP, SysApache},
		Clients:    []int{8},
		Backends:   2,
		Persistent: true,
		Duration:   200 * time.Millisecond,
		Workers:    4,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pts {
		if p.Throughput <= 0 {
			t.Fatalf("%s: zero throughput (errors=%d)", p.System, p.Errors)
		}
	}
	if s := Fig4Table(pts, true).String(); !strings.Contains(s, "Figure 4a") {
		t.Fatalf("table: %s", s)
	}
}

// TestFig4RealOriginSmoke fronts stock net/http origins serving chunked
// responses: the cell fails unless every origin route round-trips through
// the load balancer byte-identical to a direct per-client dial, then the
// measured load itself runs at the chunked route.
func TestFig4RealOriginSmoke(t *testing.T) {
	pts, err := RunFig4(Fig4Config{
		Systems:    []System{SysFlickMTCP},
		Clients:    []int{4},
		Backends:   2,
		Persistent: true,
		Duration:   200 * time.Millisecond,
		Workers:    4,
		RealOrigin: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pts {
		if p.Throughput <= 0 {
			t.Fatalf("%s: zero throughput against real origin (errors=%d)", p.System, p.Errors)
		}
		if p.Errors != 0 {
			t.Fatalf("%s: %d errors against real origin", p.System, p.Errors)
		}
	}
}

func TestFig4NonPersistentSmoke(t *testing.T) {
	pts, err := RunFig4(Fig4Config{
		Systems:    []System{SysFlickMTCP},
		Clients:    []int{4},
		Backends:   2,
		Persistent: false,
		Duration:   200 * time.Millisecond,
		Workers:    4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if pts[0].Throughput <= 0 {
		t.Fatalf("zero non-persistent throughput (errors=%d)", pts[0].Errors)
	}
	if s := Fig4Table(pts, false).String(); !strings.Contains(s, "4c/4d") {
		t.Fatal("table label")
	}
}

func TestFig5Smoke(t *testing.T) {
	pts, err := RunFig5(Fig5Config{
		Systems:  []System{SysFlickMTCP, SysMoxi},
		Cores:    []int{2},
		Clients:  16,
		Backends: 2,
		Keys:     200,
		Duration: 200 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pts {
		if p.Throughput <= 0 {
			t.Fatalf("%s: zero throughput (errors=%d)", p.System, p.Errors)
		}
	}
	if s := Fig5Table(pts).String(); !strings.Contains(s, "Figure 5") {
		t.Fatal("table label")
	}
}

func TestFig6Smoke(t *testing.T) {
	pts, err := RunFig6(Fig6Config{
		Cores:      []int{2},
		WordLens:   []int{8},
		Mappers:    4,
		BytesPer:   256 << 10,
		Distinct:   100,
		UseUserNet: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if pts[0].ThroughputMbps <= 0 || pts[0].Pairs == 0 {
		t.Fatalf("fig6 point = %+v", pts[0])
	}
	if s := Fig6Table(pts).String(); !strings.Contains(s, "Figure 6") {
		t.Fatal("table label")
	}
}

func TestFig7AllPolicies(t *testing.T) {
	pts, err := RunFig7(Fig7Config{
		Tasks:        40,
		ItemsPerTask: 32,
		Workers:      4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 3 {
		t.Fatalf("policies = %d", len(pts))
	}
	for _, p := range pts {
		if p.LightCompletion <= 0 || p.HeavyCompletion <= 0 {
			t.Fatalf("%s: zero completion times", p.Policy)
		}
		if p.LightCompletion > p.Total+time.Millisecond {
			t.Fatalf("%s: light completion beyond total", p.Policy)
		}
	}
	if s := Fig7Table(pts).String(); !strings.Contains(s, "Figure 7") {
		t.Fatal("table label")
	}
}

func TestFig7CooperativeFairness(t *testing.T) {
	// The headline qualitative result: under the cooperative policy light
	// tasks complete well before the heavy ones.
	pts, err := RunFig7(Fig7Config{
		Tasks:        80,
		ItemsPerTask: 128,
		Workers:      2,
		Policies:     []core.Policy{core.Cooperative},
	})
	if err != nil {
		t.Fatal(err)
	}
	p := pts[0]
	if p.LightCompletion >= p.HeavyCompletion {
		t.Fatalf("cooperative: light (%v) should finish before heavy (%v)",
			p.LightCompletion, p.HeavyCompletion)
	}
}

func TestTimesliceAblation(t *testing.T) {
	pts := RunTimesliceAblation([]time.Duration{50 * time.Microsecond, time.Millisecond}, 2)
	if len(pts) != 2 {
		t.Fatalf("points = %d", len(pts))
	}
	if s := TimesliceTable(pts).String(); !strings.Contains(s, "quantum") {
		t.Fatal("table")
	}
}

func TestSchedulerScaling(t *testing.T) {
	var pts []SchedScalePoint
	for _, w := range []int{1, 2} {
		pts = append(pts, RunSchedulerScaling(SchedScaleConfig{
			Workers:        w,
			Sources:        4,
			Stages:         8,
			ItemsPerSource: 128,
		}))
	}
	for _, p := range pts {
		if p.Items != 4*128 {
			t.Fatalf("workers=%d processed %d items, want %d", p.Workers, p.Items, 4*128)
		}
		if p.ItemsPerSec() <= 0 || p.OpsPerSec() <= 0 {
			t.Fatalf("workers=%d: no throughput measured: %+v", p.Workers, p)
		}
		if p.Stats.Executed == 0 || p.Stats.Scheduled == 0 {
			t.Fatalf("workers=%d: scheduler stats empty: %+v", p.Workers, p.Stats)
		}
	}
	if s := SchedScaleTable(pts).String(); !strings.Contains(s, "workers") {
		t.Fatal("table")
	}
}

func TestParserPruningAblation(t *testing.T) {
	pts := RunParserPruningAblation(2000, 4096)
	if len(pts) != 2 {
		t.Fatalf("points = %d", len(pts))
	}
	full, pruned := pts[0], pts[1]
	if full.Pruned || !pruned.Pruned {
		t.Fatal("point order")
	}
	if pruned.MsgsPerS <= 0 || full.MsgsPerS <= 0 {
		t.Fatal("zero rates")
	}
	if s := PruningTable(pts).String(); !strings.Contains(s, "pruning") {
		t.Fatal("table")
	}
}

func TestTableRendering(t *testing.T) {
	tbl := &Table{
		Title:   "demo",
		Columns: []string{"a", "long-column"},
		Notes:   []string{"a note"},
	}
	tbl.Add("x", "y")
	tbl.Add("wide-cell", "z")
	s := tbl.String()
	for _, want := range []string{"demo", "long-column", "wide-cell", "note: a note", "---"} {
		if !strings.Contains(s, want) {
			t.Fatalf("table missing %q:\n%s", want, s)
		}
	}
}

func TestFormatHelpers(t *testing.T) {
	if fmtReqs(1500) != "1.5k" || fmtReqs(2_500_000) != "2.50M" || fmtReqs(42) != "42" {
		t.Fatal("fmtReqs")
	}
	if fmtDur(1500*time.Microsecond) != "1.50ms" {
		t.Fatalf("fmtDur = %s", fmtDur(1500*time.Microsecond))
	}
	if !strings.Contains(fmtDur(42*time.Microsecond), "µs") {
		t.Fatal("fmtDur µs")
	}
}
