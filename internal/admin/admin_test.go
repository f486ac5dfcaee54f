package admin

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"

	"flick/internal/core"
	"flick/internal/metrics"
	"flick/internal/topology"
)

// fakeController serves a two-backend view with capacity 3 and applies
// updates by replacing its list (the apps.Control integration is covered
// end to end in internal/apps).
type fakeController struct {
	list     []topology.Backend
	applyErr error
}

func (f *fakeController) View() TopologyView {
	v := TopologyView{Capacity: 3, Router: "ring"}
	for _, b := range f.list {
		v.Backends = append(v.Backends, BackendView{
			Addr: b.Addr, Weight: b.Weight, Health: "idle",
			Share: 1 / float64(len(f.list)),
		})
	}
	return v
}

func (f *fakeController) Apply(list []topology.Backend) error {
	if f.applyErr != nil {
		return f.applyErr
	}
	if len(list) > 3 {
		return fmt.Errorf("%w: %d > 3", core.ErrCapacity, len(list))
	}
	f.list = list
	return nil
}

func (f *fakeController) Counters() []metrics.Named {
	return []metrics.Named{
		{Name: "upstream", Counters: metrics.NewCounterSet("dials", 4)},
		{Name: "sched", Counters: metrics.NewCounterSet("steals", 1)},
	}
}

func (f *fakeController) Latency() []metrics.NamedHist {
	return []metrics.NamedHist{
		{Name: "total", Latency: metrics.Snapshot{Count: 7}},
		{Name: "upstream", Latency: metrics.Snapshot{Count: 3}},
	}
}

// testSrv is a started admin server and its base URL.
type testSrv struct {
	*Server
	URL string
}

func testServer(t *testing.T) (*testSrv, *fakeController) {
	t.Helper()
	ctl := &fakeController{list: topology.Uniform([]string{"a:1", "b:1"})}
	s, err := Start("127.0.0.1:0", ctl)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return &testSrv{Server: s, URL: "http://" + s.Addr()}, ctl
}

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(body)
}

func put(t *testing.T, url, body string) (int, string) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPut, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(raw)
}

func TestHealthz(t *testing.T) {
	srv, _ := testServer(t)
	if code, body := get(t, srv.URL+"/healthz"); code != 200 || body != "ok\n" {
		t.Fatalf("GET /healthz = %d %q", code, body)
	}
}

func TestGetTopology(t *testing.T) {
	srv, _ := testServer(t)
	code, body := get(t, srv.URL+"/topology")
	if code != 200 {
		t.Fatalf("GET /topology = %d %s", code, body)
	}
	var v TopologyView
	if err := json.Unmarshal([]byte(body), &v); err != nil {
		t.Fatal(err)
	}
	if len(v.Backends) != 2 || v.Capacity != 3 || v.Router != "ring" {
		t.Fatalf("view = %+v", v)
	}
	// The GET body's backends field is valid PUT input (self-feeding).
	if _, err := topology.DecodeJSON([]byte(body)); err != nil {
		t.Fatalf("GET /topology output is not valid PUT input: %v", err)
	}
}

func TestPutTopology(t *testing.T) {
	srv, ctl := testServer(t)
	code, body := put(t, srv.URL+"/topology", `{"backends":["a:1","b:1",{"addr":"c:1","weight":2}]}`)
	if code != 200 {
		t.Fatalf("PUT = %d %s", code, body)
	}
	want := []topology.Backend{{Addr: "a:1", Weight: 1}, {Addr: "b:1", Weight: 1}, {Addr: "c:1", Weight: 2}}
	if !topology.Equal(ctl.list, want) {
		t.Fatalf("applied %+v, want %+v", ctl.list, want)
	}
	// The response is the post-change view.
	var v TopologyView
	if err := json.Unmarshal([]byte(body), &v); err != nil {
		t.Fatal(err)
	}
	if len(v.Backends) != 3 || v.Backends[2].Weight != 2 {
		t.Fatalf("PUT response view = %+v", v)
	}
}

func TestPutTopologyErrors(t *testing.T) {
	srv, _ := testServer(t)
	// Capacity overflow: 409.
	if code, body := put(t, srv.URL+"/topology", `["a:1","b:1","c:1","d:1"]`); code != 409 {
		t.Fatalf("capacity overflow = %d %s, want 409", code, body)
	}
	// Malformed JSON, invalid topology: 400.
	for _, bad := range []string{`{`, `[]`, `[{"addr":""}]`, `["a:1","a:1"]`} {
		if code, _ := put(t, srv.URL+"/topology", bad); code != 400 {
			t.Fatalf("PUT %q = %d, want 400", bad, code)
		}
	}
	// Wrong method on /counters and /healthz: 405.
	if code, _ := put(t, srv.URL+"/counters", "{}"); code != 405 {
		t.Fatal("PUT /counters accepted")
	}
}

func TestGetCounters(t *testing.T) {
	srv, _ := testServer(t)
	code, body := get(t, srv.URL+"/counters")
	if code != 200 {
		t.Fatalf("GET /counters = %d", code)
	}
	want := `{"upstream":{"dials":4},"sched":{"steals":1}}` + "\n"
	if body != want {
		t.Fatalf("GET /counters = %q, want %q (registration order preserved)", body, want)
	}
}

func TestGetLatency(t *testing.T) {
	srv, _ := testServer(t)
	code, body := get(t, srv.URL+"/latency")
	if code != 200 {
		t.Fatalf("GET /latency = %d", code)
	}
	want := `{"total":{"count":7,"p50":0,"p95":0,"p99":0,"p999":0,"max":0,"mean":0},` +
		`"upstream":{"count":3,"p50":0,"p95":0,"p99":0,"p999":0,"max":0,"mean":0}}` + "\n"
	if body != want {
		t.Fatalf("GET /latency = %q, want %q (registration and key order pinned)", body, want)
	}
}

func TestStartServesAndCloses(t *testing.T) {
	ctl := &fakeController{list: topology.Uniform([]string{"a:1"})}
	s, err := Start("127.0.0.1:0", ctl)
	if err != nil {
		t.Fatal(err)
	}
	if code, body := get(t, "http://"+s.Addr()+"/healthz"); code != 200 || body != "ok\n" {
		t.Fatalf("healthz over Start = %d %q", code, body)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := http.Get("http://" + s.Addr() + "/healthz"); err == nil {
		t.Fatal("server still serving after Close")
	}
}
