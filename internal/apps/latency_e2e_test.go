package apps

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"

	"flick/internal/backend"
	"flick/internal/core"
	"flick/internal/netstack"
)

// getLatencyRaw GETs /latency and returns the raw body plus its decoded
// form (dimension name -> field -> value).
func getLatencyRaw(t *testing.T, base string) (string, map[string]map[string]int64) {
	t.Helper()
	resp, err := http.Get(base + "/latency")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /latency = %d %s", resp.StatusCode, raw)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("GET /latency content type %q", ct)
	}
	var dims map[string]map[string]int64
	if err := json.Unmarshal(raw, &dims); err != nil {
		t.Fatalf("GET /latency: %v (%s)", err, raw)
	}
	return string(raw), dims
}

// TestAdminLatencyEndpoint drives real requests through a deployed HTTP
// load balancer and reads the live pipeline back over the admin API: the
// total histogram's count must equal the requests served, quantiles must
// be monotone, the cache dimensions must appear (and populate) only when
// the cache is enabled, and the JSON key order is pinned so dashboards can
// diff bodies byte-wise.
func TestAdminLatencyEndpoint(t *testing.T) {
	const requests = 32
	for _, cached := range []bool{false, true} {
		name := "plain"
		if cached {
			name = "cached"
		}
		t.Run(name, func(t *testing.T) {
			u := netstack.NewUserNet()
			p := core.NewPlatform(core.Config{Workers: 2, Transport: u})
			defer p.Close()

			servers := make([]*backend.HTTPServer, 2)
			addrs := make([]string, 2)
			for i := range servers {
				s, err := backend.NewHTTPServer(u, listenName("origin", i), 64)
				if err != nil {
					t.Fatal(err)
				}
				defer s.Close()
				servers[i] = s
				addrs[i] = s.Addr()
			}

			lb, err := HTTPLoadBalancer(2)
			if err != nil {
				t.Fatal(err)
			}
			lb.Cache.Enable = cached
			svc, err := lb.Deploy(p, "lb:80", addrs)
			if err != nil {
				t.Fatal(err)
			}
			defer svc.Close()

			ctl := NewControl(lb, svc, p)
			srv, err := ctl.ServeAdmin("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			base := "http://" + srv.Addr()

			// Before any traffic every dimension is empty and /topology
			// omits its latency summary.
			_, dims := getLatencyRaw(t, base)
			for dim, h := range dims {
				if h["count"] != 0 {
					t.Fatalf("pre-traffic %s count = %d", dim, h["count"])
				}
			}
			if v := getView(t, base); v.Latency != nil {
				t.Fatalf("pre-traffic /topology carries latency: %+v", v.Latency)
			}

			c := newHTTPClient(t, u, "lb:80")
			defer c.close()
			for i := 0; i < requests; i++ {
				if status, _ := c.roundTrip(t, "GET", "/hot.html"); status != 200 {
					t.Fatalf("request %d: status %d", i, status)
				}
			}

			raw, dims := getLatencyRaw(t, base)

			// Key order is pinned: dimensions in registration order, fields
			// in count,p50,p95,p99,p999,max,mean order.
			wantDims := []string{"total", "upstream"}
			if cached {
				wantDims = append(wantDims, "cache_hit", "cache_miss", "cache_coalesced")
			}
			prev := -1
			for _, dim := range wantDims {
				idx := strings.Index(raw, fmt.Sprintf("%q:{\"count\":", dim))
				if idx < 0 {
					t.Fatalf("/latency missing dimension %q or order not pinned: %s", dim, raw)
				}
				if idx < prev {
					t.Fatalf("/latency dimension %q out of order: %s", dim, raw)
				}
				prev = idx
			}
			if !cached {
				if _, ok := dims["cache_hit"]; ok {
					t.Fatalf("cache_hit dimension present without -cache: %s", raw)
				}
			}

			total := dims["total"]
			if total["count"] != requests {
				t.Fatalf("total count = %d, want %d (one sample per request served)", total["count"], requests)
			}
			for _, dim := range wantDims {
				h := dims[dim]
				if h["p50"] > h["p99"] || h["p99"] > h["max"] {
					t.Fatalf("%s quantiles not monotone: %s", dim, raw)
				}
			}
			up := dims["upstream"]["count"]
			if cached {
				// One leading miss fills the entry; every later request is a
				// cache hit and never goes upstream — except that the fill
				// lands just after the response is forwarded, so the next
				// request may still find the flight open and coalesce onto it.
				if up == 0 || up >= requests {
					t.Fatalf("cached arm upstream count = %d, want in [1,%d)", up, requests)
				}
				hits, coalesced := dims["cache_hit"]["count"], dims["cache_coalesced"]["count"]
				if hits+coalesced+up != requests {
					t.Fatalf("cache_hit count = %d, coalesced = %d, upstream = %d, want hits+coalesced+upstream == %d",
						hits, coalesced, up, requests)
				}
				if misses := dims["cache_miss"]["count"]; misses != up {
					t.Fatalf("cache_miss count = %d, want %d (one per upstream fill)", misses, up)
				}
			} else if up != requests {
				t.Fatalf("plain arm upstream count = %d, want %d (every request goes upstream)", up, requests)
			}

			// /topology mirrors the total summary once traffic has flowed.
			v := getView(t, base)
			if v.Latency == nil || v.Latency.Count != requests {
				t.Fatalf("/topology latency = %+v, want count %d", v.Latency, requests)
			}
			if v.Latency.P50 > v.Latency.P99 || v.Latency.P99 > v.Latency.Max {
				t.Fatalf("/topology latency quantiles not monotone: %+v", v.Latency)
			}
		})
	}
}
