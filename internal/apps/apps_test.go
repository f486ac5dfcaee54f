package apps

import (
	"net"
	"testing"
	"time"

	"flick/internal/buffer"
	"flick/internal/core"
	"flick/internal/netstack"
	phttp "flick/internal/proto/http"
	"flick/internal/proto/memcache"
	"flick/internal/value"
)

// TestTaskGraphShapes checks the Figure 3 task-graph structures.
func TestTaskGraphShapes(t *testing.T) {
	count := func(tmpl *core.Template) (in, comp, out int) {
		for _, n := range tmpl.Nodes() {
			switch n.Kind {
			case core.NodeInput:
				in++
			case core.NodeCompute:
				comp++
			case core.NodeOutput:
				out++
			}
		}
		return
	}

	// Figure 3a: HTTP LB with 10 backends — client in/out, 10 backend
	// in/out, request-path compute + response-path compute.
	lb, err := HTTPLoadBalancer(10)
	if err != nil {
		t.Fatal(err)
	}
	in, comp, out := count(lb.Graph.Template)
	if in != 11 || out != 11 || comp != 2 {
		t.Fatalf("HTTP LB shape = %d/%d/%d", in, comp, out)
	}

	// Figure 3b: Memcached proxy — same skeleton.
	mp, err := MemcachedProxy(10)
	if err != nil {
		t.Fatal(err)
	}
	in, comp, out = count(mp.Graph.Template)
	if in != 11 || out != 11 || comp != 2 {
		t.Fatalf("Memcached proxy shape = %d/%d/%d", in, comp, out)
	}

	// Figure 3c / §6.3: Hadoop aggregator with 8 mappers — "16 tasks
	// (8 input, 7 processing and 1 output)".
	ha, err := HadoopAggregator(8)
	if err != nil {
		t.Fatal(err)
	}
	in, comp, out = count(ha.Graph.Template)
	if in != 8 || comp != 7 || out != 1 {
		t.Fatalf("Hadoop aggregator shape = %d/%d/%d", in, comp, out)
	}

	// Static web server: one port, one compute.
	ws, err := StaticWebServer()
	if err != nil {
		t.Fatal(err)
	}
	in, comp, out = count(ws.Graph.Template)
	if in != 1 || comp != 1 || out != 1 {
		t.Fatalf("web server shape = %d/%d/%d", in, comp, out)
	}

	// Cache router: Listing 1's two pipelines.
	mr, err := MemcachedRouter(4)
	if err != nil {
		t.Fatal(err)
	}
	in, comp, out = count(mr.Graph.Template)
	if in != 5 || comp != 2 || out != 5 {
		t.Fatalf("router shape = %d/%d/%d", in, comp, out)
	}
}

// TestHTTPLBPortFormats pins the wire format of every HTTP load balancer
// port: the client side reads requests and writes responses, the backend
// side reads responses and writes requests through the keep-alive
// rewriting format.
func TestHTTPLBPortFormats(t *testing.T) {
	s, err := HTTPLoadBalancer(2)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]string{}
	for _, n := range s.Graph.Template.Nodes() {
		if n.Codec != nil {
			got[n.Name] = n.Codec.FormatName()
		}
	}
	want := map[string]string{
		"client_in":      "http.request",
		"client_out":     "http.response",
		"backends[0]_in": "http.response", "backends[0]_out": "http.request+keepalive",
		"backends[1]_in": "http.response", "backends[1]_out": "http.request+keepalive",
	}
	if len(got) != len(want) {
		t.Fatalf("ports with codecs = %v, want %v", got, want)
	}
	for name, format := range want {
		if got[name] != format {
			t.Errorf("%s codec = %q, want %q", name, got[name], format)
		}
	}
}

func TestStaticWebServerServes(t *testing.T) {
	u := netstack.NewUserNet()
	p := core.NewPlatform(core.Config{Workers: 2, Transport: u})
	defer p.Close()

	ws, err := StaticWebServer()
	if err != nil {
		t.Fatal(err)
	}
	svc, err := ws.Deploy(p, "web:80", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	conn, err := u.Dial("web:80")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.Write(phttp.BuildRequest(nil, "GET", "/index.html", "web", true, nil))
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))

	q := buffer.NewQueue(nil)
	defer q.Reset()
	dec := phttp.ResponseFormat{}.NewDecoder()
	rbuf := make([]byte, 8192)
	for {
		msg, ok, derr := dec.Decode(q)
		if derr != nil {
			t.Fatal(derr)
		}
		if ok {
			defer msg.Release()
			if msg.Field("status").AsInt() != 200 {
				t.Fatalf("status = %d", msg.Field("status").AsInt())
			}
			if msg.Field("body").ByteLen() == 0 {
				t.Fatal("empty body")
			}
			return
		}
		n, rerr := conn.Read(rbuf)
		if n > 0 {
			q.Append(rbuf[:n])
			continue
		}
		if rerr != nil {
			t.Fatal(rerr)
		}
	}
}

func TestMemcachedProxyRoutesByKey(t *testing.T) {
	u := netstack.NewUserNet()
	p := core.NewPlatform(core.Config{Workers: 4, Transport: u})
	defer p.Close()

	// Two shards, each remembering which keys it saw.
	shardKeys := make([]chan string, 2)
	addrs := make([]string, 2)
	for i := 0; i < 2; i++ {
		i := i
		shardKeys[i] = make(chan string, 100)
		addrs[i] = "shard:" + string(rune('0'+i))
		l, err := u.Listen(addrs[i])
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		go func() {
			for {
				raw, err := l.Accept()
				if err != nil {
					return
				}
				go func(raw net.Conn) {
					c := memcache.NewConn(raw)
					defer c.Close()
					for {
						req, err := c.Receive()
						if err != nil {
							return
						}
						key := req.Field("key").AsString()
						shardKeys[i] <- key
						c.Send(memcache.Response(req, memcache.StatusOK,
							[]byte(key), []byte("shard-"+string(rune('0'+i)))))
						req.Release()
					}
				}(raw)
			}
		}()
	}

	mp, err := MemcachedProxy(2)
	if err != nil {
		t.Fatal(err)
	}
	svc, err := mp.Deploy(p, "proxy:11211", addrs)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	raw, err := u.Dial("proxy:11211")
	if err != nil {
		t.Fatal(err)
	}
	client := memcache.NewConn(raw)
	defer client.Close()

	keys := []string{"alpha", "beta", "gamma", "delta", "epsilon"}
	for _, k := range keys {
		resp, err := client.RoundTrip(memcache.Request(memcache.OpGet, []byte(k), nil))
		if err != nil {
			t.Fatalf("roundtrip %s: %v", k, err)
		}
		got := resp.Field("key").AsString()
		resp.Release()
		if got != k {
			t.Fatalf("response key = %q, want %q", got, k)
		}
	}
	// Keys are partitioned: the same key always lands on the same shard,
	// and both response values identify a real shard.
	close(shardKeys[0])
	close(shardKeys[1])
	seen := map[string]int{}
	for i := 0; i < 2; i++ {
		for k := range shardKeys[i] {
			if prev, dup := seen[k]; dup && prev != i {
				t.Fatalf("key %q hit both shards", k)
			}
			seen[k] = i
		}
	}
	if len(seen) != len(keys) {
		t.Fatalf("saw %d distinct keys, want %d", len(seen), len(keys))
	}
}

func TestDeployBackendCountMismatch(t *testing.T) {
	u := netstack.NewUserNet()
	p := core.NewPlatform(core.Config{Workers: 1, Transport: u})
	defer p.Close()
	mp, err := MemcachedProxy(3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mp.Deploy(p, "x:1", []string{"only-one"}); err == nil {
		t.Fatal("backend count mismatch accepted")
	}
}

func TestHadoopDeployNeedsReducer(t *testing.T) {
	u := netstack.NewUserNet()
	p := core.NewPlatform(core.Config{Workers: 1, Transport: u})
	defer p.Close()
	ha, err := HadoopAggregator(2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ha.Deploy(p, "x:1", nil); err == nil {
		t.Fatal("missing reducer address accepted")
	}
}

func TestRouterCmdDesc(t *testing.T) {
	mr, err := MemcachedRouter(2)
	if err != nil {
		t.Fatal(err)
	}
	desc := RouterCmdDesc(mr)
	if desc == nil || desc.FieldIndex("opcode") < 0 || desc.FieldIndex("key") < 0 {
		t.Fatal("router cmd descriptor incomplete")
	}
	rec := desc.New()
	rec.SetField("opcode", value.Int(0x0c))
	if rec.Field("opcode").AsInt() != 0x0c {
		t.Fatal("field set/get")
	}
}

// Regression: Deploy ignored backend addresses for a service without a
// backend channel, so `flickrun -service web -backend x:1` silently
// dropped x:1.
func TestDeployRejectsBackendsWithoutBackendChannel(t *testing.T) {
	p := core.NewPlatform(core.Config{Workers: 1, Transport: netstack.NewUserNet()})
	defer p.Close()
	ws, err := StaticWebServer()
	if err != nil {
		t.Fatal(err)
	}
	if d, err := ws.Deploy(p, "web:1", []string{"x:1"}); err == nil {
		d.Close()
		t.Fatal("backend address accepted by a service with no backend channel")
	}
}
