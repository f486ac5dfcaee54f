package apps

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"flick/internal/core"
	"flick/internal/netstack"
	"flick/internal/proto/memcache"
)

// countingNet is a UserNet whose connections accepted on addr count the
// writes made to them: the client-bound writes of a proxy listening there.
type countingNet struct {
	*netstack.UserNet
	addr   string
	writes atomic.Int64
}

func (n *countingNet) Listen(addr string) (net.Listener, error) {
	l, err := n.UserNet.Listen(addr)
	if err != nil || addr != n.addr {
		return l, err
	}
	return countingListener{l, n}, nil
}

type countingListener struct {
	net.Listener
	n *countingNet
}

func (l countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return c, err
	}
	return &countingConn{Conn: c, bound: c.(netstack.Conn), n: l.n}, nil
}

// countingConn is both faces of a UserNet connection — the net.Conn a
// listener returns and the netstack.Conn the proxy binds — so the proxy
// binds it as it binds an unwrapped one, and every write it makes is
// counted.
type countingConn struct {
	net.Conn
	bound
	n *countingNet
}

type bound = netstack.Conn

func (c *countingConn) Close() error { return c.Conn.Close() }

func (c *countingConn) WriteBatch(bufs [][]byte) (int64, error) {
	c.n.writes.Add(1)
	return c.bound.WriteBatch(bufs)
}

// barrier opens once want callers have arrived, then re-arms.
type barrier struct {
	mu      sync.Mutex
	n, want int
	open    chan struct{}
}

func (b *barrier) arrive() <-chan struct{} {
	b.mu.Lock()
	defer b.mu.Unlock()
	ch := b.open
	if b.n++; b.n == b.want {
		close(ch)
		b.n, b.open = 0, make(chan struct{})
	}
	return ch
}

// TestPipelinedClientOneWritePerRound: a client pipelines one GET to each
// of four backends, which hold their responses until all four requests
// have arrived and then answer together. The proxy must answer the client
// in about one write per batch — the first delivery's responses wait for
// the round's end while the client is still owed the rest — instead of
// one write per backend delivery.
func TestPipelinedClientOneWritePerRound(t *testing.T) {
	const (
		backends = 4
		rounds   = 100
	)
	u := netstack.NewUserNet()
	cn := &countingNet{UserNet: u, addr: "proxy:1"}
	p := core.NewPlatform(core.Config{Workers: 2, Transport: cn})
	defer p.Close()

	var gated atomic.Bool
	gate := &barrier{want: backends, open: make(chan struct{})}
	var wg sync.WaitGroup
	defer wg.Wait()
	stop := make(chan struct{}) // frees a backend held at the gate when the test ends early
	defer close(stop)
	addrs := make([]string, backends)
	for i := range addrs {
		addrs[i] = fmt.Sprintf("gated:%d", i)
		l, err := u.Listen(addrs[i])
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		tag := []byte(fmt.Sprint(i))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				raw, err := l.Accept()
				if err != nil {
					return
				}
				wg.Add(1)
				go func() {
					defer wg.Done()
					c := memcache.NewConn(raw)
					defer c.Close()
					for {
						req, err := c.Receive()
						if err != nil {
							return
						}
						if gated.Load() {
							select {
							case <-gate.arrive():
							case <-stop:
								req.Release()
								return
							}
						}
						err = c.Send(memcache.Response(req, memcache.StatusOK, req.Field("key").AsBytes(), tag))
						req.Release()
						if err != nil {
							return
						}
					}
				}()
			}
		}()
	}

	mp, err := MemcachedProxy(backends)
	if err != nil {
		t.Fatal(err)
	}
	svc, err := mp.Deploy(p, "proxy:1", addrs)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	raw, err := u.Dial("proxy:1")
	if err != nil {
		t.Fatal(err)
	}
	client := memcache.NewConn(raw)
	defer client.Close()
	// A response left on a round-end list that never runs fails here, not
	// at the test binary's timeout.
	raw.SetReadDeadline(time.Now().Add(10 * time.Second))

	// One key per backend, learnt from the backend tag in each value.
	keys := make([][]byte, backends)
	for i, found := 0, 0; found < backends; i++ {
		if i == 1000 {
			t.Fatalf("found keys for %d of %d backends", found, backends)
		}
		key := []byte(fmt.Sprintf("round-key-%d", i))
		resp, err := client.RoundTrip(memcache.Request(memcache.OpGet, key, nil))
		if err != nil {
			t.Fatal(err)
		}
		var b int
		fmt.Sscan(resp.Field("value").AsString(), &b)
		resp.Release()
		if keys[b] == nil {
			keys[b], found = key, found+1
		}
	}

	var batch []byte
	for _, k := range keys {
		batch, err = memcache.Codec.Encode(batch, memcache.Request(memcache.OpGet, k, nil))
		if err != nil {
			t.Fatal(err)
		}
	}
	gated.Store(true)
	before := cn.writes.Load()
	for r := 0; r < rounds; r++ {
		if _, err := raw.Write(batch); err != nil {
			t.Fatal(err)
		}
		// Backends answer in any order (binary memcached matches by key
		// and opaque), so each round must bring every key back once.
		seen := map[string]bool{}
		for range keys {
			resp, err := client.Receive()
			if err != nil {
				t.Fatal(err)
			}
			seen[resp.Field("key").AsString()] = true
			resp.Release()
		}
		for _, k := range keys {
			if !seen[string(k)] {
				t.Fatalf("round %d: no response for key %q", r, k)
			}
		}
	}
	writes := cn.writes.Load() - before
	st := p.Scheduler().Stats()
	t.Logf("%d client writes for %d rounds of %d responses (sched: %v)", writes, rounds, backends, st.Metrics())
	// Each batch leaves in one write, give or take a delivery that missed
	// its round; one write per backend delivery is about 4 per round.
	// Under -race every access runs several times slower, which moves
	// deliveries across round ends (about 1.7 writes per round here, 2.4
	// before rounds existed), so only the functional part runs there.
	if raceEnabled {
		return
	}
	if limit := int64(rounds * 2); writes > limit {
		t.Fatalf("%d client writes for %d rounds, want <= %d", writes, rounds, limit)
	}
}
