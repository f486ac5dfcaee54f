package topology

import (
	"context"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"flick/internal/buffer"
)

// fetchOnce runs one poll of url through the codec client.
func fetchOnce(t *testing.T, url string) ([]Backend, error) {
	t.Helper()
	p := Poll{URL: url}
	tg, err := p.target()
	if err != nil {
		t.Fatal(err)
	}
	return p.fetch(context.Background(), tg, buffer.NewPool(2))
}

func TestPollFetchContentLengthBody(t *testing.T) {
	const body = `{"backends":["a:1",{"addr":"b:1","weight":3}]}`
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.RequestURI() != "/topology?x=1" || r.Header.Get("Connection") != "close" {
			t.Errorf("request %s %s Connection=%q", r.Method, r.URL.RequestURI(), r.Header.Get("Connection"))
		}
		w.Header().Set("Content-Length", strconv.Itoa(len(body)))
		w.Write([]byte(body))
	}))
	defer srv.Close()
	got, err := fetchOnce(t, srv.URL+"/topology?x=1")
	want := []Backend{{Addr: "a:1", Weight: 1}, {Addr: "b:1", Weight: 3}}
	if err != nil || !Equal(got, want) {
		t.Fatalf("fetch = %+v, %v; want %+v", got, err, want)
	}
}

func TestPollFetchChunkedBody(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(`{"backends":["a:1",`))
		w.(http.Flusher).Flush() // no Content-Length: the body goes chunked
		w.Write([]byte(`"b:1"]}`))
	}))
	defer srv.Close()
	got, err := fetchOnce(t, srv.URL)
	if err != nil || !Equal(got, Uniform([]string{"a:1", "b:1"})) {
		t.Fatalf("chunked fetch = %+v, %v", got, err)
	}
}

func TestPollFetchRefusesOversizedBody(t *testing.T) {
	for _, chunked := range []bool{false, true} {
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			pad := `["a:1"]` + strings.Repeat(" ", maxPollBody)
			if chunked {
				w.Write([]byte(pad[:10]))
				w.(http.Flusher).Flush()
				w.Write([]byte(pad[10:]))
				return
			}
			w.Header().Set("Content-Length", strconv.Itoa(len(pad)))
			w.Write([]byte(pad))
		}))
		_, err := fetchOnce(t, srv.URL)
		srv.Close()
		if err == nil || !strings.Contains(err.Error(), "1MiB") {
			t.Fatalf("chunked=%v: body over 1 MiB = %v, want an error", chunked, err)
		}
	}
}

func TestPollFetchDoesNotFollowRedirects(t *testing.T) {
	var followed atomic.Bool
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/moved" {
			followed.Store(true)
			w.Write([]byte(`["a:1"]`))
			return
		}
		http.Redirect(w, r, "/moved", http.StatusFound)
	}))
	defer srv.Close()
	if _, err := fetchOnce(t, srv.URL+"/topology"); err == nil || !strings.Contains(err.Error(), "302") {
		t.Fatalf("redirect = %v, want a 302 error", err)
	}
	if followed.Load() {
		t.Fatal("redirect was followed")
	}
}

// watchErrors starts a poll of url and returns its emissions and the
// errors OnError observes.
func watchErrors(t *testing.T, url string) (<-chan []Backend, <-chan error) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	errs := make(chan error, 64)
	src := Poll{URL: url, Interval: 5 * time.Millisecond, OnError: func(err error) {
		select {
		case errs <- err:
		default:
		}
	}}
	ch, err := src.Watch(ctx)
	if err != nil {
		t.Fatal(err)
	}
	return ch, errs
}

func recvErr(t *testing.T, errs <-chan error) error {
	t.Helper()
	select {
	case err := <-errs:
		return err
	case <-time.After(2 * time.Second):
		t.Fatal("no error reported")
		return nil
	}
}

func TestPollNon200ReportedAndPollingContinues(t *testing.T) {
	var healthy atomic.Bool
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !healthy.Load() {
			http.Error(w, "not yet", http.StatusServiceUnavailable)
			return
		}
		w.Write([]byte(`["a:1"]`))
	}))
	defer srv.Close()
	ch, errs := watchErrors(t, srv.URL)
	if err := recvErr(t, errs); !strings.Contains(err.Error(), "503") || !strings.Contains(err.Error(), srv.URL) {
		t.Fatalf("non-200 error = %v", err)
	}
	healthy.Store(true)
	select {
	case got := <-ch:
		if !Equal(got, Uniform([]string{"a:1"})) {
			t.Fatalf("emission after recovery = %+v", got)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("polling stopped after a non-200 answer")
	}
}

func TestPollRefusedConnectionReportedAndPollingContinues(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	_, errs := watchErrors(t, "http://"+addr+"/topology")
	for i := 0; i < 3; i++ {
		if err := recvErr(t, errs); !strings.Contains(err.Error(), "refused") {
			t.Fatalf("poll %d of a closed port = %v, want connection refused", i, err)
		}
	}
}

func TestPollRefusesNonHTTPURL(t *testing.T) {
	for _, url := range []string{"https://x/topology", "ftp://x", "x:80/topology", "http:///topology"} {
		_, err := Poll{URL: url}.Watch(context.Background())
		if err == nil || !strings.Contains(err.Error(), url) {
			t.Fatalf("Watch(%q) = %v, want a refusal naming the URL", url, err)
		}
	}
}
