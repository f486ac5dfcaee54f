package topology

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestParseList(t *testing.T) {
	in := `
# fleet a
10.0.0.1:11211
10.0.0.2:11211 2
10.0.0.3:11211 0  # draining
`
	list, err := ParseList(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	want := []Backend{
		{Addr: "10.0.0.1:11211", Weight: 1},
		{Addr: "10.0.0.2:11211", Weight: 2},
		{Addr: "10.0.0.3:11211", Weight: 0},
	}
	if !Equal(list, want) {
		t.Fatalf("ParseList = %+v, want %+v", list, want)
	}
	for name, bad := range map[string]string{
		"empty":           "# nothing\n",
		"bad weight":      "a:1 two\n",
		"extra field":     "a:1 2 3\n",
		"duplicate":       "a:1\na:1\n",
		"negative weight": "a:1 -2\n",
		"all zero":        "a:1 0\nb:1 0\n",
	} {
		if _, err := ParseList(strings.NewReader(bad)); err == nil {
			t.Errorf("%s: ParseList accepted %q", name, bad)
		}
	}
}

func TestDecodeJSONForms(t *testing.T) {
	want := []Backend{{Addr: "a:1", Weight: 1}, {Addr: "b:1", Weight: 3}}
	for _, in := range []string{
		`["a:1", {"addr":"b:1","weight":3}]`,
		`{"backends":[{"addr":"a:1"},{"addr":"b:1","weight":3}]}`,
	} {
		list, err := DecodeJSON([]byte(in))
		if err != nil {
			t.Fatalf("DecodeJSON(%s): %v", in, err)
		}
		if !Equal(list, want) {
			t.Fatalf("DecodeJSON(%s) = %+v, want %+v", in, list, want)
		}
	}
	// A marshalled list round-trips: GET output is valid PUT input.
	raw, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeJSON(raw)
	if err != nil {
		t.Fatal(err)
	}
	if !Equal(back, want) {
		t.Fatalf("round trip = %+v", back)
	}
	if _, err := DecodeJSON([]byte(`{"backends":[]}`)); err == nil {
		t.Fatal("DecodeJSON accepted an empty list")
	}
	if _, err := DecodeJSON([]byte(`[{"addr":"a:1","weight":-1}]`)); err == nil {
		t.Fatal("DecodeJSON accepted a negative weight")
	}
}

func TestStaticSource(t *testing.T) {
	list := Uniform([]string{"a:1", "b:1"})
	ch, err := Static{Backends: list}.Watch(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	got, ok := <-ch
	if !ok || !Equal(got, list) {
		t.Fatalf("static emitted %+v (ok=%v)", got, ok)
	}
	if _, ok := <-ch; ok {
		t.Fatal("static source emitted twice")
	}
}

func TestFileSource(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	path := filepath.Join(t.TempDir(), "backends.txt")
	if err := os.WriteFile(path, []byte("a:1\nb:1 2\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	trigger := make(chan struct{})
	var errs atomic.Int64
	src := File{Path: path, Trigger: trigger, OnError: func(error) { errs.Add(1) }}
	ch, err := src.Watch(ctx)
	if err != nil {
		t.Fatal(err)
	}
	recv := func() []Backend {
		select {
		case l := <-ch:
			return l
		case <-time.After(2 * time.Second):
			t.Fatal("no emission")
			return nil
		}
	}
	if got := recv(); !Equal(got, []Backend{{Addr: "a:1", Weight: 1}, {Addr: "b:1", Weight: 2}}) {
		t.Fatalf("initial content = %+v", got)
	}
	// Unchanged re-read still emits (the operator asked for a reload).
	trigger <- struct{}{}
	recv()
	// A bad file reports through OnError and keeps the source alive.
	if err := os.WriteFile(path, []byte("a:1 nope\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	trigger <- struct{}{}
	// The send only hands the reload over: wait for it to read the bad
	// file before replacing it.
	for deadline := time.Now().Add(2 * time.Second); errs.Load() == 0; {
		if time.Now().After(deadline) {
			t.Fatal("bad file never reported through OnError")
		}
		time.Sleep(time.Millisecond)
	}
	if err := os.WriteFile(path, []byte("c:1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	trigger <- struct{}{}
	if got := recv(); !Equal(got, []Backend{{Addr: "c:1", Weight: 1}}) {
		t.Fatalf("post-error content = %+v", got)
	}
	if errs.Load() != 1 {
		t.Fatalf("OnError fired %d times, want 1", errs.Load())
	}
	cancel()
	select {
	case _, ok := <-ch:
		if ok {
			t.Fatal("emission after cancel")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("channel not closed after cancel")
	}
}

func TestFileSourceMissingFileStartsEmpty(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	trigger := make(chan struct{})
	src := File{Path: filepath.Join(t.TempDir(), "absent.txt"), Trigger: trigger}
	ch, err := src.Watch(ctx)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case l := <-ch:
		t.Fatalf("absent file emitted %+v", l)
	case <-time.After(50 * time.Millisecond):
	}
}

func TestPollSourceEmitsOnChange(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var body atomic.Value
	body.Store(`{"backends":["a:1"]}`)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(body.Load().(string)))
	}))
	defer srv.Close()
	src := Poll{URL: srv.URL, Interval: 10 * time.Millisecond}
	ch, err := src.Watch(ctx)
	if err != nil {
		t.Fatal(err)
	}
	recv := func() []Backend {
		select {
		case l := <-ch:
			return l
		case <-time.After(2 * time.Second):
			t.Fatal("no emission")
			return nil
		}
	}
	if got := recv(); !Equal(got, Uniform([]string{"a:1"})) {
		t.Fatalf("first poll = %+v", got)
	}
	body.Store(`{"backends":["a:1",{"addr":"b:1","weight":2}]}`)
	want := []Backend{{Addr: "a:1", Weight: 1}, {Addr: "b:1", Weight: 2}}
	if got := recv(); !Equal(got, want) {
		t.Fatalf("changed poll = %+v, want %+v", got, want)
	}
	// No further change: nothing else arrives.
	select {
	case l := <-ch:
		t.Fatalf("unchanged topology re-emitted: %+v", l)
	case <-time.After(50 * time.Millisecond):
	}
}
