package topology

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/url"
	"os"
	"time"

	"flick/internal/buffer"
	"flick/internal/proto/http"
	"flick/internal/value"
)

// Source is a feed of backend topologies. Watch returns a channel that
// carries each new backend list; the channel closes when ctx is cancelled
// or the source has nothing further to say (a static source closes after
// its single emission). Consumers apply each received list through one
// update path — apps.Control.Follow drives Service.UpdateBackends — so a
// file watcher, an HTTP poller and an admin PUT all converge on the same
// drain-correct transition.
type Source interface {
	Watch(ctx context.Context) (<-chan []Backend, error)
}

// Static is a Source that emits one fixed backend list and closes. It
// exists so code paths that take a Source can also serve the "-backend
// flags only, no live updates" configuration.
type Static struct {
	// Backends is the list to emit.
	Backends []Backend
}

// Watch implements Source.
func (s Static) Watch(ctx context.Context) (<-chan []Backend, error) {
	ch := make(chan []Backend, 1)
	ch <- append([]Backend(nil), s.Backends...)
	close(ch)
	return ch, nil
}

// File is a Source backed by a topology file in the ParseList format
// ("addr" or "addr weight" per line). It emits the file's content once at
// Watch time if the file is readable, then re-reads on every Trigger
// signal — flickrun wires SIGHUP to Trigger, turning the legacy
// re-read-on-signal behaviour into an ordinary Source. Every successful
// trigger emits, even when the content is unchanged (the operator asked);
// read or parse failures are reported through OnError and skip the
// emission, leaving the last good topology in place.
type File struct {
	// Path is the topology file.
	Path string
	// Trigger signals a re-read (e.g. a SIGHUP notification channel).
	Trigger <-chan struct{}
	// OnError, when non-nil, observes read/parse failures (the source
	// keeps watching).
	OnError func(error)
}

// Watch implements Source.
func (f File) Watch(ctx context.Context) (<-chan []Backend, error) {
	if f.Path == "" {
		return nil, fmt.Errorf("topology: file source needs a path")
	}
	ch := make(chan []Backend, 1)
	// Initial content: the file is the source of truth when present, but a
	// not-yet-written file is fine — the service starts from its flag-given
	// backends and the file takes over at the first trigger.
	if list, err := f.read(); err == nil {
		ch <- list
	} else if !os.IsNotExist(err) {
		f.report(err)
	}
	go func() {
		defer close(ch)
		for {
			select {
			case <-ctx.Done():
				return
			case _, ok := <-f.Trigger:
				if !ok {
					return
				}
				list, err := f.read()
				if err != nil {
					f.report(err)
					continue
				}
				select {
				case ch <- list:
				case <-ctx.Done():
					return
				}
			}
		}
	}()
	return ch, nil
}

func (f File) read() ([]Backend, error) {
	file, err := os.Open(f.Path)
	if err != nil {
		return nil, err
	}
	defer file.Close()
	list, err := ParseList(file)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", f.Path, err)
	}
	return list, nil
}

func (f File) report(err error) {
	if f.OnError != nil {
		f.OnError(err)
	}
}

// Poll is a Source that polls an HTTP endpoint serving the DecodeJSON wire
// format — typically another instance's admin GET /topology — and emits
// whenever the decoded list differs from the last emission. A fleet of
// flickruns pointed at one admin endpoint follows its topology within one
// poll interval of a PUT.
//
// The client is the platform's own HTTP/1.1 codec over a plain TCP dial,
// so only http:// URLs are accepted (the admin API is plain HTTP). Each
// poll is one "Connection: close" GET; the answer must be a 200 framed by
// Content-Length or chunked encoding, with a body of at most 1 MiB.
// Redirects are not followed: any other status is an error.
type Poll struct {
	// URL is polled with GET.
	URL string
	// Interval between polls (default 2s).
	Interval time.Duration
	// OnError, when non-nil, observes fetch/decode failures (polling
	// continues).
	OnError func(error)
}

const (
	// maxPollBody bounds a poll response body (a topology is small; a
	// misconfigured URL pointing at a large file must not balloon
	// memory).
	maxPollBody = 1 << 20
	// fetchTimeout bounds one poll, dial to last byte.
	fetchTimeout = 5 * time.Second
	// pollReadChunk is the size of one socket read.
	pollReadChunk = 4 << 10
)

// target is a parsed poll URL: the address to dial, the Host header and
// the request target.
type target struct {
	addr, host, uri string
}

// Validate reports whether the poll source can start: it needs an
// http:// URL with a host.
func (p Poll) Validate() error {
	_, err := p.target()
	return err
}

func (p Poll) target() (target, error) {
	if p.URL == "" {
		return target{}, fmt.Errorf("topology: poll source needs a URL")
	}
	u, err := url.Parse(p.URL)
	if err != nil {
		return target{}, fmt.Errorf("topology: poll URL %q: %w", p.URL, err)
	}
	if u.Scheme != "http" || u.Host == "" {
		return target{}, fmt.Errorf("topology: poll URL %q: only http://host[:port]/path URLs are supported", p.URL)
	}
	port := u.Port()
	if port == "" {
		port = "80"
	}
	return target{addr: net.JoinHostPort(u.Hostname(), port), host: u.Host, uri: u.RequestURI()}, nil
}

// Watch implements Source.
func (p Poll) Watch(ctx context.Context) (<-chan []Backend, error) {
	t, err := p.target()
	if err != nil {
		return nil, err
	}
	interval := p.Interval
	if interval <= 0 {
		interval = 2 * time.Second
	}
	// A private pool keeps polls out of buffer.Global's counters.
	pool := buffer.NewPool(2)
	ch := make(chan []Backend, 1)
	go func() {
		defer close(ch)
		tick := time.NewTicker(interval)
		defer tick.Stop()
		var last []Backend
		for {
			list, err := p.fetch(ctx, t, pool)
			switch {
			case err != nil:
				if ctx.Err() != nil {
					return
				}
				if p.OnError != nil {
					p.OnError(err)
				}
			case !Equal(list, last):
				last = list
				select {
				case ch <- list:
				case <-ctx.Done():
					return
				}
			}
			select {
			case <-ctx.Done():
				return
			case <-tick.C:
			}
		}
	}()
	return ch, nil
}

// fetch performs one poll and decodes its body.
func (p Poll) fetch(ctx context.Context, t target, pool *buffer.Pool) ([]Backend, error) {
	ctx, cancel := context.WithTimeout(ctx, fetchTimeout)
	defer cancel()
	var d net.Dialer
	c, err := d.DialContext(ctx, "tcp", t.addr)
	if err != nil {
		return nil, fmt.Errorf("topology: GET %s: %w", p.URL, err)
	}
	defer c.Close()
	// Cancellation or the timeout interrupts a blocked read or write.
	defer context.AfterFunc(ctx, func() { c.SetDeadline(time.Unix(1, 0)) })()

	if _, err := c.Write(http.BuildRequest(nil, "GET", t.uri, t.host, false, nil)); err != nil {
		return nil, fmt.Errorf("topology: GET %s: %w", p.URL, err)
	}
	q := buffer.NewQueue(pool)
	defer q.Reset()
	dec := http.ResponseFormat{}.NewDecoder()
	for {
		msg, ok, err := dec.Decode(q)
		if err != nil {
			return nil, fmt.Errorf("topology: GET %s: %w", p.URL, err)
		}
		if ok {
			defer msg.Release()
			return p.decode(&msg)
		}
		if q.Len() > http.MaxHeaderBytes+maxPollBody {
			return nil, fmt.Errorf("topology: GET %s: response exceeds 1MiB", p.URL)
		}
		r := pool.GetRef(pollReadChunk)
		n, rerr := c.Read(r.Bytes())
		q.AppendRead(r, n)
		if rerr != nil {
			if errors.Is(rerr, io.EOF) {
				rerr = io.ErrUnexpectedEOF
			}
			return nil, fmt.Errorf("topology: GET %s: %w", p.URL, rerr)
		}
	}
}

// decode checks a poll response's status and size and decodes its body.
func (p Poll) decode(msg *value.Value) ([]Backend, error) {
	if status := msg.IntAt(http.SlotStatus); status != 200 {
		return nil, fmt.Errorf("topology: GET %s: status %d", p.URL, status)
	}
	body := msg.BytesAt(http.SlotBody)
	if len(body) > maxPollBody {
		return nil, fmt.Errorf("topology: GET %s: body of %d bytes exceeds 1MiB", p.URL, len(body))
	}
	list, err := DecodeJSON(body)
	if err != nil {
		return nil, fmt.Errorf("topology: GET %s: %w", p.URL, err)
	}
	return list, nil
}
