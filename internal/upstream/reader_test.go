package upstream

import (
	"testing"
	"time"

	"flick/internal/buffer"
	"flick/internal/netstack"
)

// Reader reads a Session the way an instance's input task does: it waits
// on the readable callback and takes the delivered response views into Q
// with TryReadRefs. What Q still holds is released when the test ends.
type Reader struct {
	Q     *buffer.Queue
	s     *Session
	ready chan struct{}
}

// NewReader registers a Reader as s's readable callback.
func NewReader(t testing.TB, s *Session) *Reader {
	r := &Reader{Q: buffer.NewQueue(nil), s: s, ready: make(chan struct{}, 1)}
	s.SetReadableCallback(func() {
		select {
		case r.ready <- struct{}{}:
		default:
		}
	})
	t.Cleanup(r.Q.Reset)
	return r
}

// Wait moves delivered bytes into Q, waiting up to timeout for some to
// arrive. It returns nil once some have, the error that ended the stream
// (io.EOF when the shared socket failed, netstack.ErrClosed after Close),
// or netstack.ErrTimeout.
func (r *Reader) Wait(timeout time.Duration) error {
	deadline := time.NewTimer(timeout)
	defer deadline.Stop()
	for {
		if n, err := r.s.TryReadRefs(r.Q); n > 0 || err != nil {
			return err
		}
		select {
		case <-r.ready:
		case <-deadline.C:
			return netstack.ErrTimeout
		}
	}
}

// End takes whatever is still delivered and returns the error that ended
// the stream (netstack.ErrTimeout when it has not ended within timeout).
func (r *Reader) End(timeout time.Duration) error {
	for {
		if err := r.Wait(timeout); err != nil {
			return err
		}
	}
}

// Frame reads one complete test-protocol frame and returns its payload.
func (r *Reader) Frame(timeout time.Duration) (string, error) {
	for {
		if n, _ := testFramer(r.Q, 0); n > 0 && r.Q.Len() >= n {
			p := make([]byte, n)
			r.Q.Peek(p)
			r.Q.Discard(n)
			return string(p[4:]), nil
		}
		if err := r.Wait(timeout); err != nil {
			return "", err
		}
	}
}
