package buffer

import "flick/internal/value"

// Scatter is a pooled scatter/gather list for the zero-copy encode path.
// Encoders append wire bytes either by reference — a view into a message's
// pooled region, retained until the flush completes — or by copy into
// pooled tail buffers (for messages rebuilt from modified fields). Output
// tasks hand the accumulated segment list (Buffers) to one vectored write
// (netstack.Conn.WriteBatch) and then Reset it, so a burst of messages
// leaves in a single writev instead of one syscall per message.
//
// The segment, region and tail slices all keep their capacity across Reset,
// so the steady state allocates nothing.
type Scatter struct {
	pool    *Pool
	segs    [][]byte       // ordered wire segments
	regions []value.Region // retained regions, released on Reset
	tails   []*Ref         // owned pooled buffers backing copied segments
	tlen    int            // write offset into the last tail
	open    bool           // last segment aliases the last tail and may grow
	total   int
}

// scatterTail is the pooled tail buffer size; segments copied into tails
// split across buffers at this boundary.
const scatterTail = 32 << 10

// NewScatter creates a scatter list drawing tail buffers from pool (Global
// when nil).
func NewScatter(pool *Pool) *Scatter {
	if pool == nil {
		pool = Global
	}
	return &Scatter{pool: pool}
}

// Len returns the total buffered byte count.
func (s *Scatter) Len() int { return s.total }

// Segments returns the number of wire segments.
func (s *Scatter) Segments() int { return len(s.segs) }

// AppendRef appends b as a zero-copy segment backed by region. The region
// (nil for owned memory) is retained until Reset, keeping the view alive
// across the flush.
func (s *Scatter) AppendRef(b []byte, region value.Region) {
	if len(b) == 0 {
		return
	}
	s.open = false
	s.segs = append(s.segs, b)
	if region != nil {
		region.Retain()
		s.regions = append(s.regions, region)
	}
	s.total += len(b)
}

// Append copies p into pooled tail storage, extending the trailing segment
// when possible.
func (s *Scatter) Append(p []byte) {
	for len(p) > 0 {
		var tail *Ref
		if n := len(s.tails); n > 0 && s.tlen < s.tails[n-1].Len() {
			tail = s.tails[n-1]
		} else {
			tail = s.pool.GetRef(scatterTail)
			s.tails = append(s.tails, tail)
			s.tlen = 0
			s.open = false
		}
		buf := tail.Bytes()
		n := copy(buf[s.tlen:], p)
		if s.open {
			last := len(s.segs) - 1
			start := s.tlen - len(s.segs[last])
			s.segs[last] = buf[start : s.tlen+n]
		} else {
			s.segs = append(s.segs, buf[s.tlen:s.tlen+n])
			s.open = true
		}
		s.tlen += n
		s.total += n
		p = p[n:]
	}
}

// Buffers returns the segment list for a vectored write. The slice is owned
// by the Scatter and invalidated by Reset; net.Buffers-style writers may
// advance its elements in place.
func (s *Scatter) Buffers() [][]byte { return s.segs }

// Reset clears the list: retained regions are released, tail buffers return
// to the pool, and all slices keep their capacity for reuse.
func (s *Scatter) Reset() {
	for i := range s.regions {
		s.regions[i].Release()
		s.regions[i] = nil
	}
	for i := range s.tails {
		s.tails[i].Release()
		s.tails[i] = nil
	}
	for i := range s.segs {
		s.segs[i] = nil
	}
	s.segs = s.segs[:0]
	s.regions = s.regions[:0]
	s.tails = s.tails[:0]
	s.tlen = 0
	s.open = false
	s.total = 0
}
