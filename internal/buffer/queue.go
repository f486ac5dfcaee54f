package buffer

// Queue is an unbounded-capacity, pool-backed byte FIFO used for incremental
// protocol parsing: input tasks append network reads and the grammar engine
// consumes complete messages from the front, possibly across many chunks.
//
// Unlike bytes.Buffer, Queue recycles its chunks through a Pool so the steady
// state performs no allocation, and it supports cheap front consumption
// without compaction.
//
// Every chunk is a refcounted Ref region. Bytes can enter without copying
// (AppendRef hands a pooled read buffer straight to the queue) and leave
// without copying (TakeRef returns a view into the front chunk, retained for
// the caller): the zero-copy decode path reads network bytes into pooled
// memory once and parses messages in place over it.
type Queue struct {
	pool   *Pool
	chunks [][]byte // chunks[0][off:] is the queue front
	refs   []*Ref   // refs[i] owns chunks[i]'s backing buffer
	off    int      // read offset into chunks[0]
	size   int      // total buffered bytes
}

// NewQueue creates a queue drawing chunks from pool (Global when nil).
func NewQueue(pool *Pool) *Queue {
	if pool == nil {
		pool = Global
	}
	return &Queue{pool: pool}
}

// Len returns the number of buffered bytes.
func (q *Queue) Len() int { return q.size }

// Pool returns the pool the queue draws its chunks from.
func (q *Queue) Pool() *Pool { return q.pool }

// push appends a chunk+ref pair, keeping the parallel slices compacted at
// the front so steady-state appends reuse slice capacity without allocating.
func (q *Queue) push(c []byte, r *Ref) {
	q.chunks = append(q.chunks, c)
	q.refs = append(q.refs, r)
}

// dropFront releases the front chunk and shifts the slices down. The
// explicit copy-down (rather than re-slicing) keeps the backing arrays
// anchored, so append never migrates to a fresh allocation in steady state.
func (q *Queue) dropFront() {
	if r := q.refs[0]; r != nil {
		r.Release()
	}
	n := len(q.chunks)
	copy(q.chunks, q.chunks[1:])
	copy(q.refs, q.refs[1:])
	q.chunks[n-1], q.refs[n-1] = nil, nil
	q.chunks = q.chunks[:n-1]
	q.refs = q.refs[:n-1]
	q.off = 0
}

// Append copies p into the queue.
func (q *Queue) Append(p []byte) {
	for len(p) > 0 {
		// Extend the final chunk if it has spare capacity. Writes land
		// strictly beyond the chunk's current length, so views handed out
		// over earlier bytes are unaffected; AppendRef clips capacity, so
		// only chunks the queue itself drew from the pool are extendable.
		if n := len(q.chunks); n > 0 {
			last := q.chunks[n-1]
			if spare := cap(last) - len(last); spare > 0 {
				take := spare
				if take > len(p) {
					take = len(p)
				}
				q.chunks[n-1] = append(last, p[:take]...)
				p = p[take:]
				q.size += take
				continue
			}
		}
		want := len(p)
		if want < 4096 {
			want = 4096
		}
		r := q.pool.GetRef(want)
		q.push(r.Bytes()[:0], r)
	}
}

// AppendRef appends the first n bytes of r's region without copying,
// transferring the caller's reference to the queue (callers that keep using
// the region must Retain first). n == 0 releases r immediately.
//
// The ingested chunk's capacity is clipped to n so a later Append never
// extends into the region's remaining bytes: a producer that Retained the
// region may still own everything past the appended prefix.
func (q *Queue) AppendRef(r *Ref, n int) {
	if n <= 0 {
		r.Release()
		return
	}
	q.push(r.Bytes()[:n:n], r)
	q.size += n
}

// AppendView appends view v without copying, transferring the caller's
// reference to region r. r may be a mid-region sub-slice owner (a message
// view produced by TakeRef) or nil for memory the queue does not own — the
// caller then guarantees v outlives its residence in the queue. Chunks with
// a nil region cannot be handed out by TakeRef's zero-copy fast path (there
// is no reference to transfer); TakeRef coalesces them into pooled memory
// instead.
func (q *Queue) AppendView(v []byte, r *Ref) {
	if len(v) == 0 {
		if r != nil {
			r.Release()
		}
		return
	}
	q.push(v[:len(v):len(v)], r)
	q.size += len(v)
}

// DrainTo moves every buffered chunk to dst by reference — views and their
// region references transfer wholesale, no byte is copied — and leaves q
// empty. It reports the number of bytes moved. This is the zero-copy
// hand-over between staging queues: an upstream session's demultiplexed
// response views move into an input task's parse queue in O(chunks).
func (q *Queue) DrainTo(dst *Queue) int {
	moved := q.size
	for i, c := range q.chunks {
		if i == 0 {
			c = c[q.off:]
		}
		r := q.refs[i]
		if len(c) == 0 {
			if r != nil {
				r.Release()
			}
		} else {
			dst.push(c, r)
			dst.size += len(c)
		}
		q.chunks[i], q.refs[i] = nil, nil
	}
	q.chunks = q.chunks[:0]
	q.refs = q.refs[:0]
	q.off, q.size = 0, 0
	return moved
}

// AppendViews appends views covering the first n buffered bytes to dst
// without copying or consuming, and returns the extended slice. The views
// are valid until those bytes are consumed; vectored writers may use them
// as an iovec list (net.Buffers-style callers may re-slice the returned
// elements freely — the queue's own chunk headers are untouched).
func (q *Queue) AppendViews(dst [][]byte, n int) [][]byte {
	off := q.off
	for _, c := range q.chunks {
		if n <= 0 {
			break
		}
		src := c[off:]
		off = 0
		if len(src) > n {
			src = src[:n]
		}
		if len(src) > 0 {
			dst = append(dst, src)
			n -= len(src)
		}
	}
	return dst
}

// AppendRead ingests the first n bytes of a pooled read chunk, consuming the
// caller's reference in every case. Large reads transfer the region by
// reference (the zero-copy path); small reads — a peer trickling short TCP
// segments — are copied and compacted instead, so a slow consumer pins at
// most the copied bytes rather than a near-empty pooled chunk per read.
func (q *Queue) AppendRead(r *Ref, n int) {
	if n > 0 && n < len(r.Bytes())/8 {
		q.Append(r.Bytes()[:n])
		r.Release()
		return
	}
	q.AppendRef(r, n)
}

// Peek copies up to len(p) bytes from the front without consuming and
// reports how many bytes were copied.
func (q *Queue) Peek(p []byte) int {
	return q.PeekAt(p, 0)
}

// PeekAt copies up to len(p) bytes starting at buffered offset from (0 =
// queue front) without consuming, and reports how many bytes were copied.
func (q *Queue) PeekAt(p []byte, from int) int {
	if from < 0 {
		from = 0
	}
	copied := 0
	off := q.off
	for _, c := range q.chunks {
		if copied == len(p) {
			break
		}
		src := c[off:]
		off = 0
		if from >= len(src) {
			from -= len(src)
			continue
		}
		n := copy(p[copied:], src[from:])
		from = 0
		copied += n
	}
	return copied
}

// PeekByte returns the i-th buffered byte (0-based) without consuming it.
// The second result is false when fewer than i+1 bytes are buffered.
func (q *Queue) PeekByte(i int) (byte, bool) {
	if i < 0 || i >= q.size {
		return 0, false
	}
	off := q.off
	for _, c := range q.chunks {
		span := len(c) - off
		if i < span {
			return c[off+i], true
		}
		i -= span
		off = 0
	}
	return 0, false
}

// Contig returns a view of the first n buffered bytes when they are stored
// contiguously in the front chunk, or nil when they span chunks (or fewer
// than n bytes are buffered). The view is valid until those bytes are
// consumed; it does not retain the chunk.
func (q *Queue) Contig(n int) []byte {
	if n <= 0 || q.size < n || len(q.chunks) == 0 {
		return nil
	}
	if c := q.chunks[0]; len(c)-q.off >= n {
		return c[q.off : q.off+n]
	}
	return nil
}

// TakeRef consumes the first n bytes and returns them as a contiguous view
// plus the Ref that keeps the view alive; the caller owns one reference and
// must Release it when done with the bytes. When the bytes sit in a single
// chunk the view aliases it directly (zero copy, the steady-state path);
// bytes spanning chunks are coalesced into a fresh pooled region (counted,
// so benchmarks can watch the slow path). Returns (nil, nil) when fewer
// than n bytes are buffered or n <= 0.
func (q *Queue) TakeRef(n int) ([]byte, *Ref) {
	if n <= 0 || q.size < n {
		return nil, nil
	}
	if c := q.chunks[0]; len(c)-q.off >= n {
		if r := q.refs[0]; r != nil {
			view := c[q.off : q.off+n]
			r.Retain()
			q.off += n
			q.size -= n
			if q.off == len(c) {
				q.dropFront()
			}
			q.pool.views.Add(1)
			return view, r
		}
		// Region-less chunk (AppendView with a nil ref): there is no
		// reference to hand out, so fall through to the coalesce path.
	}
	r := q.pool.GetRef(n)
	q.PeekAt(r.Bytes(), 0)
	q.Discard(n)
	q.pool.coalesced.Add(1)
	return r.Bytes(), r
}

// Discard drops up to n bytes from the front, releasing spent chunks back to
// the pool, and reports how many bytes were dropped.
func (q *Queue) Discard(n int) int {
	dropped := 0
	for n > 0 && len(q.chunks) > 0 {
		c := q.chunks[0]
		avail := len(c) - q.off
		if n < avail {
			q.off += n
			dropped += n
			q.size -= n
			return dropped
		}
		dropped += avail
		q.size -= avail
		n -= avail
		q.dropFront()
	}
	return dropped
}

// ReadFull copies exactly len(p) bytes from the front, consuming them. It
// reports false (copying nothing) when fewer bytes are buffered.
func (q *Queue) ReadFull(p []byte) bool {
	if q.size < len(p) {
		return false
	}
	n := q.Peek(p)
	q.Discard(n)
	return true
}

// IndexByte returns the offset of the first occurrence of b at or after
// position from, or -1 when absent.
func (q *Queue) IndexByte(b byte, from int) int {
	if from < 0 {
		from = 0
	}
	pos := 0
	off := q.off
	for _, c := range q.chunks {
		span := c[off:]
		if pos+len(span) <= from {
			pos += len(span)
			off = 0
			continue
		}
		start := 0
		if from > pos {
			start = from - pos
		}
		for i := start; i < len(span); i++ {
			if span[i] == b {
				return pos + i
			}
		}
		pos += len(span)
		off = 0
	}
	return -1
}

// Reset drops all buffered bytes, releasing every chunk reference.
func (q *Queue) Reset() {
	for i := range q.chunks {
		if r := q.refs[i]; r != nil {
			r.Release()
		}
		q.chunks[i], q.refs[i] = nil, nil
	}
	q.chunks = q.chunks[:0]
	q.refs = q.refs[:0]
	q.off, q.size = 0, 0
}
