package buffer

import (
	"bytes"
	"io"
	"net"
	"sync"
	"testing"
)

func TestRefLifecycle(t *testing.T) {
	p := NewPool(8)
	r := p.GetRef(100)
	if r.Refs() != 1 {
		t.Fatalf("fresh ref count = %d, want 1", r.Refs())
	}
	if len(r.Bytes()) != 100 {
		t.Fatalf("len = %d, want 100", len(r.Bytes()))
	}
	copy(r.Bytes(), bytes.Repeat([]byte{'x'}, 100))
	r.Retain()
	r.Release()
	if got := p.Stats().RefPuts; got != 0 {
		t.Fatalf("region recycled with a reference outstanding (refPuts=%d)", got)
	}
	r.Release()
	s := p.Stats()
	if s.RefGets != 1 || s.RefPuts != 1 {
		t.Fatalf("refGets/refPuts = %d/%d, want 1/1", s.RefGets, s.RefPuts)
	}
	// The buffer must be back on the freelist: the next Get of the class
	// must not miss.
	misses := p.Stats().Misses
	p.Get(100)
	if p.Stats().Misses != misses {
		t.Fatalf("released ref's buffer did not return to the pool")
	}
}

func TestRefDoubleReleasePanics(t *testing.T) {
	p := NewPool(8)
	r := p.GetRef(64)
	r.Release()
	defer func() {
		if recover() == nil {
			t.Fatalf("double release did not panic")
		}
	}()
	r.Release()
}

// TestRefStress hammers one region from many goroutines under -race: every
// goroutine retains, reads, and releases; the initial reference is dropped
// concurrently. The refcount must neither double-free (panic) nor leak (the
// pool must see exactly one recycled region).
func TestRefStress(t *testing.T) {
	const (
		goroutines = 16
		rounds     = 200
	)
	p := NewPool(64)
	for round := 0; round < rounds; round++ {
		r := p.GetRef(256)
		for i := range r.Bytes() {
			r.Bytes()[i] = byte(i)
		}
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			r.Retain()
			wg.Add(1)
			go func() {
				defer wg.Done()
				b := r.Bytes()
				if b[17] != 17 {
					t.Errorf("view corrupted while referenced")
				}
				r.Release()
			}()
		}
		r.Release() // drop the creator's reference concurrently
		wg.Wait()
	}
	s := p.Stats()
	if s.RefGets != rounds || s.RefPuts != rounds {
		t.Fatalf("refGets/refPuts = %d/%d, want %d/%d (leak or double free)",
			s.RefGets, s.RefPuts, rounds, rounds)
	}
}

func TestQueueAppendRefZeroCopy(t *testing.T) {
	p := NewPool(8)
	q := NewQueue(p)
	r := p.GetRef(64)
	copy(r.Bytes(), "hello, pooled world")
	q.AppendRef(r, 19)
	if q.Len() != 19 {
		t.Fatalf("len = %d, want 19", q.Len())
	}
	view, ref := q.TakeRef(19)
	if ref != r {
		t.Fatalf("TakeRef did not alias the appended chunk")
	}
	if &view[0] != &r.Bytes()[0] {
		t.Fatalf("view was copied, want alias of the pooled chunk")
	}
	if string(view) != "hello, pooled world" {
		t.Fatalf("view = %q", view)
	}
	// The queue dropped its chunk reference when the chunk was fully
	// consumed; the message's reference keeps the buffer alive.
	if ref.Refs() != 1 {
		t.Fatalf("refs = %d, want 1 (message only)", ref.Refs())
	}
	ref.Release()
	if p.Stats().RefPuts != 1 {
		t.Fatalf("chunk not recycled after last release")
	}
	if got, _ := p.Stats().Views, p.Stats().Coalesced; got != 1 {
		t.Fatalf("views = %d, want 1", got)
	}
}

func TestQueueTakeRefCoalescesAcrossChunks(t *testing.T) {
	p := NewPool(8)
	q := NewQueue(p)
	r1 := p.GetRef(64)
	copy(r1.Bytes(), "half-one|")
	q.AppendRef(r1, 9)
	r2 := p.GetRef(64)
	copy(r2.Bytes(), "half-two")
	q.AppendRef(r2, 8)

	view, ref := q.TakeRef(17)
	if string(view) != "half-one|half-two" {
		t.Fatalf("coalesced view = %q", view)
	}
	if ref == r1 || ref == r2 {
		t.Fatalf("span across chunks must coalesce into a fresh region")
	}
	if p.Stats().Coalesced != 1 {
		t.Fatalf("coalesced counter = %d, want 1", p.Stats().Coalesced)
	}
	ref.Release()
	if q.Len() != 0 {
		t.Fatalf("queue should be drained, len=%d", q.Len())
	}
}

func TestQueueTakeRefPartialChunkKeepsQueueReference(t *testing.T) {
	p := NewPool(8)
	q := NewQueue(p)
	r := p.GetRef(64)
	copy(r.Bytes(), "msg1msg2")
	q.AppendRef(r, 8)

	v1, ref1 := q.TakeRef(4)
	if string(v1) != "msg1" || ref1 != r {
		t.Fatalf("first view = %q (aliased=%v)", v1, ref1 == r)
	}
	// Queue still holds its chunk reference plus the message's.
	if r.Refs() != 2 {
		t.Fatalf("refs = %d, want 2", r.Refs())
	}
	v2, ref2 := q.TakeRef(4)
	if string(v2) != "msg2" || ref2 != r {
		t.Fatalf("second view = %q", v2)
	}
	// Chunk consumed: queue dropped its reference, two messages remain.
	if r.Refs() != 2 {
		t.Fatalf("refs = %d, want 2 (two live messages)", r.Refs())
	}
	ref1.Release()
	ref2.Release()
	if p.Stats().RefPuts != 1 {
		t.Fatalf("chunk not recycled after both messages released")
	}
}

// TestQueueAppendNeverExtendsRefChunks pins the AppendRef capacity clip: a
// producer that Retained the region may still own every byte past the
// appended prefix, so a later Append must start a fresh chunk rather than
// extend into the region's spare capacity.
func TestQueueAppendNeverExtendsRefChunks(t *testing.T) {
	p := NewPool(8)
	q := NewQueue(p)
	r := p.GetRef(64)
	copy(r.Bytes(), "prefix--PRODUCER-OWNED-TAIL.....")
	r.Retain() // producer keeps using the region past the prefix
	q.AppendRef(r, 8)
	q.Append([]byte("appended"))

	if got := string(r.Bytes()[8:24]); got != "PRODUCER-OWNED-T" {
		t.Fatalf("Append scribbled over the retained region: %q", got)
	}
	all := make([]byte, 16)
	if !q.ReadFull(all) || string(all) != "prefix--appended" {
		t.Fatalf("queue contents = %q, want %q", all, "prefix--appended")
	}
	r.Release()
}

// TestQueueAppendReadCompactsSmallReads pins the trickle guard: a short read
// is copied and its chunk released immediately instead of pinning the whole
// pooled region until consumed, while a bulk read still transfers the region
// by reference.
func TestQueueAppendReadCompactsSmallReads(t *testing.T) {
	p := NewPool(8)
	q := NewQueue(p)

	small := p.GetRef(64)
	copy(small.Bytes(), "tiny")
	q.AppendRead(small, 4) // 4 < 64/8: copied and released
	if p.Stats().RefPuts != 1 {
		t.Fatalf("small-read chunk not released (refPuts=%d)", p.Stats().RefPuts)
	}

	bulk := p.GetRef(64)
	copy(bulk.Bytes(), "0123456789abcdef")
	q.AppendRead(bulk, 16) // 16 >= 64/8: zero-copy hand-over
	q.Discard(4)
	view, ref := q.TakeRef(16)
	if ref != bulk || &view[0] != &bulk.Bytes()[0] {
		t.Fatalf("bulk read was copied, want zero-copy alias")
	}
	if string(view) != "0123456789abcdef" {
		t.Fatalf("bulk view = %q", view)
	}
	ref.Release()
}

func TestQueueResetReleasesChunks(t *testing.T) {
	p := NewPool(8)
	q := NewQueue(p)
	for i := 0; i < 3; i++ {
		r := p.GetRef(64)
		q.AppendRef(r, 64)
	}
	q.Reset()
	s := p.Stats()
	if s.RefPuts != 3 {
		t.Fatalf("refPuts = %d, want 3", s.RefPuts)
	}
}

func TestQueueMixedAppendAndPeekAt(t *testing.T) {
	p := NewPool(8)
	q := NewQueue(p)
	q.Append([]byte("abcdef"))
	r := p.GetRef(64)
	copy(r.Bytes(), "ghijkl")
	q.AppendRef(r, 6)
	q.Append([]byte("mnopqr"))

	got := make([]byte, 8)
	if n := q.PeekAt(got, 4); n != 8 {
		t.Fatalf("PeekAt copied %d, want 8", n)
	}
	if string(got) != "efghijkl" {
		t.Fatalf("PeekAt = %q, want %q", got, "efghijkl")
	}
	if q.Len() != 18 {
		t.Fatalf("len = %d, want 18", q.Len())
	}
	all := make([]byte, 18)
	q.ReadFull(all)
	if string(all) != "abcdefghijklmnopqr" {
		t.Fatalf("drain = %q", all)
	}
}

// flush writes sc's segments to w in order and resets sc, as an output
// task's flush does.
func flush(sc *Scatter, w io.Writer) (int64, error) {
	nb := net.Buffers(sc.Buffers())
	n, err := nb.WriteTo(w)
	sc.Reset()
	return n, err
}

func TestScatterZeroCopyAndCopiedSegments(t *testing.T) {
	p := NewPool(8)
	sc := NewScatter(p)
	r := p.GetRef(64)
	copy(r.Bytes(), "RAWBYTES")
	sc.AppendRef(r.Bytes()[:8], r)
	sc.Append([]byte("copied-1"))
	sc.Append([]byte("copied-2"))
	if sc.Len() != 24 {
		t.Fatalf("len = %d, want 24", sc.Len())
	}
	// The copied segments coalesce into one tail-backed segment.
	if sc.Segments() != 2 {
		t.Fatalf("segments = %d, want 2", sc.Segments())
	}
	if &sc.Buffers()[0][0] != &r.Bytes()[0] {
		t.Fatalf("raw segment copied, want alias")
	}
	var out bytes.Buffer
	n, err := flush(sc, &out)
	if err != nil || n != 24 {
		t.Fatalf("flush = %d, %v", n, err)
	}
	if out.String() != "RAWBYTEScopied-1copied-2" {
		t.Fatalf("flushed = %q", out.String())
	}
	// Flush released the retained region reference.
	if r.Refs() != 1 {
		t.Fatalf("refs after flush = %d, want 1", r.Refs())
	}
	r.Release()
	if sc.Len() != 0 || sc.Segments() != 0 {
		t.Fatalf("scatter not reset after flush")
	}
}

func TestScatterLargeCopySplitsTails(t *testing.T) {
	p := NewPool(8)
	sc := NewScatter(p)
	big := bytes.Repeat([]byte{'z'}, scatterTail+1234)
	sc.Append(big)
	var out bytes.Buffer
	if _, err := flush(sc, &out); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), big) {
		t.Fatalf("large copy corrupted (%d bytes out)", out.Len())
	}
}
