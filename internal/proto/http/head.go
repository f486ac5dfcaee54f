package http

import (
	"fmt"

	"flick/internal/buffer"
)

// Head is the framing of a request whose header block is buffered, read
// before its body arrives: what a server needs to refuse an oversized body
// or to invite it with 100 Continue.
type Head struct {
	// Len is the header block's length, terminator included; 0 while the
	// block is still incomplete.
	Len int
	// ContentLength is the declared body length (0 when absent or
	// chunked).
	ContentLength int
	// ExpectContinue marks "Expect: 100-continue".
	ExpectContinue bool
}

// PeekRequestHead parses the header block of the request at the front of
// q without consuming a byte. It fails with ErrTooLarge once the block
// exceeds MaxHeaderBytes, and with ErrMalformed on bad framing headers.
// A block straddling queue chunks is copied through q's own pool, so a
// server on a private pool never touches buffer.Global.
func PeekRequestHead(q *buffer.Queue) (Head, error) {
	scanned := 0
	end, found := scanCRLFCRLF(q, &scanned)
	if !found {
		if q.Len() > MaxHeaderBytes {
			return Head{}, fmt.Errorf("%w: headers exceed %d bytes", ErrTooLarge, MaxHeaderBytes)
		}
		return Head{}, nil
	}
	n := end + 4
	if n > MaxHeaderBytes {
		return Head{}, fmt.Errorf("%w: headers exceed %d bytes", ErrTooLarge, MaxHeaderBytes)
	}
	head := q.Contig(n)
	if head == nil {
		ref := q.Pool().GetRef(n)
		defer ref.Release()
		head = ref.Bytes()
		q.PeekAt(head, 0)
	}
	f, err := parseFraming(head, true)
	if err != nil {
		return Head{}, err
	}
	_, fields := splitLine(head)
	expect, _ := findHeader(fields, "expect")
	return Head{
		Len:            n,
		ContentLength:  f.bodyLen,
		ExpectContinue: asciiEqualFoldStr(expect, "100-continue"),
	}, nil
}
