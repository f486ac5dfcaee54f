package layers

import (
	"bufio"
	"fmt"
	"os"
	"time"
)

// Span names. Every request's root is "request"; the others are its
// children, one per call into a layer.
const (
	spanRequest = iota
	spanDecode
	spanRoute
	spanCacheGet
	spanRoundTrip
	spanDecodeResp
	spanCacheFill
	spanEncode
	numSpans
)

var spanNames = [numSpans]string{"request", "proto.decode", "backend.route", "cache.get",
	"upstream.roundtrip", "proto.decode_resp", "cache.fill", "proto.encode"}

// Span is one timed interval: its id, the id of the span that caused it
// (-1 for a root), the request both belong to, and monotonic nanoseconds.
type Span struct {
	ID, Parent, Req int32
	Name            uint8
	Start, End      int64
}

// Trace holds every span of a replay in memory until WriteFile.
type Trace struct {
	Spans []Span
}

var epoch = time.Now()

func now() int64 { return int64(time.Since(epoch)) }

// stamper collects one request's stage boundaries. Consecutive stages share
// a clock reading — the end of one is the start of the next — so the
// children tile the root exactly and no time falls between spans.
type stamper struct {
	t    [numSpans + 1]int64
	name [numSpans]uint8
	n    int
}

func (s *stamper) start() { s.n, s.t[0] = 0, now() }

// mark ends the stage that began at the previous boundary.
func (s *stamper) mark(name uint8) {
	s.name[s.n] = name
	s.n++
	s.t[s.n] = now()
}

func (tr *Trace) add(req int, s *stamper) {
	root := int32(len(tr.Spans))
	tr.Spans = append(tr.Spans, Span{ID: root, Parent: -1, Req: int32(req), Name: spanRequest, Start: s.t[0], End: s.t[s.n]})
	for i := 0; i < s.n; i++ {
		tr.Spans = append(tr.Spans, Span{ID: root + 1 + int32(i), Parent: root, Req: int32(req), Name: s.name[i], Start: s.t[i], End: s.t[i+1]})
	}
}

// SpanSummary aggregates the spans of one name.
type SpanSummary struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalNs int64   `json:"total_ns"`
	SelfNs  int64   `json:"self_ns"` // duration minus the part child spans cover
	MeanNs  float64 `json:"mean_ns"`
}

// Summary aggregates spans by name and reports the share of root time the
// children's self times account for.
func (tr *Trace) Summary() (byName []SpanSummary, childShare float64) {
	byName = make([]SpanSummary, numSpans)
	covered := make([]int64, len(tr.Spans)) // by span id: time its children cover
	for _, sp := range tr.Spans {
		s := &byName[sp.Name]
		s.Count++
		s.TotalNs += sp.End - sp.Start
		if sp.Parent >= 0 {
			covered[sp.Parent] += sp.End - sp.Start
		}
	}
	var childSelf int64
	for _, sp := range tr.Spans {
		self := sp.End - sp.Start - covered[sp.ID]
		byName[sp.Name].SelfNs += self
		if sp.Parent >= 0 {
			childSelf += self
		}
	}
	for i := range byName {
		byName[i].Name = spanNames[i]
		if byName[i].Count > 0 {
			byName[i].MeanNs = float64(byName[i].TotalNs) / float64(byName[i].Count)
		}
	}
	if root := byName[spanRequest].TotalNs; root > 0 {
		childShare = float64(childSelf) / float64(root)
	}
	return byName, childShare
}

// WriteFile writes the trace as JSON: the summary, then one row per span.
func (tr *Trace) WriteFile(path, workload string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	byName, share := tr.Summary()
	fmt.Fprintf(w, "{\"workload\":%q,\"clock\":\"monotonic ns since replay start\",\"child_self_share_of_root\":%.4f,\n\"summary\":[", workload, share)
	for i, s := range byName {
		if i > 0 {
			w.WriteByte(',')
		}
		fmt.Fprintf(w, "\n {\"name\":%q,\"count\":%d,\"total_ns\":%d,\"self_ns\":%d,\"mean_ns\":%.1f}", s.Name, s.Count, s.TotalNs, s.SelfNs, s.MeanNs)
	}
	fmt.Fprintf(w, "],\n\"columns\":[\"id\",\"parent\",\"request\",\"name\",\"start_ns\",\"end_ns\"],\n\"spans\":[")
	for i, sp := range tr.Spans {
		if i > 0 {
			w.WriteByte(',')
		}
		fmt.Fprintf(w, "\n[%d,%d,%d,%q,%d,%d]", sp.ID, sp.Parent, sp.Req, spanNames[sp.Name], sp.Start, sp.End)
	}
	w.WriteString("]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
