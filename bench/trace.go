package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
)

// span is one traced interval, recorded by the benchmark around its calls
// into the runtime. Span is the record's own number, Parent the number of
// the span that caused it (-1 for the root), ID the operation the span
// belongs to: the op, initiate and wait spans of one operation share it.
type span struct {
	Name   string `json:"name"`
	Span   int32  `json:"span"`
	Parent int32  `json:"parent"`
	ID     int64  `json:"id"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// counterRow is a counter snapshot taken at a pass boundary, written into
// the trace file beside the spans so ratios can be read where the work
// happened.
type counterRow struct {
	Pass     int              `json:"pass"`
	At       int64            `json:"at_ns"`
	Counters map[string]int64 `json:"counters"`
}

// tracer keeps spans in memory until the run ends. Past maxSpans further
// op-level spans are counted, not kept: a traced in-process run produces
// them faster than a trace file is worth.
type tracer struct {
	spans    []span
	rows     []counterRow
	maxSpans int
	dropped  int64
}

func newTracer(maxSpans int) *tracer {
	return &tracer{spans: make([]span, 0, 1<<12), maxSpans: maxSpans}
}

// add records a finished span and returns its number, or -1 when the
// tracer is full.
func (t *tracer) add(name string, parent int32, id, start, end int64) int32 {
	if len(t.spans) >= t.maxSpans {
		t.dropped++
		return -1
	}
	n := int32(len(t.spans))
	t.spans = append(t.spans, span{Name: name, Span: n, Parent: parent, ID: id, Start: start, End: end})
	return n
}

// open records a span whose end is not known yet; close sets it.
func (t *tracer) open(name string, parent int32, id, start int64) int32 {
	return t.add(name, parent, id, start, start)
}

func (t *tracer) close(n int32, end int64) {
	if n >= 0 {
		t.spans[n].End = end
	}
}

func (t *tracer) counters(pass int, at int64, c map[string]int64) {
	t.rows = append(t.rows, counterRow{Pass: pass, At: at, Counters: c})
}

// selfTimes returns, per span name, the summed self time: each span's
// duration minus the part of it its child spans cover (overlapping
// children are counted once).
func selfTimes(spans []span) map[string]int64 {
	children := make(map[int32][][2]int64)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := make(map[string]int64)
	for _, s := range spans {
		out[s.Name] += (s.End - s.Start) - covered(children[s.Span], s.Start, s.End)
	}
	return out
}

// covered is the length of the union of the intervals, clipped to
// [lo, hi].
func covered(iv [][2]int64, lo, hi int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total int64
	end := lo
	for _, c := range iv {
		s, e := c[0], c[1]
		if s < end {
			s = end
		}
		if e > hi {
			e = hi
		}
		if e > s {
			total += e - s
			end = e
		}
	}
	return total
}

// write stores the trace as JSON lines: one span or counter row per line.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	for i := range t.rows {
		if err := enc.Encode(&t.rows[i]); err != nil {
			f.Close()
			return err
		}
	}
	if t.dropped > 0 {
		if err := enc.Encode(map[string]int64{"spans_dropped": t.dropped}); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
