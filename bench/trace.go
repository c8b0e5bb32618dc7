package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"time"
)

// span is one timed call across a layer boundary. Spans of one window
// share its number; Parent is the span that caused this one (0 = none).
// N counts the items the call handled (ops, keys, lines), recorded where
// the time is, so a ratio is measured where the work happens.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Window int    `json:"window"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	N      int64  `json:"n,omitempty"`
}

// tracer keeps spans in memory until the run ends. One goroutine uses it.
type tracer struct {
	epoch time.Time
	spans []span
	max   int // spans beyond this are timed by their callers but not kept
}

func newTracer(max int) *tracer {
	return &tracer{epoch: time.Now(), max: max, spans: make([]span, 0, max)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// begin opens a span and returns its id (0 when the tracer is full) and
// its start time.
func (t *tracer) begin(name string, parent, window int) (id int, start int64) {
	if len(t.spans) >= t.max {
		return 0, t.now()
	}
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Window: window, Name: name})
	start = t.now()
	t.spans[len(t.spans)-1].Start = start
	return len(t.spans), start
}

// end closes span id with the number of items it handled and returns the
// end time.
func (t *tracer) end(id int, n int64) int64 {
	now := t.now()
	if id > 0 {
		t.spans[id-1].End, t.spans[id-1].N = now, n
	}
	return now
}

// selfNs returns, per span, its duration minus the part of its interval
// that its child spans cover. Children may overlap each other and may
// stick out of the parent; the union is clipped to the parent.
func selfNs(spans []span) []int64 {
	kids := map[int][]int{}
	for i, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		ks := kids[s.ID]
		slices.SortFunc(ks, func(a, b int) int { return int(spans[a].Start - spans[b].Start) })
		covered, edge := int64(0), s.Start
		for _, k := range ks {
			lo, hi := max(spans[k].Start, edge), min(spans[k].End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[i] = s.End - s.Start - covered
	}
	return self
}

// totals sums duration, self time and item count per span name.
type spanTotal struct {
	ns, selfNs, n int64
	calls         int
}

func totals(spans []span) map[string]*spanTotal {
	self := selfNs(spans)
	out := map[string]*spanTotal{}
	for i, s := range spans {
		t := out[s.Name]
		if t == nil {
			t = &spanTotal{}
			out[s.Name] = t
		}
		t.ns += s.End - s.Start
		t.selfNs += self[i]
		t.n += s.N
		t.calls++
	}
	return out
}

// write stores the spans as one JSON array.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
