package main

import (
	"encoding/json"
	"io"
	"sort"
	"sync"
	"time"
)

// The harness owns these spans: they are opened around calls into each
// layer's public functions, from outside. Spans inside the program are a
// later change; until then nothing here depends on internal/trace.

// spanRecord is one finished span as written to the JSONL file. Times
// are nanoseconds since the recorder was created.
type spanRecord struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for an op's root span
	Op     int    `json:"op"`     // spans of one op share this
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps every span in memory until the run ends. Pipeline
// stages of the interpreter call the observer from their own goroutines,
// so it locks.
type recorder struct {
	mu    sync.Mutex
	epoch time.Time
	spans []spanRecord
	next  int
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// span is an open span; end closes it.
type span struct {
	rec    *recorder
	id     int
	parent int
	op     int
	name   string
	start  time.Duration
}

// now is the recorder's clock: time since it was created.
func (r *recorder) now() time.Duration { return time.Since(r.epoch) }

// root opens the root span of op.
func (r *recorder) root(op int, name string) *span {
	return r.open(0, op, name, r.now())
}

func (r *recorder) open(parent, op int, name string, start time.Duration) *span {
	r.mu.Lock()
	r.next++
	id := r.next
	r.mu.Unlock()
	return &span{rec: r, id: id, parent: parent, op: op, name: name, start: start}
}

// child opens a span caused by s.
func (s *span) child(name string) *span { return s.childAt(name, s.rec.now()) }

// childAt opens a child that began at start: the harness learns that a
// pipeline is worth a span only after timing its first steps.
func (s *span) childAt(name string, start time.Duration) *span {
	return s.rec.open(s.id, s.op, name, start)
}

// end closes the span and returns its duration.
func (s *span) end() time.Duration { return s.endAt(s.rec.now()) }

func (s *span) endAt(end time.Duration) time.Duration {
	s.rec.mu.Lock()
	s.rec.spans = append(s.rec.spans, spanRecord{ID: s.id, Parent: s.parent, Op: s.op,
		Name: s.name, Start: int64(s.start), End: int64(end)})
	s.rec.mu.Unlock()
	return end - s.start
}

// len is the number of finished spans; since returns a copy of the ones
// finished after the first n.
func (r *recorder) len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.spans)
}

func (r *recorder) since(n int) []spanRecord {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]spanRecord(nil), r.spans[n:]...)
}

// writeJSONL writes one span per line, in start order.
func (r *recorder) writeJSONL(w io.Writer) error {
	spans := r.since(0)
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return nil
}

// selfTimes returns, per span name, the summed self time of one op's
// spans: a span's duration minus the part of its interval that its child
// spans cover (children may overlap one another, so the cover is a union).
func selfTimes(spans []spanRecord) map[string]time.Duration {
	children := map[int][]spanRecord{}
	for _, s := range spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	out := map[string]time.Duration{}
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, until := int64(0), s.Start
		for _, k := range kids {
			from, to := k.Start, k.End
			if from < until {
				from = until
			}
			if to > s.End {
				to = s.End
			}
			if to > from {
				covered += to - from
				until = to
			}
		}
		out[s.Name] += time.Duration(s.End - s.Start - covered)
	}
	return out
}

// totals returns, per span name, the summed duration of one op's spans.
func totals(spans []spanRecord) map[string]time.Duration {
	out := map[string]time.Duration{}
	for _, s := range spans {
		out[s.Name] += time.Duration(s.End - s.Start)
	}
	return out
}
