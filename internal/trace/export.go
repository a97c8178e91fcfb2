package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"strings"
)

// SpanRecord is the exported form of one span — what the JSONL stream
// carries and cmd/jashtrace reads back.
type SpanRecord struct {
	Type    string         `json:"type"`
	ID      uint64         `json:"id"`
	Parent  uint64         `json:"parent,omitempty"`
	Name    string         `json:"name"`
	StartUS int64          `json:"start_us"`
	DurUS   int64          `json:"dur_us"`
	Attrs   map[string]any `json:"attrs,omitempty"`
	Events  []EventRecord  `json:"events,omitempty"`
}

// EventRecord is one point-in-time event within a span.
type EventRecord struct {
	Name  string         `json:"name"`
	AtUS  int64          `json:"at_us"`
	Attrs map[string]any `json:"attrs,omitempty"`
}

func writeJSONLine(w io.Writer, v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	data = append(data, '\n')
	_, err = w.Write(data)
	return err
}

// Data is a parsed trace file.
type Data struct {
	Spans []SpanRecord
}

// Read parses a JSONL trace stream. Records of any type but "span" are
// skipped, so a stream that also carries others (the "metric" lines older
// builds appended, say) still reads; malformed lines are an error naming
// the line number, which is what the CI gate relies on.
func Read(r io.Reader) (*Data, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	d := &Data{}
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var head struct {
			Type string `json:"type"`
		}
		if err := json.Unmarshal([]byte(line), &head); err != nil {
			return nil, fmt.Errorf("line %d: %w", lineNo, err)
		}
		if head.Type != "span" {
			continue
		}
		var rec SpanRecord
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			return nil, fmt.Errorf("line %d: %w", lineNo, err)
		}
		if rec.Name == "" || rec.ID == 0 {
			return nil, fmt.Errorf("line %d: span missing name or id", lineNo)
		}
		d.Spans = append(d.Spans, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return d, nil
}

// chromeEvent is one Chrome trace_event entry.
type chromeEvent struct {
	Name  string         `json:"name"`
	Cat   string         `json:"cat,omitempty"`
	Phase string         `json:"ph"`
	TS    int64          `json:"ts"`
	Dur   int64          `json:"dur,omitempty"`
	PID   int            `json:"pid"`
	TID   uint64         `json:"tid"`
	Scope string         `json:"s,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
}

// Check validates a parsed trace: it has spans, every root is a `command`
// span (whatever else a run records hangs from the command that ran it),
// every span's parent is in it (a span is written when it ends, so a
// missing parent is one that was leaked, never ended), and every `pipeline`
// span says how its interposition settled and why, with an `outcome` and a
// `reason`. It returns one message per failure.
func (d *Data) Check() []string {
	if len(d.Spans) == 0 {
		return []string{"trace contains no spans"}
	}
	var bad []string
	ids := make(map[uint64]bool, len(d.Spans))
	for _, s := range d.Spans {
		ids[s.ID] = true
	}
	for _, s := range d.Spans {
		if s.Parent == 0 && s.Name != "command" {
			bad = append(bad, fmt.Sprintf("span %d (%s) is a root, and only a command span may be", s.ID, s.Name))
		}
		if s.Parent != 0 && !ids[s.Parent] {
			bad = append(bad, fmt.Sprintf("span %d (%s) names parent %d, which is not in the trace", s.ID, s.Name, s.Parent))
		}
		if s.Name != "pipeline" {
			continue
		}
		for _, key := range [...]string{"outcome", "reason"} {
			if v, _ := s.Attrs[key].(string); v == "" {
				bad = append(bad, fmt.Sprintf("span %d (pipeline) has no %s", s.ID, key))
			}
		}
	}
	return bad
}

// WriteChrome converts the trace to a Chrome trace_event document: one
// "complete" event (ph "X") per span plus an instant event per span event,
// grouped so every span tree shares the tid of its root span — Perfetto
// then lays each plan out on its own track.
func (d *Data) WriteChrome(w io.Writer) error {
	// Resolve each span to its root for track assignment.
	parent := make(map[uint64]uint64, len(d.Spans))
	for _, s := range d.Spans {
		parent[s.ID] = s.Parent
	}
	rootOf := func(id uint64) uint64 {
		for depth := 0; depth < 1000; depth++ {
			p := parent[id]
			if p == 0 {
				return id
			}
			id = p
		}
		return id
	}
	events := make([]chromeEvent, 0, len(d.Spans))
	for _, s := range d.Spans {
		tid := rootOf(s.ID)
		dur := s.DurUS
		if dur <= 0 {
			dur = 1 // Perfetto drops zero-length complete events
		}
		events = append(events, chromeEvent{
			Name: s.Name, Cat: "jash", Phase: "X",
			TS: s.StartUS, Dur: dur, PID: 1, TID: tid, Args: s.Attrs,
		})
		for _, ev := range s.Events {
			events = append(events, chromeEvent{
				Name: ev.Name, Cat: "jash-event", Phase: "i",
				TS: ev.AtUS, PID: 1, TID: tid, Scope: "t", Args: ev.Attrs,
			})
		}
	}
	doc := struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
		Meta        string        `json:"otherData,omitempty"`
	}{TraceEvents: events, Meta: "jash trace"}
	enc := json.NewEncoder(w)
	return enc.Encode(doc)
}
