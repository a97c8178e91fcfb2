package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"strings"
)

// SpanRecord is the exported form of one span — what the JSONL stream
// carries, the flight recorder stores, and cmd/jashtrace reads back.
type SpanRecord struct {
	Type    string         `json:"type"`
	ID      uint64         `json:"id"`
	Parent  uint64         `json:"parent,omitempty"`
	Name    string         `json:"name"`
	StartUS int64          `json:"start_us"`
	DurUS   int64          `json:"dur_us"`
	Attrs   map[string]any `json:"attrs,omitempty"`
	Events  []EventRecord  `json:"events,omitempty"`
	// Unfinished marks a span captured by a flight dump before it ended
	// (a crash or stall snapshot); DurUS then measures up to the dump.
	Unfinished bool `json:"unfinished,omitempty"`
}

// EventRecord is one point-in-time event within a span.
type EventRecord struct {
	Name  string         `json:"name"`
	AtUS  int64          `json:"at_us"`
	Attrs map[string]any `json:"attrs,omitempty"`
}

// MetricRecord is the exported form of one registry instrument.
type MetricRecord struct {
	Type   string  `json:"type"`
	Metric string  `json:"metric"` // "counter", "histogram"
	Name   string  `json:"name"`
	Value  float64 `json:"value,omitempty"` // counters
	// Histogram fields.
	Count   int64         `json:"count,omitempty"`
	SumUS   int64         `json:"sum_us,omitempty"`
	P50US   int64         `json:"p50_us,omitempty"`
	P95US   int64         `json:"p95_us,omitempty"`
	P99US   int64         `json:"p99_us,omitempty"`
	Buckets []HistoBucket `json:"buckets,omitempty"`
}

// HistoBucket is one non-empty histogram bucket: Count observations at
// or under UpperUS microseconds (exclusive upper bound, power of two).
type HistoBucket struct {
	UpperUS int64 `json:"upper_us"`
	Count   int64 `json:"count"`
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
	Spans   []SpanRecord
	Metrics []MetricRecord
}

// Read parses a JSONL trace stream. Unknown record types are skipped
// (forward compatibility); malformed lines are an error naming the line
// number, which is what the CI gate relies on.
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
		switch head.Type {
		case "span":
			var rec SpanRecord
			if err := json.Unmarshal([]byte(line), &rec); err != nil {
				return nil, fmt.Errorf("line %d: %w", lineNo, err)
			}
			if rec.Name == "" || rec.ID == 0 {
				return nil, fmt.Errorf("line %d: span missing name or id", lineNo)
			}
			d.Spans = append(d.Spans, rec)
		case "metric":
			var rec MetricRecord
			if err := json.Unmarshal([]byte(line), &rec); err != nil {
				return nil, fmt.Errorf("line %d: %w", lineNo, err)
			}
			if rec.Name == "" {
				return nil, fmt.Errorf("line %d: metric missing name", lineNo)
			}
			d.Metrics = append(d.Metrics, rec)
		default:
			// Skip unknown record types.
		}
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

// writeChrome renders spans as Chrome trace_event "complete" events
// (ph "X") plus instant events for span events, grouped so every span
// tree shares the tid of its root span — Perfetto then lays each plan
// out on its own track. Metrics ride along as counter events on tid 0.
func writeChrome(w io.Writer, spans []SpanRecord, metrics []MetricRecord) error {
	// Resolve each span to its root for track assignment.
	parent := make(map[uint64]uint64, len(spans))
	for _, s := range spans {
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
	events := make([]chromeEvent, 0, len(spans))
	for _, s := range spans {
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
	var lastTS int64
	for _, e := range events {
		if e.TS > lastTS {
			lastTS = e.TS
		}
	}
	for _, m := range metrics {
		if m.Metric == "histogram" {
			continue // histograms export via JSONL; Chrome counters are scalars
		}
		events = append(events, chromeEvent{
			Name: m.Name, Cat: "jash-metric", Phase: "C",
			TS: lastTS, PID: 1, TID: 0,
			Args: map[string]any{"value": m.Value},
		})
	}
	doc := struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
		Meta        string        `json:"otherData,omitempty"`
	}{TraceEvents: events, Meta: "jash trace"}
	enc := json.NewEncoder(w)
	return enc.Encode(doc)
}
