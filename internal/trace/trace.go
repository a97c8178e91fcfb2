// Package trace is Jash's structured tracing and metrics spine: every
// run of the shell can produce a span tree — parse → expand → analysis
// preflight → JIT decision → per-node execution — plus point events for
// the runtime's self-healing machinery (retries, fallbacks, circuit
// breaker trips, list-parallel regions) and a registry of counters
// and latency histograms.
//
// The paper's thesis is that the shell should stop being a black box:
// Smoosh made shell *semantics* observable step by step, and a JIT
// system like Jash makes decisions (compile, parallelize, fall back,
// quarantine) that are invisible without telemetry. This package makes
// every one of those decisions a first-class, exportable artifact.
//
// Design constraints, in order:
//
//  1. Disabled tracing is free. Every entry point is a method on a
//     possibly-nil *Tracer or *Span and returns immediately on nil with
//     zero allocations — the hot paths of the interpreter and executor
//     call straight through unconditional nil-safe methods rather than
//     branching at every call site.
//  2. The last N spans are always inspectable. Finished spans land in a
//     bounded ring-buffer flight recorder, and live (unfinished) spans
//     are tracked too, so a crash, stall, or quarantine can dump the
//     trace of the plans that led up to it.
//  3. Exports are standard. The JSON-lines format round-trips through
//     this package's reader (cmd/jashtrace), and the Chrome trace_event
//     export loads directly in Perfetto / chrome://tracing.
package trace

import (
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// Format selects the export encoding for a Tracer's writer.
type Format int

const (
	// FormatJSONL streams one JSON object per line: span records as they
	// finish, metric records at Close. cmd/jashtrace reads this format.
	FormatJSONL Format = iota
	// FormatChrome buffers the whole trace and writes a Chrome
	// trace_event JSON object at Close, loadable in Perfetto.
	FormatChrome
)

// DefaultFlightSpans is the flight recorder's default ring capacity.
const DefaultFlightSpans = 4096

// Options configure a Tracer.
type Options struct {
	// Writer, when non-nil, receives the exported trace (span records as
	// they end for JSONL; everything at Close for Chrome). A nil Writer
	// keeps the trace in the flight recorder only.
	Writer io.Writer
	// Format selects the export encoding (default FormatJSONL).
	Format Format
	// FlightSpans bounds the flight recorder ring (default
	// DefaultFlightSpans).
	FlightSpans int
	// Clock overrides the time source (tests).
	Clock func() time.Time
}

// Tracer owns one session's trace: span identity, the flight recorder,
// the metrics registry, and the exporter. A nil *Tracer is the disabled
// tracer — every method is safe and free to call on it.
type Tracer struct {
	mu     sync.Mutex
	nextID atomic.Uint64
	clock  func() time.Time
	rec    *recorder
	reg    *Registry
	w      io.Writer
	format Format
	// live tracks started-but-unfinished spans so a crash dump can show
	// what was in flight.
	live map[uint64]*Span
	// chrome buffers span records for the Chrome export (written whole at
	// Close, since the format is one JSON object).
	chrome []SpanRecord
	// werr remembers the first export error; Close returns it.
	werr error
}

// New creates an enabled tracer.
func New(opts Options) *Tracer {
	cap := opts.FlightSpans
	if cap <= 0 {
		cap = DefaultFlightSpans
	}
	clock := opts.Clock
	if clock == nil {
		clock = time.Now
	}
	return &Tracer{
		clock:  clock,
		rec:    newRecorder(cap),
		reg:    NewRegistry(),
		w:      opts.Writer,
		format: opts.Format,
		live:   map[uint64]*Span{},
	}
}

// Enabled reports whether the tracer records anything.
func (t *Tracer) Enabled() bool { return t != nil }

// Metrics returns the tracer's registry (nil when disabled; the
// Registry's own methods are nil-safe too, so chained calls stay free).
func (t *Tracer) Metrics() *Registry {
	if t == nil {
		return nil
	}
	return t.reg
}

// Start begins a span under parent (nil parent = root span).
func (t *Tracer) Start(parent *Span, name string) *Span {
	if t == nil {
		return nil
	}
	return t.StartAt(parent, name, t.clock())
}

// StartAt is Start with the span's start backdated to at: for work that
// is only known to deserve a span once part of it is already done.
func (t *Tracer) StartAt(parent *Span, name string, at time.Time) *Span {
	if t == nil {
		return nil
	}
	s := &Span{
		tr:    t,
		id:    t.nextID.Add(1),
		name:  name,
		start: at,
	}
	if parent != nil {
		s.parent = parent.id
	}
	t.mu.Lock()
	t.live[s.id] = s
	t.mu.Unlock()
	return s
}

// Span is one timed operation. Attribute setters and events take the
// tracer lock, so they are safe from any goroutine — a watchdog can
// stamp a stall event on a run span while its nodes are still
// finishing, and a flight snapshot can capture a live span while its
// owner is annotating it. Attribute ordering across goroutines is the
// caller's concern; by convention each span has one logical owner and
// concurrent workers get child spans. A nil *Span accepts every call.
type Span struct {
	tr     *Tracer
	id     uint64
	parent uint64
	name   string
	start  time.Time
	attrs  []Attr
	events []EventRecord
	ended  bool
}

// Attr is one span attribute; exactly one of Str/Int/Float is
// meaningful per Kind.
type Attr struct {
	Key   string
	Kind  byte // 's', 'i', 'f'
	Str   string
	Int   int64
	Float float64
}

func (a Attr) value() any {
	switch a.Kind {
	case 'i':
		return a.Int
	case 'f':
		return a.Float
	default:
		return a.Str
	}
}

// ID returns the span's identity (0 when nil/disabled).
func (s *Span) ID() uint64 {
	if s == nil {
		return 0
	}
	return s.id
}

// Tracer returns the owning tracer (nil when the span is nil).
func (s *Span) Tracer() *Tracer {
	if s == nil {
		return nil
	}
	return s.tr
}

// Child starts a sub-span. Safe to call from any goroutine.
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	return s.tr.Start(s, name)
}

// SetStr attaches a string attribute; returns the span for chaining.
func (s *Span) SetStr(key, val string) *Span {
	return s.set(Attr{Key: key, Kind: 's', Str: val})
}

// SetInt attaches an integer attribute.
func (s *Span) SetInt(key string, val int64) *Span {
	return s.set(Attr{Key: key, Kind: 'i', Int: val})
}

// SetFloat attaches a float attribute.
func (s *Span) SetFloat(key string, val float64) *Span {
	return s.set(Attr{Key: key, Kind: 'f', Float: val})
}

func (s *Span) set(a Attr) *Span {
	if s == nil {
		return nil
	}
	s.tr.mu.Lock()
	s.attrs = append(s.attrs, a)
	s.tr.mu.Unlock()
	return s
}

// SetBool attaches a boolean attribute (exported as "true"/"false").
func (s *Span) SetBool(key string, val bool) *Span {
	if val {
		return s.SetStr(key, "true")
	}
	return s.SetStr(key, "false")
}

// Event records a point-in-time event on the span.
func (s *Span) Event(name string) {
	s.event(name, nil)
}

// EventStr records an event with one string attribute.
func (s *Span) EventStr(name, key, val string) {
	if s == nil {
		return
	}
	s.event(name, map[string]any{key: val})
}

// EventInt records an event with one integer attribute.
func (s *Span) EventInt(name, key string, val int64) {
	if s == nil {
		return
	}
	s.event(name, map[string]any{key: val})
}

// EventKV records an event with a prebuilt attribute map (the map is
// retained; do not mutate it afterwards).
func (s *Span) EventKV(name string, attrs map[string]any) {
	s.event(name, attrs)
}

func (s *Span) event(name string, attrs map[string]any) {
	if s == nil {
		return
	}
	rec := EventRecord{
		Name:  name,
		AtUS:  s.tr.clock().UnixMicro(),
		Attrs: attrs,
	}
	s.tr.mu.Lock()
	s.events = append(s.events, rec)
	s.tr.mu.Unlock()
}

// End finishes the span: it leaves the live set, enters the flight
// recorder, and (for JSONL exports) is written out immediately. End is
// idempotent; a second End is ignored.
func (s *Span) End() {
	if s == nil {
		return
	}
	t := s.tr
	end := t.clock()
	t.mu.Lock()
	defer t.mu.Unlock()
	if s.ended {
		return
	}
	s.ended = true
	delete(t.live, s.id)
	rec := s.record(end, false)
	t.rec.add(rec)
	switch {
	case t.w == nil:
	case t.format == FormatChrome:
		t.chrome = append(t.chrome, rec)
	default:
		if err := writeJSONLine(t.w, rec); err != nil && t.werr == nil {
			t.werr = err
		}
	}
}

// record snapshots the span as an export record. Caller must ensure the
// span is quiescent (ended, or the tracer lock held for a flight dump).
func (s *Span) record(end time.Time, unfinished bool) SpanRecord {
	rec := SpanRecord{
		Type:       "span",
		ID:         s.id,
		Parent:     s.parent,
		Name:       s.name,
		StartUS:    s.start.UnixMicro(),
		DurUS:      end.Sub(s.start).Microseconds(),
		Events:     s.events,
		Unfinished: unfinished,
	}
	if len(s.attrs) > 0 {
		rec.Attrs = make(map[string]any, len(s.attrs))
		for _, a := range s.attrs {
			rec.Attrs[a.Key] = a.value()
		}
	}
	return rec
}

// FlightSnapshot returns the flight recorder's contents — the last N
// finished spans in completion order, followed by every live span
// (marked unfinished, timed up to now). It is safe to call at any time,
// including from a crash handler.
func (t *Tracer) FlightSnapshot() []SpanRecord {
	if t == nil {
		return nil
	}
	now := t.clock()
	t.mu.Lock()
	defer t.mu.Unlock()
	out := t.rec.snapshot()
	for _, s := range t.live {
		out = append(out, s.record(now, true))
	}
	return out
}

// WriteFlight dumps the flight snapshot plus the metrics registry as
// JSON lines — the crash/postmortem export.
func (t *Tracer) WriteFlight(w io.Writer) error {
	if t == nil {
		return nil
	}
	for _, rec := range t.FlightSnapshot() {
		if err := writeJSONLine(w, rec); err != nil {
			return err
		}
	}
	for _, m := range t.reg.snapshot() {
		if err := writeJSONLine(w, m); err != nil {
			return err
		}
	}
	return nil
}

// Close flushes the export: Chrome traces are written whole, JSONL
// traces get their metric records appended. The tracer remains usable
// for flight snapshots afterwards. Returns the first export error.
func (t *Tracer) Close() error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.w == nil {
		return nil
	}
	var err error
	if t.format == FormatChrome {
		err = writeChrome(t.w, t.chrome, t.reg.snapshot())
	} else {
		for _, m := range t.reg.snapshot() {
			if werr := writeJSONLine(t.w, m); werr != nil && err == nil {
				err = werr
			}
		}
	}
	if t.werr != nil {
		return t.werr
	}
	return err
}
