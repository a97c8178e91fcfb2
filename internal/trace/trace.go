// Package trace is Jash's structured tracing spine: every run of the
// shell can produce a span tree — parse → expand → analysis preflight →
// JIT decision → per-node execution — plus point events for the
// runtime's self-healing machinery (stalls, fallbacks, circuit breaker
// trips, list-parallel regions). The spans are the whole record: a
// count or a latency of the run is read off them, not kept beside them.
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
//  2. One artifact. A run's record is one JSON-lines stream: each span is
//     written as it ends. This package's
//     reader (Read) parses it back, and everything that renders a run —
//     cmd/jashtrace's span tree, its -check gate, its Chrome trace_event
//     conversion for Perfetto — reads that stream, never the live tracer.
package trace

import (
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// Options configure a Tracer.
type Options struct {
	// Writer, when non-nil, receives the JSON-lines trace: one span record
	// as each span ends. A nil Writer records nothing.
	Writer io.Writer
	// Clock overrides the time source (tests).
	Clock func() time.Time
}

// Tracer owns one session's trace: span identity and the JSON-lines
// writer. A nil *Tracer is the disabled tracer — every
// method is safe and free to call on it.
type Tracer struct {
	mu     sync.Mutex
	nextID atomic.Uint64
	clock  func() time.Time
	w      io.Writer
	// werr remembers the first export error; Close returns it.
	werr error
}

// New creates an enabled tracer.
func New(opts Options) *Tracer {
	clock := opts.Clock
	if clock == nil {
		clock = time.Now
	}
	return &Tracer{clock: clock, w: opts.Writer}
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
	return s
}

// Span is one timed operation. Attribute setters and events take the
// tracer lock, so they are safe from any goroutine — a watchdog can
// stamp a stall event on a run span while its nodes are still
// finishing. Attribute ordering across goroutines is the caller's
// concern; by convention each span has one logical owner and concurrent
// workers get child spans. A nil *Span accepts every call.
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

// End finishes the span and writes its record out at once. End is
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
	if t.w == nil {
		return
	}
	if err := writeJSONLine(t.w, s.record(end)); err != nil && t.werr == nil {
		t.werr = err
	}
}

// record snapshots the ended span as an export record.
func (s *Span) record(end time.Time) SpanRecord {
	rec := SpanRecord{
		Type:    "span",
		ID:      s.id,
		Parent:  s.parent,
		Name:    s.name,
		StartUS: s.start.UnixMicro(),
		DurUS:   end.Sub(s.start).Microseconds(),
		Events:  s.events,
	}
	if len(s.attrs) > 0 {
		rec.Attrs = make(map[string]any, len(s.attrs))
		for _, a := range s.attrs {
			rec.Attrs[a.Key] = a.value()
		}
	}
	return rec
}

// Close returns the first export error. Every span was written as it
// ended, so there is nothing left to flush.
func (t *Tracer) Close() error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.werr
}
