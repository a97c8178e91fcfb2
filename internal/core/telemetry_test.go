package core

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"sync"
	"testing"
	"time"

	"jash/internal/cost"
	"jash/internal/exec/faultinject"
	"jash/internal/syntax"
	"jash/internal/trace"
	"jash/internal/vfs"
)

// tracedShell builds a Jash shell with a JSONL tracer attached and /big
// populated; the returned buffer receives the trace stream.
func tracedShell(t *testing.T, lines int) (*Shell, *bytes.Buffer, *bytes.Buffer) {
	t.Helper()
	fs := vfs.New()
	wordsFile(fs, "/big", lines)
	s, out, _ := newShell(fs, cost.IOOptEC2(), ModeJash)
	var buf bytes.Buffer
	s.EnableTracing(trace.New(trace.Options{Writer: &buf}))
	return s, out, &buf
}

// readTrace closes the tracer (flushing metric records) and parses the
// stream back — the same well-formedness gate CI applies via jashtrace.
func readTrace(t *testing.T, s *Shell, buf *bytes.Buffer) *trace.Data {
	t.Helper()
	if err := s.Tracer.Close(); err != nil {
		t.Fatalf("trace close: %v", err)
	}
	d, err := trace.Read(buf)
	if err != nil {
		t.Fatalf("trace unreadable: %v", err)
	}
	return d
}

func findSpan(d *trace.Data, name string) (trace.SpanRecord, bool) {
	for _, sp := range d.Spans {
		if sp.Name == name {
			return sp, true
		}
	}
	return trace.SpanRecord{}, false
}

func findEvent(d *trace.Data, name string) (trace.EventRecord, bool) {
	for _, sp := range d.Spans {
		for _, ev := range sp.Events {
			if ev.Name == name {
				return ev, true
			}
		}
	}
	return trace.EventRecord{}, false
}

func metricValue(d *trace.Data, name string) float64 {
	for _, m := range d.Metrics {
		if m.Name == name {
			return m.Value
		}
	}
	return 0
}

// TestTraceJournaledFallback: a fault striking after the sink committed
// output takes the journaled mid-stream fallback; the trace must say so —
// outcome attribute, a fallback event carrying the committed byte count,
// and the fallbacks counter.
func TestTraceJournaledFallback(t *testing.T) {
	s, _, buf := tracedShell(t, 80000)
	s.Faults = faultinject.NewSet(faultinject.Rule{
		Node: "tr", Op: faultinject.OpWrite, Nth: 8,
	})
	if _, err := s.Run("cat /big | tr A-Z a-z\n"); err != nil {
		t.Fatal(err)
	}
	if s.Faults.Fired() == 0 {
		t.Skip("fault did not fire (plan shape changed)")
	}
	d := readTrace(t, s, buf)
	sp, ok := findSpan(d, "pipeline")
	if !ok || sp.Attrs["outcome"] != "fallback-interpret" {
		t.Fatalf("pipeline span outcome = %v, want fallback-interpret", sp.Attrs["outcome"])
	}
	ev, ok := findEvent(d, "fallback")
	if !ok {
		t.Fatal("no fallback event in trace")
	}
	if ev.Attrs["kind"] != "journaled" {
		t.Errorf("fallback kind = %v, want journaled", ev.Attrs["kind"])
	}
	if n, _ := ev.Attrs["committed_bytes"].(float64); n <= 0 {
		t.Errorf("committed_bytes = %v, want > 0", ev.Attrs["committed_bytes"])
	}
	if v := metricValue(d, trace.MetricFallbacks); v != 1 {
		t.Errorf("fallbacks metric = %v, want 1", v)
	}
}

// TestTraceRetryEvent: a healed supervised retry must leave a retry event
// on the node's span and count in the retries metric.
func TestTraceRetryEvent(t *testing.T) {
	s, _, buf := tracedShell(t, 2000)
	s.Retries = 1
	// Nth 1: the fault strikes before the node consumed any input, the
	// only position the effect gate deems safe to replay.
	s.Faults = faultinject.NewSet(faultinject.Rule{
		Node: "tr", Op: faultinject.OpRead, Nth: 1,
	})
	if _, err := s.Run(fig1Script); err != nil {
		t.Fatal(err)
	}
	if s.Faults.Fired() == 0 {
		t.Skip("fault did not fire (plan shape changed)")
	}
	if s.Stats.Retries == 0 {
		t.Fatalf("retry did not heal (fallbacks=%d)", s.Stats.Fallbacks)
	}
	d := readTrace(t, s, buf)
	ev, ok := findEvent(d, "retry")
	if !ok {
		t.Fatal("no retry event in trace")
	}
	if ev.Attrs["cause"] == nil {
		t.Error("retry event lost its cause")
	}
	if v := metricValue(d, trace.MetricRetries); v < 1 {
		t.Errorf("retries metric = %v, want >= 1", v)
	}
}

// TestTraceCancelOutcome: external cancellation striking mid-plan must
// mark the pipeline span cancelled, never fallback. A stalled fault
// parks the plan until the session deadline tears it down.
func TestTraceCancelOutcome(t *testing.T) {
	s, _, buf := tracedShell(t, 2000)
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Millisecond)
	defer cancel()
	s.Ctx = ctx
	s.Faults = faultinject.NewSet(faultinject.Rule{
		Node: "tr", Op: faultinject.OpRead, Nth: 2, Mode: faultinject.ModeStall,
	})
	if st, _ := s.Run(fig1Script); st != 124 {
		t.Fatalf("status = %d, want 124", st)
	}
	d := readTrace(t, s, buf)
	sp, ok := findSpan(d, "pipeline")
	if !ok || sp.Attrs["outcome"] != "cancelled" {
		t.Fatalf("pipeline span outcome = %v, want cancelled", sp.Attrs["outcome"])
	}
	if _, ok := findEvent(d, "fallback"); ok {
		t.Error("cancelled run recorded a fallback event")
	}
}

// TestTraceBreakerTrip drives a region to the breaker threshold and
// checks the trace shows the whole arc: fallback events for the failing
// runs, a breaker-open event when the ledger fills, and a quarantine
// event (with the failure count) on the refused run.
func TestTraceBreakerTrip(t *testing.T) {
	s, out, buf := tracedShell(t, 2000)
	for i := 0; i < cost.BreakerThreshold; i++ {
		s.Faults = faultinject.NewSet(faultinject.Rule{
			Node: "tr", Op: faultinject.OpRead, Nth: 2,
		})
		out.Reset()
		if _, err := s.Run(fig1Script); err != nil {
			t.Fatalf("failure %d: %v", i+1, err)
		}
	}
	s.Faults = nil
	out.Reset()
	if _, err := s.Run(fig1Script); err != nil {
		t.Fatal(err)
	}
	if s.Stats.Quarantined != 1 {
		t.Fatalf("Quarantined=%d, want 1", s.Stats.Quarantined)
	}
	d := readTrace(t, s, buf)
	if _, ok := findEvent(d, "breaker-open"); !ok {
		t.Error("no breaker-open event in trace")
	}
	ev, ok := findEvent(d, "quarantine")
	if !ok {
		t.Fatal("no quarantine event in trace")
	}
	if n, _ := ev.Attrs["failures"].(float64); int(n) != cost.BreakerThreshold {
		t.Errorf("quarantine failures = %v, want %d", ev.Attrs["failures"], cost.BreakerThreshold)
	}
	if v := metricValue(d, trace.MetricQuarantined); v != 1 {
		t.Errorf("quarantined metric = %v, want 1", v)
	}
}

// TestTraceWellFormedUnderFaults sweeps injected failures across plan
// positions; whatever the recovery path, the trace stream must stay
// parseable and every span must close (no unfinished spans leak into the
// flight snapshot after Run returns).
func TestTraceWellFormedUnderFaults(t *testing.T) {
	rules := []faultinject.Rule{
		{Node: "src:", Op: faultinject.OpRead, Nth: 1},
		{Node: "tr", Op: faultinject.OpWrite, Nth: 1},
		{Node: "sort", Op: faultinject.OpRead, Nth: 2, Mode: faultinject.ModePanic},
	}
	for i, rule := range rules {
		s, _, buf := tracedShell(t, 2000)
		s.Faults = faultinject.NewSet(rule)
		if _, err := s.Run(fig1Script); err != nil {
			t.Fatalf("rule %d: %v", i, err)
		}
		for _, sp := range s.Tracer.FlightSnapshot() {
			if sp.Unfinished {
				t.Errorf("rule %d: span %q leaked unfinished", i, sp.Name)
			}
		}
		d := readTrace(t, s, buf)
		if len(d.Spans) == 0 {
			t.Errorf("rule %d: empty trace", i)
		}
	}
}

// TestTraceListParallelRace is the -race regression for telemetry under
// concurrency: statements of a parallel list region run on interpreter
// clones that share the Shell (and its tracer), while a reader goroutine
// concurrently dumps flight snapshots — the cross-goroutine paths the
// race audit covers (span events under the tracer lock, Stats under the
// session lock, atomic metric instruments).
func TestTraceListParallelRace(t *testing.T) {
	fs := vfs.New()
	for i := 0; i < 4; i++ {
		wordsFile(fs, fmt.Sprintf("/in%d", i), 400)
	}
	s, _, _ := newShell(fs, cost.IOOptEC2(), ModeJash)
	var buf bytes.Buffer
	var bufMu sync.Mutex
	s.EnableTracing(trace.New(trace.Options{Writer: lockedWriter{&bufMu, &buf}}))
	script := "sort /in0 >/o0; sort /in1 >/o1; sort /in2 >/o2; sort /in3 >/o3\n"

	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			s.Tracer.WriteFlight(io.Discard)
			s.Tracer.Metrics().Counter("race_probe").Add(1)
		}
	}()
	for i := 0; i < 10; i++ {
		if st, err := s.Run(script); err != nil || st != 0 {
			t.Fatalf("run %d: st=%d err=%v", i, st, err)
		}
	}
	<-done
	if s.Stats.ListParallel == 0 {
		t.Fatal("list region never went parallel; race hammer did not cover the target path")
	}
	// Runs and the snapshot goroutine are done; Close writes through the
	// locked writer itself, so it must not run under bufMu.
	if err := s.Tracer.Close(); err != nil {
		t.Fatal(err)
	}
	bufMu.Lock()
	defer bufMu.Unlock()
	if _, err := trace.Read(&buf); err != nil {
		t.Fatalf("trace unreadable after concurrent runs: %v", err)
	}
}

// lockedWriter serializes trace output with the test's final read; the
// tracer itself already serializes writes, this guards the test's buffer.
type lockedWriter struct {
	mu *sync.Mutex
	w  io.Writer
}

func (l lockedWriter) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.w.Write(p)
}

// TestEveryOutcomeTellsOneStory drives each outcome an interposition can
// settle as, once, in a traced session of its own, and checks that the four
// views of the record agree: the listed Decision's Strategy, the pipeline
// span's outcome, the Stats counters and the registry counters.
func TestEveryOutcomeTellsOneStory(t *testing.T) {
	fault := func(r faultinject.Rule) func(*testing.T, *Shell) {
		return func(_ *testing.T, s *Shell) { s.Faults = faultinject.NewSet(r) }
	}
	for _, tc := range []struct {
		name   string
		bash   bool // ModeBash, not ModeJash
		fs     func() *vfs.FS
		lines  int // /big's size when fs is nil
		arm    func(*testing.T, *Shell)
		script string
		// strategy is the last listed Decision's ("" = nothing listed);
		// outcome the only pipeline span's ("" = no pipeline span).
		strategy, outcome string
		want              Stats
	}{
		{name: "bash-mode charge", bash: true, script: fig1Script,
			strategy: "interpret", want: Stats{Interpreted: 1}},
		{name: "ineligible", script: "echo hi\n",
			want: Stats{Interpreted: 1}},
		{name: "hazard-reject", fs: hazardFS, script: hazardScript,
			strategy: "hazard-reject", outcome: "hazard-reject",
			want: Stats{Interpreted: 1, HazardRejects: 1}},
		{name: "quarantine", script: fig1Script,
			arm: func(t *testing.T, s *Shell) {
				// The ledger is full and the clock has not reached the decay.
				s.now = func() time.Time { return time.Unix(1000, 0) }
				for i := 0; i < cost.BreakerThreshold; i++ {
					s.breakerFailure(fig1Script[:len(fig1Script)-1])
				}
			},
			strategy: "quarantine", outcome: "quarantine",
			want: Stats{Interpreted: 1, Quarantined: 1}},
		{name: "planner declined",
			// Neither planner can fail on a graph FromPipeline built (only a
			// cycle makes the estimator return an error), so this row hands
			// settle the record observe would.
			arm: func(t *testing.T, s *Shell) {
				root := s.Tracer.Start(nil, "pipeline")
				s.settle(root, Decision{Pipeline: "x | y", Strategy: "interpret", Reason: "graph has a cycle"})
				root.End()
			},
			strategy: "interpret", outcome: "interpret", want: Stats{Interpreted: 1}},
		{name: "executed sequential", lines: 50, script: fig1Script,
			strategy: "sequential-df", outcome: "sequential-df", want: Stats{Optimized: 1}},
		{name: "executed parallel", script: "cat /big | tr A-Z a-z | grep -c apple\n",
			fs: func() *vfs.FS { // 20 MB: enough for the planner to go wide
				fs := vfs.New()
				fs.WriteFile("/big", bytes.Repeat([]byte("Apple banana CHERRY\n"), 1<<20))
				return fs
			},
			strategy: "parallel-df", outcome: "parallel-df", want: Stats{Optimized: 1}},
		{name: "cancelled", script: fig1Script,
			arm: func(t *testing.T, s *Shell) {
				ctx, cancel := context.WithTimeout(context.Background(), 150*time.Millisecond)
				t.Cleanup(cancel)
				s.Ctx = ctx
				s.Faults = faultinject.NewSet(faultinject.Rule{
					Node: "tr", Op: faultinject.OpRead, Nth: 2, Mode: faultinject.ModeStall,
				})
			},
			strategy: "cancelled", outcome: "cancelled", want: Stats{Optimized: 1}},
		{name: "pristine fallback", script: fig1Script,
			arm:      fault(faultinject.Rule{Node: "src:", Op: faultinject.OpRead, Nth: 1}),
			strategy: "fallback-interpret", outcome: "fallback-interpret",
			want: Stats{Optimized: 1, Fallbacks: 1}},
		{name: "journaled fallback", lines: 80000, script: "cat /big | tr A-Z a-z\n",
			arm:      fault(faultinject.Rule{Node: "tr", Op: faultinject.OpWrite, Nth: 8}),
			strategy: "fallback-interpret", outcome: "fallback-interpret",
			want: Stats{Optimized: 1, Fallbacks: 1}},
		// The statements of the list rows are builtins, so the list's own
		// record is the only one listed.
		{name: "sequential-list", script: "echo a >/o; echo b >>/o\n",
			strategy: "sequential-list", want: Stats{Interpreted: 2}},
		{name: "parallel-list", script: "echo a >/o0; echo b >/o1; echo c >/o2\n",
			strategy: "parallel-list", want: Stats{Interpreted: 3, ListParallel: 3}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fs := vfs.New()
			if tc.fs != nil {
				fs = tc.fs()
			} else if tc.lines > 0 {
				wordsFile(fs, "/big", tc.lines)
			} else {
				wordsFile(fs, "/big", 2000)
			}
			mode := ModeJash
			if tc.bash {
				mode = ModeBash
			}
			s, _, _ := newShell(fs, cost.IOOptEC2(), mode)
			var buf bytes.Buffer
			s.EnableTracing(trace.New(trace.Options{Writer: &buf}))
			if tc.arm != nil {
				tc.arm(t, s)
			}
			s.Run(tc.script)
			if s.Faults != nil && s.Faults.Fired() == 0 {
				t.Skip("fault did not fire (plan shape changed)")
			}
			d := readTrace(t, s, &buf)

			last, _ := s.LastDecision()
			if last.Strategy != tc.strategy {
				t.Errorf("Decision.Strategy = %q, want %q (%+v)", last.Strategy, tc.strategy, s.Stats.Decisions)
			}
			sp, traced := findSpan(d, "pipeline")
			if got, _ := sp.Attrs["outcome"].(string); got != tc.outcome || traced != (tc.outcome != "") {
				t.Errorf("pipeline span outcome = %q (span present: %v), want %q", got, traced, tc.outcome)
			}
			got := s.Stats
			for _, c := range []struct {
				metric    string
				got, want int
			}{
				{trace.MetricPlansOptimized, got.Optimized, tc.want.Optimized},
				{trace.MetricPlansInterp, got.Interpreted, tc.want.Interpreted},
				{trace.MetricFallbacks, got.Fallbacks, tc.want.Fallbacks},
				{trace.MetricHazardRejects, got.HazardRejects, tc.want.HazardRejects},
				{trace.MetricQuarantined, got.Quarantined, tc.want.Quarantined},
				{trace.MetricListParallel, got.ListParallel, tc.want.ListParallel},
			} {
				if c.got != c.want {
					t.Errorf("Stats %s = %d, want %d", c.metric, c.got, c.want)
				}
				if v := metricValue(d, c.metric); v != float64(c.got) {
					t.Errorf("registry %s = %v, Stats says %d", c.metric, v, c.got)
				}
			}
			if v := metricValue(d, trace.MetricRetries); v != float64(got.Retries) {
				t.Errorf("registry retries = %v, Stats says %d", v, got.Retries)
			}
			if v := metricValue(d, trace.MetricConcretized); v != float64(got.Concretized) {
				t.Errorf("registry concretized_words = %v, Stats says %d", v, got.Concretized)
			}
		})
	}
}

// TestSettlingADeclinedOfferAllocatesNothing: almost every offer of a
// script is one analyze declines, so with no tracer its record must cost a
// counter and no memory.
func TestSettlingADeclinedOfferAllocatesNothing(t *testing.T) {
	s, _, _ := newShell(vfs.New(), cost.Laptop(), ModeJash)
	if n := testing.AllocsPerRun(200, func() { s.settle(nil, Decision{}) }); n != 0 {
		t.Fatalf("settling a declined offer allocates: %v allocs/op", n)
	}
	// Nor may the offer itself, when the region former rules it out by
	// shape: no printed statement, no expander.
	for _, src := range []string{"i=$((i+1))", `[ "$i" -lt 100 ]`, `report "$f" $n`} {
		script, err := syntax.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		if n := testing.AllocsPerRun(200, func() { s.observe(s.Interp, script.Stmts[0]) }); n != 0 {
			t.Errorf("offering %q allocates: %v allocs/op", src, n)
		}
	}
	if s.Stats.Interpreted == 0 || len(s.Stats.Decisions) != 0 {
		t.Fatalf("declined offers: interpreted=%d listed=%d, want counted and never listed",
			s.Stats.Interpreted, len(s.Stats.Decisions))
	}
}

// TestTraceListPlanProofTrail: the list planner returns its proof trail and
// core stamps it on the list-plan span — one pinned event per statement the
// effect system could not prove commutative, then the verdict.
func TestTraceListPlanProofTrail(t *testing.T) {
	s, _, buf := tracedShell(t, 10)
	if _, err := s.Run("echo a >/o0; cd /; echo b >/o1\n"); err != nil {
		t.Fatal(err)
	}
	d := readTrace(t, s, buf)
	sp, ok := findSpan(d, "list-plan")
	if !ok || len(sp.Events) != 2 {
		t.Fatalf("list-plan span events = %+v, want one pinned and one verdict", sp.Events)
	}
	pinned, verdict := sp.Events[0], sp.Events[1]
	if pinned.Name != "pinned" || pinned.Attrs["stmt"] != float64(2) || pinned.Attrs["blocker"] == "" {
		t.Errorf("pinned event = %+v, want statement 2 with its blocker", pinned)
	}
	if verdict.Name != "verdict" || verdict.Attrs["parallel"] != false || verdict.Attrs["reason"] != sp.Attrs["reason"] {
		t.Errorf("verdict event = %+v, want the span's own refusal (%v)", verdict, sp.Attrs)
	}
}
