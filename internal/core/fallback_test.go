package core

import (
	"context"
	"runtime"
	"strings"
	"testing"
	"time"

	"jash/internal/cost"
	"jash/internal/exec/faultinject"
	"jash/internal/vfs"
)

const fig1Script = "cat /big | tr A-Z a-z | tr -cs A-Za-z '\\n' | sort\n"

// interpreterOracle runs the script in bash mode on a fresh identical FS
// and returns its output and status — the fallback's ground truth.
func interpreterOracle(t *testing.T, script string, lines int) (string, int) {
	t.Helper()
	fs := vfs.New()
	wordsFile(fs, "/big", lines)
	s, out, _ := newShell(fs, cost.IOOptEC2(), ModeBash)
	st, err := s.Run(script)
	if err != nil {
		t.Fatalf("oracle: %v", err)
	}
	return out.String(), st
}

// TestFallbackByteIdentical injects faults at several nodes and positions
// of the optimized fig1 plan; in every case the session must transparently
// re-run the pipeline through the interpreter and produce byte-identical
// output, counting one fallback in Stats.
func TestFallbackByteIdentical(t *testing.T) {
	want, wantSt := interpreterOracle(t, fig1Script, 2000)
	rules := []faultinject.Rule{
		{Node: "src:", Op: faultinject.OpRead, Nth: 1},
		{Node: "tr", Op: faultinject.OpRead, Nth: 3},
		{Node: "tr", Op: faultinject.OpWrite, Nth: 1},
		{Node: "sort", Op: faultinject.OpRead, Nth: 2, Mode: faultinject.ModePanic},
		{Node: "sort", Op: faultinject.OpWrite, Nth: 1},
	}
	for i, rule := range rules {
		fs := vfs.New()
		wordsFile(fs, "/big", 2000)
		s, out, errb := newShell(fs, cost.IOOptEC2(), ModeJash)
		s.Faults = faultinject.NewSet(rule)
		before := runtime.NumGoroutine()
		st, err := s.Run(fig1Script)
		if err != nil {
			t.Fatalf("rule %d: %v", i, err)
		}
		if s.Faults.Fired() == 0 {
			t.Fatalf("rule %d never fired", i)
		}
		if s.Stats.Fallbacks != 1 {
			t.Errorf("rule %d: fallbacks=%d", i, s.Stats.Fallbacks)
		}
		if st != wantSt {
			t.Errorf("rule %d: status %d, interpreter %d (stderr %q)", i, st, wantSt, errb.String())
		}
		if out.String() != want {
			t.Errorf("rule %d: fallback output differs (%d vs %d bytes)", i, out.Len(), len(want))
		}
		// The failed plan plus the interpreter re-run must leak nothing.
		deadline := time.Now().Add(2 * time.Second)
		for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
			time.Sleep(10 * time.Millisecond)
		}
		if n := runtime.NumGoroutine(); n > before {
			t.Errorf("rule %d: goroutine leak (%d -> %d)", i, before, n)
		}
	}
}

// TestFallbackFileSink: the fallback must also cover file-bound sinks,
// re-running the redirection so the destination holds the interpreter's
// bytes.
func TestFallbackFileSink(t *testing.T) {
	script := "cat /big | tr A-Z a-z | sort >/out\n"
	oracleFS := vfs.New()
	wordsFile(oracleFS, "/big", 500)
	o, _, _ := newShell(oracleFS, cost.IOOptEC2(), ModeBash)
	if _, err := o.Run(script); err != nil {
		t.Fatal(err)
	}
	want, _ := oracleFS.ReadFile("/out")

	fs := vfs.New()
	wordsFile(fs, "/big", 500)
	s, _, _ := newShell(fs, cost.IOOptEC2(), ModeJash)
	s.Faults = faultinject.NewSet(faultinject.Rule{
		Node: "sort", Op: faultinject.OpRead, Nth: 1,
	})
	st, err := s.Run(script)
	if err != nil || st != 0 {
		t.Fatalf("st=%d err=%v", st, err)
	}
	if s.Stats.Fallbacks != 1 {
		t.Errorf("fallbacks=%d", s.Stats.Fallbacks)
	}
	got, rerr := fs.ReadFile("/out")
	if rerr != nil || string(got) != string(want) {
		t.Errorf("file sink: %v, %d vs %d bytes", rerr, len(got), len(want))
	}
}

// TestFallbackAppendSinkPanic: a panic on the sink's read after bytes
// already flowed must still commit the journaled line-aligned prefix to
// the file before the journaled fallback replays against it — the
// counted offset and the destination have to agree, or the replay skips
// bytes that were never written. Found by the chaos soak (seed 7130): a
// `>>` append inside a loop silently lost one iteration's output while
// the run reported status 0.
func TestFallbackAppendSinkPanic(t *testing.T) {
	script := "cat /big | tr A-Z a-z >>/out\ncat /big | tr A-Z a-z >>/out\n"
	oracleFS := vfs.New()
	wordsFile(oracleFS, "/big", 500)
	o, _, _ := newShell(oracleFS, cost.IOOptEC2(), ModeBash)
	if _, err := o.Run(script); err != nil {
		t.Fatal(err)
	}
	want, _ := oracleFS.ReadFile("/out")

	// Panic on the sink's second read: the first read's bytes are in the
	// journal counter, and the unwinding attempt must commit them.
	fs := vfs.New()
	wordsFile(fs, "/big", 500)
	s, _, errb := newShell(fs, cost.IOOptEC2(), ModeJash)
	s.Faults = faultinject.NewSet(faultinject.Rule{
		Node: "sink:/out", Op: faultinject.OpRead, Nth: 2, Mode: faultinject.ModePanic,
	})
	st, err := s.Run(script)
	if err != nil || st != 0 {
		t.Fatalf("st=%d err=%v stderr=%q", st, err, errb.String())
	}
	if s.Faults.Fired() == 0 {
		t.Fatal("fault never fired")
	}
	if s.Stats.Fallbacks != 1 {
		t.Errorf("fallbacks=%d", s.Stats.Fallbacks)
	}
	got, rerr := fs.ReadFile("/out")
	if rerr != nil || string(got) != string(want) {
		t.Errorf("append sink after panic: %v, %d vs %d bytes", rerr, len(got), len(want))
	}
}

// TestFallbackRecordsDecision: the rewritten decision must say what
// happened so Stats and -trace tell the truth.
func TestFallbackRecordsDecision(t *testing.T) {
	fs := vfs.New()
	wordsFile(fs, "/big", 500)
	s, _, _ := newShell(fs, cost.IOOptEC2(), ModeJash)
	s.Faults = faultinject.NewSet(faultinject.Rule{
		Node: "tr", Op: faultinject.OpRead, Nth: 1,
	})
	if _, err := s.Run(fig1Script); err != nil {
		t.Fatal(err)
	}
	d, ok := s.LastDecision()
	if !ok || d.Strategy != "fallback-interpret" {
		t.Errorf("decision = %+v", d)
	}
	if !strings.Contains(d.Reason, "fault injected") {
		t.Errorf("reason lost the cause: %q", d.Reason)
	}
}

// TestTimeoutDoesNotFallBack: an external deadline must surface as status
// 124, never silently re-run through the (unbounded) interpreter.
func TestTimeoutDoesNotFallBack(t *testing.T) {
	fs := vfs.New()
	wordsFile(fs, "/big", 2000)
	s, _, errb := newShell(fs, cost.IOOptEC2(), ModeJash)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s.Ctx = ctx
	st, _ := s.Run(fig1Script)
	if st != 124 {
		t.Errorf("st=%d stderr=%q", st, errb.String())
	}
	if s.Stats.Fallbacks != 0 {
		t.Errorf("cancelled run fell back: %d", s.Stats.Fallbacks)
	}
}

// TestTimeoutBoundsInterpretedPipeline: the deadline must also stop
// pipelines the JIT never optimized — interpreted coreutils poll
// Interp.Ctx — so an infinite producer can't outlive -timeout.
func TestTimeoutBoundsInterpretedPipeline(t *testing.T) {
	s, _, _ := newShell(vfs.New(), cost.IOOptEC2(), ModeBash)
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	s.Ctx = ctx
	done := make(chan int, 1)
	go func() {
		st, _ := s.Run("yes spam | sort >/dev/null\n")
		done <- st
	}()
	select {
	case st := <-done:
		if st != 124 {
			t.Errorf("st=%d, want 124", st)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("deadline did not stop the interpreted pipeline")
	}
}

// TestMidStreamJournaledStdout: a fault that strikes after the sink has
// written to the session stdout leaves partial output there, so recovery
// takes the journaled mid-stream fallback: the interpreter re-runs the
// region skipping the committed line-aligned prefix, and the session output
// is byte-identical — no duplicated and no missing lines.
func TestMidStreamJournaledStdout(t *testing.T) {
	// A streaming pipeline: tr emits as it reads (64 KiB batches), so the
	// sink sees bytes long before the input is drained. The fault fires
	// at the 8th write (~448 KiB already emitted) — far past the 64 KiB
	// pipe capacity, so by then the sink has provably consumed output.
	script := "cat /big | tr A-Z a-z\n"
	midOutput := faultinject.Rule{Node: "tr", Op: faultinject.OpWrite, Nth: 8}
	want, wantSt := interpreterOracle(t, script, 80000)
	fs := vfs.New()
	wordsFile(fs, "/big", 80000)
	s, out, errb := newShell(fs, cost.IOOptEC2(), ModeJash)
	s.Faults = faultinject.NewSet(midOutput)
	st, err := s.Run(script)
	if err != nil {
		t.Fatal(err)
	}
	if s.Faults.Fired() == 0 {
		t.Skip("fault did not fire (plan shape changed)")
	}
	if s.Stats.Fallbacks != 1 {
		t.Errorf("fallbacks=%d, want 1 (journaled)", s.Stats.Fallbacks)
	}
	if st != wantSt {
		t.Errorf("st=%d (want %d) stderr=%q", st, wantSt, errb.String())
	}
	if out.String() != want {
		t.Errorf("journaled fallback output differs: got %d bytes, want %d", out.Len(), len(want))
	}
	if dec, ok := s.LastDecision(); !ok || dec.Strategy != "fallback-interpret" ||
		!strings.Contains(dec.Reason, "mid-stream") {
		t.Errorf("decision=%+v", dec)
	}
}
