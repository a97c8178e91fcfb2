package exec

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"jash/internal/dfg"
	"jash/internal/exec/faultinject"
	"jash/internal/rewrite"
	"jash/internal/vfs"
	"jash/internal/workload"
)

// runSupervised is runWithFaults plus the stall watchdog. The 30s guard
// catches teardown deadlocks.
func runSupervised(t *testing.T, g *dfg.Graph, fs *vfs.FS, set *faultinject.Set,
	stall time.Duration) (string, int, error, *RunMetrics) {
	t.Helper()
	metrics := &RunMetrics{}
	var out, errs bytes.Buffer
	type result struct {
		st  int
		err error
	}
	done := make(chan result, 1)
	go func() {
		st, err := Run(g, &Env{
			FS: fs, Dir: "/", Stdin: strings.NewReader(""),
			Stdout: &out, Stderr: &errs, Metrics: metrics, Faults: set,
			StallTimeout: stall,
		})
		done <- result{st, err}
	}()
	select {
	case r := <-done:
		return out.String(), r.st, r.err, metrics
	case <-time.After(30 * time.Second):
		buf := make([]byte, 1<<20)
		n := runtime.Stack(buf, true)
		t.Fatalf("plan deadlocked under injected fault\n%s", buf[:n])
		return "", 0, nil, nil
	}
}

// TestChaosDifferential is the acceptance sweep: seeded random fault
// injection (errors, panics, stalls) over the fig1 plan at widths 1 and
// 4. A fault that fired always fails the plan — nothing is retried in
// place. Every run must either succeed with output byte-identical to the
// fault-free reference, or fail having committed exactly a line-aligned
// prefix of it (the journal invariant) — and never leak a goroutine.
func TestChaosDifferential(t *testing.T) {
	refG, refFS := fig1Graph(t)
	want, _ := runGraph(t, refG, refFS, "")

	configs := []faultinject.ChaosConfig{
		{PFail: 0.004},
		{PPanic: 0.002},
		{PStall: 0.002},
		{PFail: 0.002, PPanic: 0.001, PStall: 0.001},
	}
	for _, width := range []int{1, 4} {
		for ci, cfg := range configs {
			for seed := int64(1); seed <= 3; seed++ {
				cfg := cfg
				cfg.Seed = seed
				name := fmt.Sprintf("w%d-cfg%d-seed%d", width, ci, seed)
				t.Run(name, func(t *testing.T) {
					g, fs := fig1Graph(t)
					if width > 1 {
						rewrite.Parallelize(g, rewrite.Options{Width: width})
					}
					before := runtime.NumGoroutine()
					set := faultinject.NewChaos(cfg)
					out, st, err, m := runSupervised(t, g, fs, set, 400*time.Millisecond)
					checkNoLeaks(t, before)
					if err == nil {
						if set.Fired() > 0 {
							t.Fatalf("%d faults fired but the plan succeeded", set.Fired())
						}
						if st != 0 || out != want {
							t.Fatalf("fault-free run diverged: st=%d len(out)=%d len(want)=%d",
								st, len(out), len(want))
						}
						return
					}
					if st == 0 {
						t.Fatalf("failed plan reported status 0: %v", err)
					}
					// Failed run: the journal guarantees the committed
					// output is a line-aligned prefix of the reference.
					if int64(len(out)) != m.SinkBytes {
						t.Fatalf("out=%d bytes but SinkBytes=%d", len(out), m.SinkBytes)
					}
					if !strings.HasPrefix(want, out) {
						t.Fatalf("committed output is not a prefix of the reference (%d bytes)", len(out))
					}
					if len(out) > 0 && out[len(out)-1] != '\n' {
						t.Fatalf("committed output not line-aligned: ends %q", out[len(out)-1])
					}
				})
			}
		}
	}
}

// TestStallWatchdog arms a stall (an operation that hangs forever) and
// checks the watchdog tears the plan down with ErrStalled instead of
// hanging the shell.
func TestStallWatchdog(t *testing.T) {
	g, fs := fig1Graph(t)
	set := faultinject.NewSet(faultinject.Rule{
		Node: "sort", Op: faultinject.OpRead, Nth: 2, Mode: faultinject.ModeStall,
	})
	before := runtime.NumGoroutine()
	start := time.Now()
	_, _, err, _ := runSupervised(t, g, fs, set, 200*time.Millisecond)
	checkNoLeaks(t, before)
	if !errors.Is(err, ErrStalled) {
		t.Fatalf("err=%v, want ErrStalled", err)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("watchdog took %v to fire", elapsed)
	}
}

// TestStallWatchdogQuietOnHealthyPlan: a generous watchdog must never
// fire on a plan that is making progress.
func TestStallWatchdogQuietOnHealthyPlan(t *testing.T) {
	refG, refFS := fig1Graph(t)
	want, _ := runGraph(t, refG, refFS, "")
	g, fs := fig1Graph(t)
	out, st, err, _ := runSupervised(t, g, fs, nil, 5*time.Second)
	if err != nil || st != 0 || out != want {
		t.Fatalf("healthy plan disturbed: st=%d err=%v identical=%v", st, err, out == want)
	}
}

// TestJournalLineAlignedCommit fails a plan mid-stream while it writes a
// file sink and checks the journal invariant: the sink holds exactly
// SinkBytes bytes, they end on a line boundary, and they are a prefix of
// the fault-free output.
func TestJournalLineAlignedCommit(t *testing.T) {
	mk := func() (*dfg.Graph, *vfs.FS) {
		fs := vfs.New()
		fs.WriteFile("/in", workload.Words(7, 1<<20))
		g := pipelineGraph(t, dfg.Binding{StdinFile: "/in", StdoutFile: "/out"},
			[]string{"cat"},
			[]string{"tr", "A-Z", "a-z"},
		)
		return g, fs
	}
	refG, refFS := mk()
	if _, st := runGraph(t, refG, refFS, ""); st != 0 {
		t.Fatalf("reference st=%d", st)
	}
	want, err := refFS.ReadFile("/out")
	if err != nil {
		t.Fatal(err)
	}

	g, fs := mk()
	set := faultinject.NewSet(faultinject.Rule{Node: "tr", Op: faultinject.OpWrite, Nth: 8})
	_, _, runErr, m := runSupervised(t, g, fs, set, 0)
	if runErr == nil {
		t.Fatal("plan succeeded; want mid-stream failure")
	}
	got, err := fs.ReadFile("/out")
	if err != nil {
		t.Fatal(err)
	}
	if m.SinkBytes == 0 {
		t.Fatal("SinkBytes=0; fault was meant to land mid-stream")
	}
	if int64(len(got)) != m.SinkBytes {
		t.Fatalf("sink holds %d bytes but SinkBytes=%d", len(got), m.SinkBytes)
	}
	if got[len(got)-1] != '\n' {
		t.Fatalf("committed sink not line-aligned: ends %q", got[len(got)-1])
	}
	if !bytes.HasPrefix(want, got) {
		t.Fatal("committed sink is not a prefix of the fault-free output")
	}
}

// TestJournalWriterHoldsPartialLine unit-tests the line journal: bytes
// after the last newline stay held back until flush.
func TestJournalWriterHoldsPartialLine(t *testing.T) {
	var dst bytes.Buffer
	jw := &journalWriter{w: &dst}
	for _, chunk := range []string{"ab", "c\nde", "f\ng"} {
		n, err := jw.Write([]byte(chunk))
		if err != nil || n != len(chunk) {
			t.Fatalf("Write(%q)=%d,%v", chunk, n, err)
		}
	}
	if dst.String() != "abc\ndef\n" {
		t.Fatalf("committed %q before flush", dst.String())
	}
	if err := jw.flush(); err != nil {
		t.Fatal(err)
	}
	if dst.String() != "abc\ndef\ng" {
		t.Fatalf("after flush: %q", dst.String())
	}
}
