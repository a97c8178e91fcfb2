package exec

import (
	"bytes"
	"context"
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

// fig1Graph builds the paper's figure-1 pipeline (cat | tr | tr | sort)
// over /in, the plan shape the acceptance criteria call out.
func fig1Graph(t *testing.T) (*dfg.Graph, *vfs.FS) {
	t.Helper()
	fs := vfs.New()
	fs.WriteFile("/in", workload.Words(7, 1<<16))
	g := pipelineGraph(t, dfg.Binding{StdinFile: "/in"},
		[]string{"cat"},
		[]string{"tr", "A-Z", "a-z"},
		[]string{"tr", "-cs", "A-Za-z", `\n`},
		[]string{"sort"},
	)
	return g, fs
}

// checkNoLeaks fails the test if node goroutines outlive the run. The
// settle loop tolerates runtime-internal goroutines spinning down.
func checkNoLeaks(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	var after int
	for {
		after = runtime.NumGoroutine()
		if after <= before || time.Now().After(deadline) {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if after > before {
		buf := make([]byte, 1<<20)
		n := runtime.Stack(buf, true)
		t.Fatalf("goroutine leak: %d before, %d after\n%s", before, after, buf[:n])
	}
}

// runWithFaults executes the graph with the given rules armed and a
// timeout guarding against deadlock.
func runWithFaults(t *testing.T, g *dfg.Graph, fs *vfs.FS, set *faultinject.Set) (string, int, error, *RunMetrics) {
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

// TestFaultMatrix drives the executor through {source-open failure,
// mid-stream read error, mid-stream write error, node panic} × {sequential,
// width-4 parallel} fig1 plans: every combination must return an error,
// leave the sink byte-free (the fault fires before any output — sort emits
// nothing until EOF), and leak no goroutines. The panic-after-output rows
// pin the single-attempt contract: a node that crashes once bytes have
// left it (a tr with consumers downstream, a source mid-copy) fails the
// plan; it is never re-run on the same input.
func TestFaultMatrix(t *testing.T) {
	faults := []struct {
		name string
		rule faultinject.Rule
	}{
		{"source-open", faultinject.Rule{Node: "src:", Op: faultinject.OpOpen, Nth: 1}},
		{"mid-read", faultinject.Rule{Node: "tr", Op: faultinject.OpRead, Nth: 2}},
		{"mid-write", faultinject.Rule{Node: "tr", Op: faultinject.OpWrite, Nth: 2}},
		{"panic", faultinject.Rule{Node: "sort", Op: faultinject.OpRead, Nth: 1, Mode: faultinject.ModePanic}},
		{"panic-mid-read", faultinject.Rule{Node: "tr", Op: faultinject.OpRead, Nth: 2, Mode: faultinject.ModePanic}},
		{"panic-source", faultinject.Rule{Node: "src:", Op: faultinject.OpRead, Nth: 2, Mode: faultinject.ModePanic}},
	}
	widths := []int{1, 4}
	for _, f := range faults {
		for _, w := range widths {
			t.Run(fmt.Sprintf("%s/width-%d", f.name, w), func(t *testing.T) {
				g, fs := fig1Graph(t)
				if w > 1 {
					var err error
					g, err = rewrite.Parallelize(g, rewrite.Options{Width: w})
					if err != nil {
						t.Fatal(err)
					}
				}
				before := runtime.NumGoroutine()
				set := faultinject.NewSet(f.rule)
				out, _, err, metrics := runWithFaults(t, g, fs, set)
				if err == nil {
					t.Fatal("injected fault did not surface as a run error")
				}
				if set.Fired() == 0 {
					t.Fatal("fault rule never fired")
				}
				if f.rule.Mode == faultinject.ModePanic && !strings.Contains(err.Error(), "panic") {
					t.Errorf("panic not reported as such: %v", err)
				}
				if out != "" || metrics.SinkBytes != 0 {
					t.Errorf("output escaped a failed plan: %d sink bytes, out=%q",
						metrics.SinkBytes, out)
				}
				checkNoLeaks(t, before)
			})
		}
	}
}

// TestFaultEveryReadPosition sweeps the fault position through the first
// 50 reads of every node label in the width-4 fig1 plan: whatever trips,
// the run must terminate with an error and no leaked goroutines.
func TestFaultEveryReadPosition(t *testing.T) {
	for nth := int64(1); nth <= 50; nth += 7 {
		for _, label := range []string{"cat", "tr", "sort", "split", "merge"} {
			t.Run(fmt.Sprintf("%s-read-%d", label, nth), func(t *testing.T) {
				g, fs := fig1Graph(t)
				par, err := rewrite.Parallelize(g, rewrite.Options{Width: 4})
				if err != nil {
					t.Fatal(err)
				}
				before := runtime.NumGoroutine()
				set := faultinject.NewSet(faultinject.Rule{
					Node: label, Op: faultinject.OpRead, Nth: nth,
				})
				_, _, runErr, _ := runWithFaults(t, par, fs, set)
				if set.Fired() > 0 && runErr == nil {
					t.Fatal("fired fault did not surface as a run error")
				}
				checkNoLeaks(t, before)
			})
		}
	}
}

// TestContextCancelUnblocksPlan: an infinite producer blocked on a full
// pipe (yes | sort never reaches EOF) must unwind promptly when the
// context is cancelled, returning the context's error.
func TestContextCancelUnblocksPlan(t *testing.T) {
	g := dfg.New()
	src := g.AddNode(&dfg.Node{Kind: dfg.KindSource})
	yes := g.AddNode(&dfg.Node{Kind: dfg.KindCommand, Argv: []string{"yes", "spam"}})
	srt := g.AddNode(&dfg.Node{Kind: dfg.KindCommand, Argv: []string{"sort"}})
	sink := g.AddNode(&dfg.Node{Kind: dfg.KindSink})
	g.Connect(src, yes)
	g.Connect(yes, srt)
	g.Connect(srt, sink)
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	done := make(chan error, 1)
	go func() {
		_, err := RunContext(ctx, g, &Env{FS: vfs.New(), Dir: "/",
			Stdin: strings.NewReader(""), Stdout: &bytes.Buffer{}, Stderr: &bytes.Buffer{}})
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Errorf("want DeadlineExceeded, got %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("context cancellation did not unblock the plan")
	}
	checkNoLeaks(t, before)
}

// TestContextTimeoutParallel: same bound on a width-4 plan over a large
// corpus — every lane goroutine must unwind.
func TestContextTimeoutParallel(t *testing.T) {
	fs := vfs.New()
	fs.WriteFile("/in", workload.Words(3, 4<<20))
	g := pipelineGraph(t, dfg.Binding{StdinFile: "/in"},
		[]string{"tr", "A-Z", "a-z"},
		[]string{"sort"},
	)
	par, err := rewrite.Parallelize(g, rewrite.Options{Width: 4})
	if err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already expired: the plan must abort immediately
	_, runErr := RunContext(ctx, par, &Env{FS: fs, Dir: "/",
		Stdin: strings.NewReader(""), Stdout: &bytes.Buffer{}, Stderr: &bytes.Buffer{}})
	if !errors.Is(runErr, context.Canceled) {
		t.Errorf("want context.Canceled, got %v", runErr)
	}
	checkNoLeaks(t, before)
}

// TestPanicContainmentKeepsShellAlive: a panicking node must become an
// error on the calling goroutine, not a process crash, and must not
// disturb subsequent runs.
func TestPanicContainmentKeepsShellAlive(t *testing.T) {
	g, fs := fig1Graph(t)
	set := faultinject.NewSet(faultinject.Rule{
		Node: "tr", Op: faultinject.OpWrite, Nth: 1, Mode: faultinject.ModePanic,
	})
	_, _, err, _ := runWithFaults(t, g, fs, set)
	if err == nil || !strings.Contains(err.Error(), "panic") {
		t.Fatalf("want contained panic error, got %v", err)
	}
	// The executor must still work after containment.
	g2, fs2 := fig1Graph(t)
	out, st := runGraph(t, g2, fs2, "")
	if st != 0 || out == "" {
		t.Fatalf("follow-up run broken: st=%d len=%d", st, len(out))
	}
}

// TestFileSinkUntouchedOnFault: a plan writing to a file that fails
// before its first sink byte must leave the destination exactly as it
// was, so the interpreter fallback re-runs from pristine state.
func TestFileSinkUntouchedOnFault(t *testing.T) {
	fs := vfs.New()
	fs.WriteFile("/in", []byte("b\na\n"))
	fs.WriteFile("/out", []byte("precious\n"))
	g := pipelineGraph(t, dfg.Binding{StdinFile: "/in", StdoutFile: "/out"},
		[]string{"sort"},
	)
	set := faultinject.NewSet(faultinject.Rule{
		Node: "sort", Op: faultinject.OpRead, Nth: 1,
	})
	_, _, err, metrics := runWithFaults(t, g, fs, set)
	if err == nil {
		t.Fatal("fault did not surface")
	}
	if metrics.SinkBytes != 0 {
		t.Fatalf("sink bytes = %d", metrics.SinkBytes)
	}
	data, _ := fs.ReadFile("/out")
	if string(data) != "precious\n" {
		t.Errorf("destination clobbered: %q", data)
	}
}

// TestSinkBytesReported: a successful run reports the full output volume.
func TestSinkBytesReported(t *testing.T) {
	fs := vfs.New()
	fs.WriteFile("/in", []byte("b\na\n"))
	g := pipelineGraph(t, dfg.Binding{StdinFile: "/in"}, []string{"sort"})
	metrics := &RunMetrics{}
	var out bytes.Buffer
	st, err := Run(g, &Env{FS: fs, Dir: "/", Stdin: strings.NewReader(""),
		Stdout: &out, Stderr: &bytes.Buffer{}, Metrics: metrics})
	if err != nil || st != 0 {
		t.Fatalf("st=%d err=%v", st, err)
	}
	if metrics.SinkBytes != int64(out.Len()) {
		t.Errorf("SinkBytes=%d, output=%d", metrics.SinkBytes, out.Len())
	}
}

// TestCollateralStderrSuppressed: after the first failure, the cascade of
// secondary node diagnostics must not reach the caller's stderr — the
// run's returned error is the canonical diagnostic.
func TestCollateralStderrSuppressed(t *testing.T) {
	g, fs := fig1Graph(t)
	par, err := rewrite.Parallelize(g, rewrite.Options{Width: 4})
	if err != nil {
		t.Fatal(err)
	}
	var out, errs bytes.Buffer
	set := faultinject.NewSet(faultinject.Rule{
		Node: "tr", Op: faultinject.OpRead, Nth: 1,
	})
	_, runErr := Run(par, &Env{FS: fs, Dir: "/", Stdin: strings.NewReader(""),
		Stdout: &out, Stderr: &errs, Faults: set})
	if runErr == nil {
		t.Fatal("fault did not surface")
	}
	if errs.Len() != 0 {
		t.Errorf("collateral stderr leaked: %q", errs.String())
	}
}
