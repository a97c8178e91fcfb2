package interp

import (
	"bytes"
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"jash/internal/exec/faultinject"
	"jash/internal/pipe"
	"jash/internal/syntax"
	"jash/internal/vfs"
)

// underBothEvaluators runs the subtest with the evaluator's fast paths on
// and off: the stages of a pipeline expand and dispatch differently in the
// two, and the pipeline machinery must tear both down alike.
func underBothEvaluators(t *testing.T, fn func(t *testing.T, in *Interp, out *bytes.Buffer)) {
	for _, noCompile := range []bool{false, true} {
		t.Run("NoCompile="+strconv.FormatBool(noCompile), func(t *testing.T) {
			in := New(vfs.New())
			in.NoCompile = noCompile
			var out bytes.Buffer
			in.Stdout = &out
			fn(t, in, &out)
		})
	}
}

// noStageOutlives fails the test if pipeline-stage goroutines are still
// around once the pipeline has returned.
func noStageOutlives(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		buf := make([]byte, 1<<16)
		t.Fatalf("goroutine leak: %d before, %d after\n%s", before, after, buf[:runtime.Stack(buf, true)])
	}
}

// An early-exiting consumer must terminate a producer that has run ahead
// of it into the pipe's buffer, not just one parked on a rendezvous.
func TestPipelineEarlyExitStopsTheProducer(t *testing.T) {
	cases := []struct{ script, want string }{
		{"yes | head -n1", "y\n"},
		{"seq 1 1000000 | while read x; do break; done; echo $?", "0\n"},
	}
	for _, tc := range cases {
		t.Run(tc.script, func(t *testing.T) {
			underBothEvaluators(t, func(t *testing.T, in *Interp, out *bytes.Buffer) {
				before := runtime.NumGoroutine()
				if st, err := in.RunScript(tc.script); st != 0 || err != nil {
					t.Fatalf("status %d, err %v", st, err)
				}
				if out.String() != tc.want {
					t.Fatalf("stdout %q, want %q", out.String(), tc.want)
				}
				noStageOutlives(t, before)
			})
		})
	}
}

// A line longer than the pipe's capacity crosses two edges in pieces and
// arrives whole.
func TestPipelineCarriesALineLongerThanThePipe(t *testing.T) {
	const lineLen = 3*pipe.BlockSize + 17
	underBothEvaluators(t, func(t *testing.T, in *Interp, out *bytes.Buffer) {
		in.FS.WriteFile("/long", []byte(strings.Repeat("x", lineLen)+"\n"))
		if st, err := in.RunScript("cat /long | cat | cat | wc -c"); st != 0 || err != nil {
			t.Fatalf("status %d, err %v", st, err)
		}
		if got := strings.TrimSpace(out.String()); got != strconv.Itoa(lineLen+1) {
			t.Fatalf("wc -c = %q, want %d", got, lineLen+1)
		}
	})
}

// panicking makes the builtin name panic until the returned function
// restores it.
func panicking(name string) (restore func()) {
	fn := builtins[name]
	builtins[name] = func(*Interp, []string) int { panic("stage blew up") }
	return func() { builtins[name] = fn }
}

// A stage that panics with something other than a control-flow signal is
// re-raised where the caller can recover it, after the stage's pipe ends
// are closed — the infinite producer upstream of it would otherwise park
// on a full pipe forever.
func TestPipelineStagePanicReachesTheCaller(t *testing.T) {
	defer panicking("pwd")()
	underBothEvaluators(t, func(t *testing.T, in *Interp, out *bytes.Buffer) {
		before := runtime.NumGoroutine()
		var got any
		func() {
			defer func() { got = recover() }()
			in.RunScript("yes | pwd | cat")
		}()
		if got != "stage blew up" {
			t.Fatalf("recovered %v, want the stage's panic value", got)
		}
		noStageOutlives(t, before)
	})
}

// A stage that panics tears the pipeline down before it closes its pipe
// ends, so the stage below it reads a broken pipe, never a clean end of
// input: wc prints no count for the one line it was handed, and the value
// reaches the caller once every stage has ended.
func TestPipelineStagePanicIsNotTheEndOfTheStream(t *testing.T) {
	defer panicking("pwd")()
	underBothEvaluators(t, func(t *testing.T, in *Interp, out *bytes.Buffer) {
		before := runtime.NumGoroutine()
		var got any
		func() {
			defer func() { got = recover() }()
			in.RunScript("seq 1 1000 | { read x; echo $x; pwd; } | wc -l")
		}()
		if got != "stage blew up" {
			t.Fatalf("recovered %v, want the stage's panic value", got)
		}
		if out.Len() != 0 {
			t.Fatalf("stdout %q: the stage after the crash took it for the end of its input", out.String())
		}
		noStageOutlives(t, before)
	})
}

// A stage's diagnostics stream as they are written, not when the stage
// ends: the stage waits until its own message has reached stderr.
func TestPipelineStageStderrStreams(t *testing.T) {
	var arrived chan struct{}
	wait := builtins["wait"]
	builtins["wait"] = func(in *Interp, _ []string) int {
		fmt.Fprintln(in.Stderr, "early")
		select {
		case <-arrived:
			return 0
		case <-time.After(5 * time.Second):
			return 1
		}
	}
	defer func() { builtins["wait"] = wait }()
	underBothEvaluators(t, func(t *testing.T, in *Interp, out *bytes.Buffer) {
		arrived = make(chan struct{})
		var once sync.Once
		in.Stderr = writerFunc(func(p []byte) (int, error) {
			if strings.Contains(string(p), "early") {
				once.Do(func() { close(arrived) })
			}
			return len(p), nil
		})
		if st, err := in.RunScript("wait | cat"); st != 0 || err != nil {
			t.Fatalf("status %d, err %v: the stage's stderr was held until it ended", st, err)
		}
		select {
		case <-arrived:
		default:
			t.Fatal("the stage's diagnostic never reached stderr")
		}
	})
}

type writerFunc func([]byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }

// Interp-layer chaos arms a command by name, so a statically named command —
// which the compiled engine resolves ahead of dispatch — must pass the same
// hook a dynamically named one does: a builtin, a utility and a function.
func TestDispatchFaultReachesEveryNamedCommand(t *testing.T) {
	for _, name := range []string{"echo", "basename", "greet"} {
		t.Run(name, func(t *testing.T) {
			underBothEvaluators(t, func(t *testing.T, in *Interp, out *bytes.Buffer) {
				var errs bytes.Buffer
				in.Stderr = &errs
				in.Faults = faultinject.NewSet(faultinject.Rule{Node: "interp:dispatch:" + name, Op: faultinject.OpRead, Nth: 2})
				status, err := in.RunScript("greet() { printf '%s\\n' $1; }\n" + name + " 1\n" + name + " 2\necho $?\n" + name + " 3\n")
				if err != nil || status != 0 {
					t.Fatalf("status %d, err %v", status, err)
				}
				if in.Faults.Fired() != 1 || !strings.Contains(errs.String(), "jash: "+name+": ") {
					t.Errorf("fired %d, stderr %q: the second call never reached the hook", in.Faults.Fired(), errs.String())
				}
				if out.String() != "1\n1\n3\n" {
					t.Errorf("stdout %q, want the first and third call's output around a status 1", out.String())
				}
			})
		})
	}
}

// TestRefusedOfferIsNotRepeated: a pipeline the observer declines for good
// is not offered again, by the interpreter that compiled it or by the
// pipeline-stage clones that run the same closure at once; one it merely
// declines is offered on every run.
func TestRefusedOfferIsNotRepeated(t *testing.T) {
	underBothEvaluators(t, func(t *testing.T, in *Interp, out *bytes.Buffer) {
		var mu sync.Mutex
		offers := map[string]int{}
		in.Observer = func(_ *Interp, st *syntax.Stmt) (int, bool) {
			text := syntax.PrintStmts([]*syntax.Stmt{st})
			mu.Lock()
			offers[text]++
			mu.Unlock()
			if text == "x=1" {
				return Refused, false
			}
			return 0, false
		}
		script := "f() { x=1; echo y; }\nf | f | f | f >/dev/null\nfor i in 1 2 3 4 5; do f; done\n"
		if st, err := in.RunScript(script); st != 0 || err != nil {
			t.Fatalf("status %d, err %v", st, err)
		}
		// The four stages may each offer before any has seen the refusal.
		if n := offers["x=1"]; n < 1 || n > 4 {
			t.Errorf("x=1 offered %d times, want once per stage that raced to it at most", n)
		}
		if n := offers["echo y"]; n != 9 {
			t.Errorf("echo y offered %d times, want on each of its 9 runs", n)
		}
		if out.String() != strings.Repeat("y\n", 5) {
			t.Errorf("stdout %q", out.String())
		}
	})
}
