package interp

import (
	"bytes"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"jash/internal/exec/faultinject"
	"jash/internal/pipe"
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

// A stage that panics with something other than a control-flow signal is
// re-raised where the caller can recover it, after the stage's pipe ends
// are closed — the infinite producer upstream of it would otherwise park
// on a full pipe forever.
func TestPipelineStagePanicReachesTheCaller(t *testing.T) {
	builtins["testpanic"] = func(*Interp, []string) int { panic("stage blew up") }
	defer delete(builtins, "testpanic")
	underBothEvaluators(t, func(t *testing.T, in *Interp, out *bytes.Buffer) {
		before := runtime.NumGoroutine()
		var got any
		func() {
			defer func() { got = recover() }()
			in.RunScript("yes | testpanic | cat")
		}()
		if got != "stage blew up" {
			t.Fatalf("recovered %v, want the stage's panic value", got)
		}
		noStageOutlives(t, before)
	})
}

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
