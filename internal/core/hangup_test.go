package core

import (
	"bytes"
	"context"
	"os"
	osexec "os/exec"
	"path"
	"strings"
	"testing"
	"time"

	"jash/internal/cost"
	"jash/internal/dfg"
	"jash/internal/exec"
	"jash/internal/rewrite"
	"jash/internal/spec"
	"jash/internal/trace"
	"jash/internal/vfs"
)

// hangupArgv is, per spec row, an invocation that reads stdin and
// resolves Stateless or Parallelizable, with what `yes | C | head -n1`
// prints under dash.
var hangupArgv = map[string]struct {
	argv []string
	want string
}{
	"cat":      {[]string{"cat"}, "y\n"},
	"tr":       {[]string{"tr", "y", "n"}, "n\n"},
	"grep":     {[]string{"grep", "y"}, "y\n"},
	"cut":      {[]string{"cut", "-c1"}, "y\n"},
	"sed":      {[]string{"sed", "s/y/n/"}, "n\n"},
	"awk":      {[]string{"awk", "{print}"}, "y\n"},
	"rev":      {[]string{"rev"}, "y\n"},
	"fold":     {[]string{"fold"}, "y\n"},
	"expand":   {[]string{"expand"}, "y\n"},
	"unexpand": {[]string{"unexpand"}, "y\n"},
}

// neverEnds lists the rows for which `yes | C | head -n1` does not end
// under dash either: C writes nothing before its input ends.
var neverEnds = map[string]string{
	"sort": "sorts its whole input before it writes a line",
	"wc":   "counts its whole input before it writes",
}

// yesReader is yes's output, without end.
type yesReader struct{}

func (yesReader) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = "y\n"[i%2]
	}
	return len(p) &^ 1, nil
}

// TestReaderHangupEndsWriter: a write whose reader has gone ends its stage
// (SIGPIPE, built by construction), so for every spec row that a planner
// may split and that reads stdin, `yes | C | head -n1` ends with dash's
// stdout, nothing on stderr, status 0 and no fallback: under both
// evaluators in bash mode, in jash mode, and as a width-4 plan fed by yes.
// Each run has a second: it takes milliseconds.
func TestReaderHangupEndsWriter(t *testing.T) {
	lib := spec.Builtin()
	for _, name := range lib.Names() {
		row, ok := hangupArgv[name]
		sp, _ := lib.Lookup(name)
		if !ok {
			if _, listed := neverEnds[name]; !listed && (sp.Class == spec.Stateless || sp.Class == spec.Parallelizable) {
				t.Errorf("%s: a %v row with no `yes | %s | head -n1` case", name, sp.Class, name)
			}
			continue
		}
		if e := lib.Resolve(row.argv); !e.Parallelizable() || !e.ReadsStdin {
			t.Errorf("%v: resolves %v, reads stdin %v: not a row this test is for", row.argv, e.Class, e.ReadsStdin)
		}
		t.Run(name, func(t *testing.T) {
			script := "yes | " + strings.Join(row.argv, " ") + " | head -n1\n"
			if dashIsSh() {
				if out, err := osexec.Command("/bin/sh", "-c", script).Output(); err != nil || string(out) != row.want {
					t.Errorf("dash: %q, %v; want %q", out, err, row.want)
				}
			}
			hangupModes(t, script, row.want)
			hangupPlan(t, row.argv, row.want)
		})
	}
	for name, why := range neverEnds {
		t.Logf("yes | %s | head -n1 is not run: under dash it never ends either (%s)", name, why)
	}
}

// TestReaderHangupProbes: the probes that measured the missing rule, each
// ending within a second with dash's stdout.
func TestReaderHangupProbes(t *testing.T) {
	for _, p := range []struct{ script, want string }{
		{"seq 1 30000000 | grep 1 | head -n1\n", "1\n"},
		{"while :; do echo y; done | head -n1\n", "y\n"},
		{"yes | grep y | head -n1\n", "y\n"},
	} {
		hangupModes(t, p.script, p.want)
	}
}

// hangupModes runs script under the plain evaluator, the compiled one and
// jash mode, each traced and under a one-second watchdog.
func hangupModes(t *testing.T, script, want string) {
	t.Helper()
	for _, m := range []struct {
		mode      Mode
		noCompile bool
	}{{ModeBash, true}, {ModeBash, false}, {ModeJash, false}} {
		sh, out, errs := newShell(vfs.New(), cost.Laptop(), m.mode)
		sh.Interp.NoCompile = m.noCompile
		var tr bytes.Buffer
		sh.EnableTracing(trace.New(trace.Options{Writer: &tr}))
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		sh.Ctx = ctx
		status, err := sh.Run(script)
		timedOut := ctx.Err() != nil
		cancel()
		if timedOut {
			t.Fatalf("%v (NoCompile=%v): %q did not end within a second", m.mode, m.noCompile, script)
		}
		if err != nil || status != 0 || out.String() != want || errs.Len() > 0 {
			t.Errorf("%v (NoCompile=%v): %q: status %d err %v stdout %q stderr %q, want %q",
				m.mode, m.noCompile, script, status, err, out.String(), errs.String(), want)
		}
		if _, ok := findEvent(readTrace(t, sh, &tr), "fallback"); ok || sh.Stats.Fallbacks != 0 {
			t.Errorf("%v: %q fell back (%d)", m.mode, script, sh.Stats.Fallbacks)
		}
	}
}

// hangupPlan runs C | head -n1 as a width-4 plan whose stdin is yes's
// output, when the planner can split C at all (it drops a bare cat).
func hangupPlan(t *testing.T, argv []string, want string) {
	t.Helper()
	g, err := dfg.FromPipeline([][]string{argv, {"head", "-n1"}}, spec.Builtin(), dfg.Binding{})
	if err != nil {
		t.Fatal(err)
	}
	par, err := rewrite.Parallelize(g, rewrite.Options{Width: 4})
	if err != nil || !hasSplit(par) {
		if argv[0] != "cat" {
			t.Errorf("%v | head -n1 was not split into lanes: %v", argv, err)
		}
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	var out, errs bytes.Buffer
	status, err := exec.RunContext(ctx, par, &exec.Env{FS: vfs.New(), Dir: "/",
		Stdin: yesReader{}, Stdout: &out, Stderr: &errs})
	if ctx.Err() != nil {
		t.Fatalf("width 4: yes | %v | head -n1 did not end within a second", argv)
	}
	if err != nil || status != 0 || out.String() != want || errs.Len() > 0 {
		t.Errorf("width 4: status %d err %v stdout %q stderr %q, want %q", status, err, out.String(), errs.String(), want)
	}
}

func hasSplit(g *dfg.Graph) bool {
	for _, n := range g.Nodes {
		if n != nil && n.Kind == dfg.KindSplit {
			return true
		}
	}
	return false
}

func dashIsSh() bool {
	target, err := os.Readlink("/bin/sh")
	return err == nil && path.Base(target) == "dash"
}
