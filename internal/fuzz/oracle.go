package fuzz

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"jash/internal/core"
	"jash/internal/cost"
	"jash/internal/exec/faultinject"
	"jash/internal/interp"
	"jash/internal/vfs"
)

// Outcome is what one oracle observed running one program: the externally
// visible behaviour (stdout, stderr, exit status, final filesystem state)
// plus the crash sentinels (panic, hang, goroutine leak).
type Outcome struct {
	Oracle string
	Status int
	Stdout string
	Stderr string
	// FSDump is the deterministic serialization of the final VFS state.
	FSDump string
	// Err is the run error text ("" when the run returned cleanly).
	Err string
	// Panic and PanicSite are set when the oracle panicked: the recovered
	// value and the first jash frame of its stack.
	Panic     string
	PanicSite string
	// Hung reports that the oracle exceeded the episode watchdog.
	Hung bool
	// Leaked counts goroutines that outlived the run past the settle
	// window.
	Leaked int
}

// Crashed reports whether the outcome is a crash finding on its own,
// independent of any differential comparison.
func (o Outcome) Crashed() bool { return o.Panic != "" || o.Hung || o.Leaked > 0 }

// OracleNames is the oracle matrix, in comparison order. The first entry
// is the reference the others are diffed against:
//
//	plain    the interpreter with its fast paths off (NoCompile): every
//	         word through the full expander, every command through the
//	         run-time dispatch chain — the Smoosh-style spec
//	compile  the same interpreter with word plans and pre-resolved dispatch
//	jit      Jash JIT dataflow plans, list parallelism off
//	listpar  Jash JIT plus effect-proven command-list parallelism
//	aot      the jashc-style ahead-of-time static planner (ModePaSh)
var OracleNames = []string{"plain", "compile", "jit", "listpar", "aot"}

// RunOpts configures one episode's oracle runs.
type RunOpts struct {
	// Timeout is the per-oracle watchdog (default 5s). An oracle that
	// does not return within it is cancelled; if it still has not
	// returned after a grace period it is reported as hung.
	Timeout time.Duration
	// Oracles selects a subset of OracleNames (nil runs all).
	Oracles []string
	// ExecFaults, when non-nil, returns a fresh fault set per optimized
	// oracle run, armed at the executor layer (Shell.Faults).
	ExecFaults func() *faultinject.Set
	// InterpFaults, when non-nil, returns a fresh fault set per oracle
	// run, armed at the interpreter/expansion layers (Interp.Faults).
	InterpFaults func() *faultinject.Set
	// Retries and StallTimeout configure the self-healing executor for
	// optimized oracles (chaos soaks arm both so injected stalls heal).
	Retries      int
	StallTimeout time.Duration
	// Extra registers additional oracles by name. An Extra oracle listed
	// in Oracles runs under the same sandbox, watchdog, and leak sentinel
	// as the built-in matrix. The harness's own tests use this to plant a
	// deliberately broken oracle and prove the pipeline catches it.
	Extra map[string]OracleFunc
}

// OracleFunc is a caller-supplied oracle: run src against fs, honouring
// ctx cancellation, writing to stdout/stderr, returning the exit status
// and error text ("" for a clean return).
type OracleFunc func(src string, fs *vfs.FS, ctx context.Context,
	stdout, stderr *bytes.Buffer) (int, string)

func (o RunOpts) withDefaults() RunOpts {
	if o.Timeout <= 0 {
		o.Timeout = 5 * time.Second
	}
	if len(o.Oracles) == 0 {
		o.Oracles = OracleNames
	}
	return o
}

// RunOracle executes the program under the named oracle inside its own
// sandboxed VFS and returns the observed outcome.
func RunOracle(name string, p Program, opts RunOpts) Outcome {
	opts = opts.withDefaults()
	out := Outcome{Oracle: name}
	var stdout, stderr bytes.Buffer
	fs := p.Fixture.Build()

	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan struct{})
	go func() {
		defer close(done)
		defer func() {
			if r := recover(); r != nil {
				out.Panic = fmt.Sprint(r)
				out.PanicSite = panicSite(debug.Stack())
			}
		}()
		out.Status, out.Err = runShell(name, p.Source, fs, ctx, &stdout, &stderr, opts)
	}()
	select {
	case <-done:
	case <-time.After(opts.Timeout):
		// Ask the run to unwind (compute loops poll the cancel channel,
		// the executor tears plans down), then give it a grace period.
		cancel()
		select {
		case <-done:
			out.Hung = true // exceeded the budget even if it unwound
		case <-time.After(2 * time.Second):
			out.Hung = true
		}
	}
	out.Stdout = stdout.String()
	out.Stderr = stderr.String()
	out.FSDump = DumpFS(fs)
	out.Leaked = settleGoroutines(before)
	return out
}

// runShell builds and runs the named oracle. The returned error text is
// "" for a clean return.
func runShell(name, src string, fs *vfs.FS, ctx context.Context,
	stdout, stderr *bytes.Buffer, opts RunOpts) (int, string) {
	errText := func(err error) string {
		if err == nil {
			return ""
		}
		return err.Error()
	}
	if fn, ok := opts.Extra[name]; ok {
		return fn(src, fs, ctx, stdout, stderr)
	}
	switch name {
	case "plain", "compile":
		in := interp.New(fs)
		in.Stdout, in.Stderr = stdout, stderr
		in.NoCompile = name == "plain"
		in.Ctx = ctx
		if opts.InterpFaults != nil {
			in.Faults = opts.InterpFaults()
		}
		status, err := in.RunScript(src)
		return status, errText(err)
	case "jit", "listpar", "aot":
		mode := core.ModeJash
		if name == "aot" {
			mode = core.ModePaSh
		}
		s := core.New(fs, cost.StandardEC2(), mode)
		s.NoListParallel = name == "jit"
		s.Interp.Stdout, s.Interp.Stderr = stdout, stderr
		s.Ctx = ctx
		s.Retries = opts.Retries
		s.StallTimeout = opts.StallTimeout
		if opts.ExecFaults != nil {
			s.Faults = opts.ExecFaults()
		}
		if opts.InterpFaults != nil {
			s.Interp.Faults = opts.InterpFaults()
		}
		status, err := s.Run(src)
		return status, errText(err)
	default:
		return 0, fmt.Sprintf("unknown oracle %q", name)
	}
}

// settleGoroutines waits for the goroutine count to return to the
// pre-episode level and reports how many remain above it. The settle loop
// tolerates runtime-internal goroutines spinning down, mirroring the
// executor's leak tests.
func settleGoroutines(before int) int {
	deadline := time.Now().Add(2 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= before {
			return 0
		}
		if time.Now().After(deadline) {
			return runtime.NumGoroutine() - before
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// panicSite extracts the first jash-package frame from a panic stack,
// skipping the fuzz harness itself — the bucketing key for crash
// signatures.
func panicSite(stack []byte) string {
	for _, line := range strings.Split(string(stack), "\n") {
		line = strings.TrimSpace(line)
		if !strings.HasPrefix(line, "jash/") {
			continue
		}
		if strings.HasPrefix(line, "jash/internal/fuzz") ||
			strings.HasPrefix(line, "jash/internal/exec/faultinject") {
			continue
		}
		// Trim the argument list: "jash/internal/syntax.(*parser).word(0x...)".
		if i := strings.IndexByte(line, '('); i > 0 {
			if j := strings.Index(line, ".("); j > 0 && j+1 == i-1 {
				// method receiver form: keep up to the second '('.
				if k := strings.IndexByte(line[i+1:], '('); k >= 0 {
					return line[:i+1+k]
				}
			}
			return line[:i]
		}
		return line
	}
	return "unknown"
}

// DumpFS serializes the filesystem deterministically: every path with its
// type and contents, sorted. Modification sequence numbers are excluded —
// concurrent oracles may write in different interleavings — but final
// bytes, modes, and tree shape must agree.
func DumpFS(fs *vfs.FS) string {
	var b strings.Builder
	var walk func(dir string)
	walk = func(dir string) {
		infos, err := fs.ReadDir(dir)
		if err != nil {
			fmt.Fprintf(&b, "%s !readdir %v\n", dir, err)
			return
		}
		sort.Slice(infos, func(i, j int) bool { return infos[i].Name < infos[j].Name })
		for _, fi := range infos {
			p := dir + "/" + fi.Name
			if dir == "/" {
				p = "/" + fi.Name
			}
			if fi.IsDir {
				fmt.Fprintf(&b, "%s/ mode=%o\n", p, fi.Mode)
				walk(p)
				continue
			}
			data, err := fs.ReadFile(p)
			if err != nil {
				fmt.Fprintf(&b, "%s !read %v\n", p, err)
				continue
			}
			fmt.Fprintf(&b, "%s mode=%o %d %q\n", p, fi.Mode, len(data), string(data))
		}
	}
	walk("/")
	return b.String()
}
