// Package interp is a Smoosh-style evaluator for the POSIX shell: it
// executes the syntax package's ASTs over the hermetic VFS, dispatching
// simple commands to builtins, shell functions, and the coreutils
// registry. In the Jash architecture this is the "interpretation" side the
// JIT falls back to for anything it cannot (or should not) optimize:
// control flow, assignments, expansions with side effects.
package interp

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"path"
	"strings"
	"sync"

	"jash/internal/coreutils"
	"jash/internal/exec/faultinject"
	"jash/internal/expand"
	"jash/internal/pipe"
	"jash/internal/syntax"
	"jash/internal/trace"
	"jash/internal/vfs"
)

// Variable is one shell variable with its export flag.
type Variable struct {
	Value    string
	Exported bool
	ReadOnly bool
}

// Interp is a shell execution state. Create with New; copies made by
// subshell() share the FS but nothing else.
type Interp struct {
	FS  *vfs.FS
	Dir string

	Vars   map[string]Variable
	Funcs  map[string]syntax.Command
	Params []string
	Name0  string

	Stdin  io.Reader
	Stdout io.Writer
	Stderr io.Writer

	Status int
	PID    int

	// Options (set -e, -f, -u, -x).
	ErrExit bool
	NoGlob  bool
	NoUnset bool
	XTrace  bool

	// Observer, when non-nil, sees every pipeline about to run and may
	// handle it (returning handled=true and a status). The Jash JIT
	// installs itself here for pipeline interposition. The invoking
	// interpreter is passed explicitly: subshells, command substitutions,
	// and pipeline stages run on clones whose streams, parameters, and
	// working directory the observer must use.
	Observer func(in *Interp, st *syntax.Stmt) (status int, handled bool)

	// Exited reports that the script called exit (or tripped set -e):
	// line-oriented drivers must stop feeding further commands.
	Exited bool

	// Traps maps condition names to trap actions. Only EXIT fires today
	// (the hermetic shell receives no signals); other conditions are
	// stored and printable but inert. Subshells start with no traps, per
	// POSIX.
	Traps map[string]string

	// Umask is the file-mode creation mask (umask builtin). It shadows
	// the VFS-level mask so `umask` can print the current value without
	// consulting the filesystem.
	Umask uint32

	// Ctx, when non-nil, asks long-running commands to stop once it is
	// done: it is handed to every coreutils invocation (their compute
	// loops poll it) and breaks the pipes of interpreted pipelines, so an
	// external deadline bounds interpreted pipelines too, not just
	// optimized plans.
	Ctx context.Context

	// Faults, when non-nil, arms seeded fault injection at the
	// interpreter's own boundaries — command dispatch and redirection
	// opens — extending the executor-focused chaos harness to the
	// fallback path. Injected faults (including ModePanic ones, which are
	// contained at the boundary) manifest as ordinary command failures:
	// a diagnostic on stderr and a non-zero status, never a crash.
	Faults *faultinject.Set

	// NoCompile turns the evaluator's fast paths off: the same cached
	// closures run, but every word goes through the full expander (no
	// precomputed fields, no bare-$name or $((expr)) shortcut) and every
	// simple command through dispatch's run-time lookup chain (no
	// pre-resolved builtin or utility). It is the reference run of the
	// differential tests and the fuzzer's `plain` oracle — optimisation off
	// against optimisation on is the only place two runs of the one
	// evaluator can differ — and the baseline the benchmark's
	// interp.compile_speedup divides by.
	NoCompile bool

	// Tracer, when non-nil, records spans for interpreted multi-stage
	// pipelines (the work the JIT declined). Simple commands are left
	// untraced deliberately: a per-builtin span would fire once per loop
	// iteration and swamp both the trace and the tracing budget.
	Tracer *trace.Tracer

	// cache memoizes compiled program fragments per AST node; subshell
	// clones share it (AST nodes are immutable, and the map is
	// concurrency-safe for the pipeline-stage goroutines).
	cache *progCache

	// Per-Interp closure caches: expander and coreutils-context callbacks
	// close over the interpreter and are identical across invocations, so
	// they are built once instead of per command (they dominate the
	// allocation profile of tight loops otherwise). Subshell clones start
	// empty — a clone must not call back into its parent.
	xLookup   func(string) (string, bool)
	xSet      func(string, string) error
	xCmdSubst func([]*syntax.Stmt) (string, error)
	cuGetenv  func(string) string
	cuEnviron func() []string
	arLookup  func(string) string
	arAssign  func(string, string) error
	// early is EarlyExpander's storage: planning asks for one per offered
	// pipeline and is done with it before the next.
	early expand.Expander

	loopDepth int
	// callDepth counts the function calls in progress, parent shells' too.
	callDepth int

	// getopts state that POSIX hides from scripts: optInd mirrors the
	// last OPTIND this shell wrote (an external change resets the scan)
	// and optPos is the cursor inside a clustered group like -abc.
	optInd int
	optPos int

	// localFrames stacks the saved bindings of active function calls:
	// builtinLocal records each shadowed (or previously unset) variable in
	// the innermost frame, and callFunction restores them on return.
	localFrames []map[string]*Variable
}

// New returns an interpreter over the given filesystem with standard
// streams discarded (replace Stdin/Stdout/Stderr as needed).
func New(fs *vfs.FS) *Interp {
	return &Interp{
		FS:  fs,
		Dir: "/",
		// POSIX requires PWD to reflect the working directory from shell
		// startup, not only after the first cd.
		Vars:   map[string]Variable{"PWD": {Value: "/", Exported: true}},
		Funcs:  map[string]syntax.Command{},
		Traps:  map[string]string{},
		Umask:  fs.Umask(),
		Name0:  "jash",
		Stdin:  strings.NewReader(""),
		Stdout: io.Discard,
		Stderr: io.Discard,
		PID:    1000,
		cache:  &progCache{},
	}
}

// control-flow signals, delivered as errors through the evaluator.
type exitSignal struct{ status int }
type returnSignal struct{ status int }
type breakSignal struct{ levels int }
type continueSignal struct{ levels int }
type fatalError struct{ err error }

func (exitSignal) Error() string     { return "exit" }
func (returnSignal) Error() string   { return "return" }
func (breakSignal) Error() string    { return "break" }
func (continueSignal) Error() string { return "continue" }
func (f fatalError) Error() string   { return f.err.Error() }

// RunScript parses and runs a whole script, returning its exit status.
// The EXIT trap, if installed, runs when the script finishes (RunExitTrap
// already ran it if the script called exit).
func (in *Interp) RunScript(src string) (int, error) {
	script, err := syntax.Parse(src)
	if err != nil {
		return 2, err
	}
	status, err := in.RunStmts(script.Stmts)
	if err == nil {
		in.RunExitTrap()
		if !in.Exited {
			status = in.Status
		}
	}
	return status, err
}

// RunStmts runs a statement list, returning the final exit status.
func (in *Interp) RunStmts(stmts []*syntax.Stmt) (status int, err error) {
	defer func() {
		if r := recover(); r != nil {
			switch sig := r.(type) {
			case exitSignal:
				status = sig.status
				in.Status = sig.status
				in.Exited = true
			case fatalError:
				status = 2
				in.Status = 2
				err = sig.err
			default:
				panic(r)
			}
		}
	}()
	for _, st := range stmts {
		in.stmt(st)
	}
	return in.Status, nil
}

// Getenv looks up a variable's value (exported or not — the hermetic
// environment does not distinguish for lookups).
func (in *Interp) Getenv(name string) string {
	return in.Vars[name].Value
}

// Setenv sets a variable.
func (in *Interp) Setenv(name, value string) {
	v := in.Vars[name]
	v.Value = value
	in.Vars[name] = v
}

// assign is Setenv behind the readonly check: the setter the expansions
// that assign (${x=w}, $((x=1))) and the read builtin go through.
func (in *Interp) assign(name, value string) error {
	if in.Vars[name].ReadOnly {
		return fmt.Errorf("%s: readonly variable", name)
	}
	in.Setenv(name, value)
	return nil
}

// mustAssign is assign for the statement forms (NAME=value, for NAME in):
// a readonly target ends a non-interactive shell.
func (in *Interp) mustAssign(name, value string) {
	if err := in.assign(name, value); err != nil {
		fmt.Fprintf(in.Stderr, "jash: %v\n", err)
		panic(exitSignal{1})
	}
}

// Environ lists exported NAME=VALUE pairs.
func (in *Interp) Environ() []string {
	var out []string
	for name, v := range in.Vars {
		if v.Exported {
			out = append(out, name+"="+v.Value)
		}
	}
	return out
}

// expander builds an expand.Expander over the current state. The callback
// closures are cached on the interpreter; the struct itself is fresh per
// call so captured scalars ($?, positional parameters) keep the same
// snapshot semantics as before.
func (in *Interp) expander() *expand.Expander {
	if in.xLookup == nil {
		in.xLookup = func(name string) (string, bool) {
			v, ok := in.Vars[name]
			return v.Value, ok
		}
		in.xSet = in.assign
		in.xCmdSubst = in.cmdSubst
	}
	return &expand.Expander{
		Lookup:   in.xLookup,
		Set:      in.xSet,
		Params:   in.Params,
		Name0:    in.Name0,
		Status:   in.Status,
		PID:      in.PID,
		FS:       in.FS,
		Dir:      in.Dir,
		NoGlob:   in.NoGlob,
		NoUnset:  in.NoUnset,
		CmdSubst: in.xCmdSubst,
		Faults:   in.Faults,
	}
}

// EarlyExpander is the expander planning uses to expand a statement's words
// before the statement runs: the interpreter's own expander — same options,
// same $?, same positional parameters — that can neither assign a variable
// nor run a command substitution. It is valid until the next call.
func (in *Interp) EarlyExpander() *expand.Expander {
	in.early = *in.expander()
	in.early.Set, in.early.CmdSubst = nil, nil
	return &in.early
}

// cmdSubst runs a command substitution body in a subshell, capturing its
// stdout. The exit status becomes the parent's $?.
func (in *Interp) cmdSubst(stmts []*syntax.Stmt) (string, error) {
	sub := in.subshell()
	var buf bytes.Buffer
	sub.Stdout = &buf
	status, err := sub.RunStmts(stmts)
	if err != nil {
		return "", err
	}
	in.Status = status
	return buf.String(), nil
}

// Subshell clones the interpreter state for an isolated execution whose
// mutations do not escape; package core's list-region runner executes each
// statement of a proven-non-interfering region on its own clone and merges
// the declared definitions back afterwards.
func (in *Interp) Subshell() *Interp { return in.subshell() }

// subshell clones the interpreter state; mutations do not escape.
func (in *Interp) subshell() *Interp {
	vars := make(map[string]Variable, len(in.Vars))
	for k, v := range in.Vars {
		vars[k] = v
	}
	funcs := make(map[string]syntax.Command, len(in.Funcs))
	for k, v := range in.Funcs {
		funcs[k] = v
	}
	params := append([]string(nil), in.Params...)
	return &Interp{
		FS: in.FS, Dir: in.Dir,
		Vars: vars, Funcs: funcs, Params: params, Name0: in.Name0,
		Stdin: in.Stdin, Stdout: in.Stdout, Stderr: in.Stderr,
		Status: in.Status, PID: in.PID + 1,
		ErrExit: in.ErrExit, NoGlob: in.NoGlob, NoUnset: in.NoUnset,
		// POSIX resets subshell traps to their defaults; the umask carries
		// over.
		Traps: map[string]string{}, Umask: in.Umask,
		Observer: in.Observer, Ctx: in.Ctx, Tracer: in.Tracer,
		Faults: in.Faults,
		// The cache pointer is copied as-is: it is always non-nil by the
		// time a clone is made (stmt() forces it), and lazy creation here
		// would race among pipeline-stage goroutines.
		NoCompile: in.NoCompile, cache: in.cache, callDepth: in.callDepth,
	}
}

// RunExitTrap runs the EXIT trap, if one is set, exactly once: the action
// is consumed before it runs, so a trap that itself exits (or a driver
// that calls this again at shutdown) cannot recurse. The shell's exit
// status is preserved across the trap body unless the body calls exit
// with an explicit status, which POSIX lets override it.
func (in *Interp) RunExitTrap() { in.runTrap("EXIT") }

// RunPendingTraps runs the actions for the given trap conditions in
// order, each exactly once with the same consume-before-run discipline
// as RunExitTrap. It is how an externally imposed deadline gives the
// script's INT/TERM/EXIT handlers their last word before the session
// exits with the timeout convention's status.
func (in *Interp) RunPendingTraps(conds ...string) {
	for _, c := range conds {
		in.runTrap(c)
	}
}

// runTrap consumes and runs one trap condition's action.
func (in *Interp) runTrap(cond string) {
	cmd, ok := in.Traps[cond]
	if !ok || strings.TrimSpace(cmd) == "" {
		delete(in.Traps, cond)
		return
	}
	delete(in.Traps, cond)
	saved := in.Status
	func() {
		defer func() {
			if r := recover(); r != nil {
				switch sig := r.(type) {
				case exitSignal:
					saved = sig.status
				case fatalError:
					fmt.Fprintf(in.Stderr, "trap: %v\n", sig.err)
				default:
					panic(r)
				}
			}
		}()
		script, err := syntax.Parse(cmd)
		if err != nil {
			fmt.Fprintf(in.Stderr, "trap: %v\n", err)
			return
		}
		for _, st := range script.Stmts {
			in.stmt(st)
		}
	}()
	in.Status = saved
}

func (in *Interp) fatalf(format string, args ...any) {
	panic(fatalError{fmt.Errorf(format, args...)})
}

// stmt runs one statement through its cached closure.
func (in *Interp) stmt(st *syntax.Stmt) {
	in.compiledStmt(st)(in)
}

func (in *Interp) maybeErrExit(guarded bool) {
	if in.ErrExit && !guarded && in.Status != 0 {
		panic(exitSignal{in.Status})
	}
}

// runPipeStages wires the stages with bounded pipes — the same edge the
// dataflow executor runs on — and runs each stage in a subshell goroutine.
// The pipeline's status is the last stage's status. Stage goroutines share
// the pipeline's stderr (and the last stage its stdout), so both go
// through one lock.
func (in *Interp) runPipeStages(stages []func(*Interp)) {
	n := len(stages)
	sp := in.Tracer.Start(nil, "interpret:pipeline")
	sp.SetInt("stages", int64(n))
	defer func() {
		sp.SetInt("status", int64(in.Status))
		sp.End()
	}()
	var outMu sync.Mutex
	sharedErr := &pipe.LockedWriter{Mu: &outMu, W: in.Stderr}
	sharedOut := &pipe.LockedWriter{Mu: &outMu, W: in.Stdout}
	// Edge i carries stage i's stdout to stage i+1's stdin.
	readers := make([]*pipe.Reader, n-1)
	writers := make([]*pipe.Writer, n-1)
	for i := range readers {
		readers[i], writers[i] = pipe.New(pipe.BlockSize)
	}
	if in.Ctx != nil {
		// A session torn down mid-pipeline breaks every edge, so a stage
		// parked on a pipe stops as promptly as a polling compute loop.
		stop := context.AfterFunc(in.Ctx, func() {
			for _, r := range readers {
				r.Break(context.Cause(in.Ctx))
			}
		})
		defer stop()
	}
	var wg sync.WaitGroup
	var lastStatus int
	// A stage that panics with anything but a control-flow signal must not
	// take the process down from its own goroutine, where no caller's
	// recover can see it: the first such value is re-raised below.
	var crashOnce sync.Once
	var crash any
	for i, stage := range stages {
		wg.Add(1)
		go func(i int, stage func(*Interp)) {
			defer wg.Done()
			sub := in.subshell()
			sub.Stderr = sharedErr
			if i > 0 {
				sub.Stdin = readers[i-1]
			}
			if i < n-1 {
				sub.Stdout = writers[i]
			} else {
				sub.Stdout = sharedOut
			}
			defer func() {
				if r := recover(); r != nil {
					switch sig := r.(type) {
					case exitSignal:
						sub.Status = sig.status
					case fatalError:
						sub.Status = 2
					default:
						crashOnce.Do(func() { crash = r })
					}
				}
				if i < n-1 {
					writers[i].Close()
				}
				if i > 0 {
					// Signal upstream we are done reading.
					readers[i-1].Close()
				}
				if i == n-1 {
					lastStatus = sub.Status
				}
			}()
			stage(sub)
		}(i, stage)
	}
	wg.Wait()
	if crash != nil {
		panic(crash)
	}
	in.Status = lastStatus
}

// runSubshell runs a ( ... ) command on a clone of the interpreter: state
// copy and trap reset dominate its cost, so there is nothing to precompute
// beyond the body's statements, which hit the shared cache.
func (in *Interp) runSubshell(c *syntax.Subshell) {
	sub := in.subshell()
	cleanup, ok := sub.applyRedirs(c.Redirections)
	if !ok {
		in.Status = 1
		return
	}
	status, err := sub.RunStmts(c.Body)
	cleanup()
	if err != nil {
		panic(fatalError{err})
	}
	in.Status = status
}

const maxLoopIterations = 10_000_000 // guard against runaway scripts in tests

// maxCallDepth bounds function nesting: runaway recursion must end as a
// script error, not as the Go runtime's fatal stack overflow.
const maxCallDepth = 1000

// loopBodyFn runs one loop iteration, translating break/continue signals.
// It returns true when the loop should stop.
func (in *Interp) loopBodyFn(run func()) (stop bool) {
	defer func() {
		if r := recover(); r != nil {
			switch sig := r.(type) {
			case breakSignal:
				stop = true
				if sig.levels > 1 {
					panic(breakSignal{sig.levels - 1})
				}
			case continueSignal:
				if sig.levels > 1 {
					panic(continueSignal{sig.levels - 1})
				}
			default:
				panic(r)
			}
		}
	}()
	run()
	return false
}

// expandFail reports an expansion error; fatal ones abort the script.
func (in *Interp) expandFail(err error) {
	fmt.Fprintf(in.Stderr, "jash: %v\n", err)
	var ee *expand.ExpandError
	if errors.As(err, &ee) && ee.Fatal {
		panic(exitSignal{1})
	}
	in.Status = 1
}

// dispatch runs an expanded command: special builtins, functions, then
// the coreutils registry.
func (in *Interp) dispatch(fields []string) {
	name := fields[0]
	if in.dispatchFault(name) {
		return
	}
	if fn, ok := builtins[name]; ok {
		in.Status = fn(in, fields)
		return
	}
	if body, ok := in.Funcs[name]; ok {
		in.callFunction(body, fields)
		return
	}
	if fn, ok := coreutils.Lookup(name); ok {
		in.Status = fn(in.coreutilsContext(), fields)
		return
	}
	fmt.Fprintf(in.Stderr, "jash: %s: command not found\n", name)
	in.Status = 127
}

// dispatchFault is where chaos reaches the interpreter, with the fast paths
// on or off: an injected dispatch fault makes the command fail
// like any runtime error would — diagnostic plus status 1 — so the soak can
// drive the fallback path's error handling without crashing the session.
// Unarmed, it costs a nil check and builds no label.
func (in *Interp) dispatchFault(name string) bool {
	if in.Faults == nil {
		return false
	}
	err := in.Faults.CheckContained("interp:dispatch:"+name, faultinject.OpRead)
	if err == nil {
		return false
	}
	fmt.Fprintf(in.Stderr, "jash: %s: %v\n", name, err)
	in.Status = 1
	return true
}

// coreutilsContext builds the invocation context handed to a registry
// utility, reflecting the interpreter's current streams and directory.
func (in *Interp) coreutilsContext() *coreutils.Context {
	if in.cuGetenv == nil {
		in.cuGetenv = in.Getenv
		in.cuEnviron = in.Environ
	}
	return &coreutils.Context{
		FS:      in.FS,
		Dir:     in.Dir,
		Stdin:   in.Stdin,
		Stdout:  in.Stdout,
		Stderr:  in.Stderr,
		Getenv:  in.cuGetenv,
		Environ: in.cuEnviron,
		Ctx:     in.Ctx,
	}
}

func (in *Interp) callFunction(body syntax.Command, fields []string) {
	if in.callDepth >= maxCallDepth {
		in.fatalf("%s: function nesting deeper than %d", fields[0], maxCallDepth)
	}
	in.callDepth++
	savedParams := in.Params
	in.Params = fields[1:]
	in.localFrames = append(in.localFrames, map[string]*Variable{})
	defer func() {
		in.callDepth--
		// Unwind the function's local frame: restore shadowed bindings,
		// remove variables that were unset before the call.
		frame := in.localFrames[len(in.localFrames)-1]
		in.localFrames = in.localFrames[:len(in.localFrames)-1]
		for name, old := range frame {
			if old == nil {
				delete(in.Vars, name)
			} else {
				in.Vars[name] = *old
			}
		}
		in.Params = savedParams
		if r := recover(); r != nil {
			if sig, ok := r.(returnSignal); ok {
				in.Status = sig.status
				return
			}
			panic(r)
		}
	}()
	in.compiledCommand(body)(in)
}

// withRedirs applies redirections around f, restoring streams afterwards.
func (in *Interp) withRedirs(redirs []*syntax.Redirect, f func()) {
	if len(redirs) == 0 {
		f()
		return
	}
	cleanup, ok := in.applyRedirs(redirs)
	if !ok {
		in.Status = 1
		return
	}
	defer cleanup()
	f()
}

// applyRedirs mutates the interpreter's streams per the redirections and
// returns a cleanup function restoring them (and flushing outputs).
func (in *Interp) applyRedirs(redirs []*syntax.Redirect) (func(), bool) {
	savedIn, savedOut, savedErr := in.Stdin, in.Stdout, in.Stderr
	var closers []io.Closer
	cleanup := func() {
		for _, cl := range closers {
			cl.Close()
		}
		in.Stdin, in.Stdout, in.Stderr = savedIn, savedOut, savedErr
	}
	x := in.expander()
	setWriter := func(fd int, w io.Writer) {
		if fd == 2 {
			in.Stderr = w
		} else {
			in.Stdout = w
		}
	}
	for _, r := range redirs {
		fd := r.DefaultFD()
		switch r.Op {
		case syntax.RedirIn:
			target, err := x.ExpandString(r.Target)
			if err != nil {
				in.expandFail(err)
				cleanup()
				return nil, false
			}
			var rc io.ReadCloser
			if err = in.Faults.CheckContained("interp:redir:"+target, faultinject.OpOpen); err == nil {
				rc, err = in.FS.Open(in.lookPath(target))
			}
			if err != nil {
				fmt.Fprintf(in.Stderr, "jash: %s: %v\n", target, err)
				cleanup()
				return nil, false
			}
			closers = append(closers, rc)
			in.Stdin = rc
		case syntax.RedirOut, syntax.RedirClobber, syntax.RedirAppend:
			target, err := x.ExpandString(r.Target)
			if err != nil {
				in.expandFail(err)
				cleanup()
				return nil, false
			}
			var w io.WriteCloser
			if err = in.Faults.CheckContained("interp:redir:"+target, faultinject.OpOpen); err == nil {
				if r.Op == syntax.RedirAppend {
					w, err = in.FS.Append(in.lookPath(target))
				} else {
					w, err = in.FS.Create(in.lookPath(target))
				}
			}
			if err != nil {
				fmt.Fprintf(in.Stderr, "jash: %s: %v\n", target, err)
				cleanup()
				return nil, false
			}
			closers = append(closers, w)
			setWriter(fd, w)
		case syntax.RedirHeredoc, syntax.RedirHeredocDash:
			body, err := x.ExpandString(r.Body)
			if err != nil {
				in.expandFail(err)
				cleanup()
				return nil, false
			}
			in.Stdin = strings.NewReader(body)
		case syntax.RedirDupOut:
			target, err := x.ExpandString(r.Target)
			if err != nil {
				in.expandFail(err)
				cleanup()
				return nil, false
			}
			switch target {
			case "1":
				setWriter(fd, in.Stdout)
			case "2":
				setWriter(fd, in.Stderr)
			case "-":
				setWriter(fd, io.Discard)
			default:
				fmt.Fprintf(in.Stderr, "jash: bad fd %q\n", target)
				cleanup()
				return nil, false
			}
		case syntax.RedirDupIn:
			target, err := x.ExpandString(r.Target)
			if err != nil {
				in.expandFail(err)
				cleanup()
				return nil, false
			}
			if target == "-" {
				in.Stdin = strings.NewReader("")
			}
		case syntax.RedirInOut:
			target, err := x.ExpandString(r.Target)
			if err != nil {
				in.expandFail(err)
				cleanup()
				return nil, false
			}
			p := in.lookPath(target)
			if !in.FS.Exists(p) {
				in.FS.WriteFile(p, nil)
			}
			// Open read-write without truncation. With the default fd 0
			// the command sees the file on stdin; on fd 1/2 it appends.
			if fd == 0 {
				rc, err := in.FS.Open(p)
				if err == nil {
					closers = append(closers, rc)
					in.Stdin = rc
				}
			} else {
				w, err := in.FS.Append(p)
				if err == nil {
					closers = append(closers, w)
					setWriter(fd, w)
				}
			}
		}
	}
	return cleanup, true
}

// lookPath resolves a possibly-relative path against the working dir.
func (in *Interp) lookPath(p string) string {
	if path.IsAbs(p) {
		return path.Clean(p)
	}
	return path.Join(in.Dir, p)
}
