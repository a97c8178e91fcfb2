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
	"maps"
	"path"
	"strings"

	"jash/internal/coreutils"
	"jash/internal/exec"
	"jash/internal/exec/faultinject"
	"jash/internal/expand"
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
// subshell() share the FS and the positional parameters, and the variable
// and function tables until they first write one.
type Interp struct {
	FS  *vfs.FS
	Dir string

	// Vars and Funcs are the variable and function tables. Read them
	// freely; write them only through SetVar, unsetVar, defineFunc and
	// unsetFunc, which copy a table the interpreter shares with the one it
	// was cloned from before the first write.
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

	// Observer, when non-nil, sees every pipeline about to run and answers
	// one of three ways: it handles it (handled=true and the status), it
	// declines (handled=false), or it declines for good (handled=false and
	// status Refused). A pipeline declined for good is never offered
	// again: the mark lives with the compiled pipeline, so loop iterations,
	// later calls of a function and the clones sharing the compilation all
	// skip the offer. An observer may decline for good only what it would
	// decline on every run of that pipeline node. The Jash JIT installs
	// itself here for pipeline interposition. The invoking interpreter is
	// passed explicitly: subshells, command substitutions, and pipeline
	// stages run on clones whose streams, parameters, and working directory
	// the observer must use.
	Observer func(in *Interp, st *syntax.Stmt) (status int, handled bool)

	// Exited reports that the script called exit (or tripped set -e):
	// line-oriented drivers must stop feeding further commands.
	Exited bool

	// Traps maps condition names to trap actions; it is nil until a trap
	// is set. Only EXIT fires today (the hermetic shell receives no
	// signals); other conditions are stored and printable but inert.
	// Subshells start with no traps, per POSIX.
	Traps map[string]string

	// Umask is the file-mode creation mask (umask builtin). It shadows
	// the VFS-level mask so `umask` can print the current value without
	// consulting the filesystem.
	Umask uint32

	// Ctx, when non-nil, asks long-running commands to stop once it is
	// done: it is handed to every coreutils invocation (their compute
	// loops poll it) and is the context every multi-stage pipeline runs
	// under on the executor, which breaks all the pipeline's edges when it
	// ends. An external deadline so bounds interpreted pipelines as it does
	// optimized plans.
	Ctx context.Context

	// Faults, when non-nil, arms seeded fault injection at the
	// interpreter's own boundaries — command dispatch and redirection
	// opens — extending the executor-focused chaos harness to the
	// fallback path. Injected faults (including ModePanic ones, which are
	// contained at the boundary) manifest as ordinary command failures:
	// a diagnostic on stderr and a non-zero status, never a crash.
	Faults *faultinject.Set

	// NoCompile turns the evaluator's caching off: the same cached
	// closures run, but every word is compiled afresh (no cached
	// expand.Plan, no precomputed field list) and every simple command
	// goes through dispatch's run-time lookup chain (no pre-resolved
	// builtin or utility). It is the reference run of the
	// differential tests and the fuzzer's `plain` oracle — optimisation off
	// against optimisation on is the only place two runs of the one
	// evaluator can differ — and the baseline the benchmark's
	// interp.compile_speedup divides by.
	NoCompile bool

	// Tracer, when non-nil, is the span pipelines hang from: an interpreted
	// multi-stage pipeline (the work the JIT declined) opens an
	// interpret:pipeline child with one node:* span per stage, and the
	// pipelines inside its stages hang from that child. Package core sets it
	// to the span of the top-level command running, where the JIT's own
	// pipeline spans hang too. Simple commands are left untraced
	// deliberately: a per-builtin span would fire once per loop iteration
	// and swamp both the trace and the tracing budget.
	Tracer *trace.Span

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
	// x is the interpreter's one expander and cu its one utility context,
	// both refreshed in place by expander() and coreutilsContext(); early is
	// EarlyExpander's, made on its first call, which planning uses for one
	// offered pipeline and is done with before the next. Clones get their
	// own.
	x     expand.Expander
	cu    coreutils.Context
	early *expand.Expander

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

	// varsShared and funcsShared say that Vars and Funcs are the tables of
	// the interpreter this one was cloned from: the first write copies
	// them. Sharing is sound because a parent never writes while a clone
	// lives (a pipeline, $(...) and & wait for their clones, and a list
	// region's workers end before their definitions are merged).
	varsShared, funcsShared bool

	// argv is the stack the fields of the running simple commands and
	// for loops live on: each pushes its fields and pops them, in a
	// deferred call, when it returns or a signal (break, continue,
	// return, exit, a fatal error) unwinds it. A field list is valid while
	// its command runs: whatever keeps one longer (set --) copies it.
	argv []string
	// closers is the stack the files opened by the active redirections
	// live on, as argv is for fields: applyRedirs pushes them and
	// restoreRedirs closes and pops them.
	closers []io.Closer
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
// The EXIT trap, if installed, runs when the script finishes, however it
// finishes (RunExitTrap already ran it if the script called exit).
func (in *Interp) RunScript(src string) (int, error) {
	script, err := syntax.Parse(src)
	if err != nil {
		return 2, err
	}
	status, err := in.RunStmts(script.Stmts)
	in.RunExitTrap()
	if !in.Exited {
		status = in.Status
	}
	return status, err
}

// RunStmts runs a statement list, returning the final exit status.
func (in *Interp) RunStmts(stmts []*syntax.Stmt) (status int, err error) {
	defer func() {
		if r := recover(); r != nil {
			ended, fatal := in.ended(r)
			if !ended {
				panic(r)
			}
			status, err = in.Status, fatal
		}
	}()
	for _, st := range stmts {
		in.stmt(st)
	}
	return in.Status, nil
}

// ended is the one rule for a shell body that stops early — the whole
// script, or a subshell clone's (`( )`, `&`, `$( )`, a pipeline stage): it
// reports whether r, a recovered panic, ends that body. exit, and a return
// no function caught, end it with their status; a fatal error ends it with
// status 2 and is handed back. Anything else is not ours to stop.
func (in *Interp) ended(r any) (ended bool, fatal error) {
	switch sig := r.(type) {
	case exitSignal:
		in.Status = sig.status
	case returnSignal:
		in.Status = sig.status
	case fatalError:
		in.Status = 2
		return true, sig.err
	default:
		return false, nil
	}
	in.Exited = true
	return true, nil
}

// Getenv looks up a variable's value (exported or not — the hermetic
// environment does not distinguish for lookups).
func (in *Interp) Getenv(name string) string {
	return in.Vars[name].Value
}

// Setenv sets a variable's value, keeping its flags.
func (in *Interp) Setenv(name, value string) {
	v := in.Vars[name]
	v.Value = value
	in.SetVar(name, v)
}

// SetVar binds a variable, value and flags: with unsetVar, the one writer
// of the variable table.
func (in *Interp) SetVar(name string, v Variable) {
	in.ownVars()
	in.Vars[name] = v
}

// unsetVar removes a variable.
func (in *Interp) unsetVar(name string) {
	if _, ok := in.Vars[name]; ok {
		in.ownVars()
		delete(in.Vars, name)
	}
}

// defineFunc binds a function: with unsetFunc, the one writer of the
// function table.
func (in *Interp) defineFunc(name string, body syntax.Command) {
	in.ownFuncs()
	in.Funcs[name] = body
}

// unsetFunc removes a function.
func (in *Interp) unsetFunc(name string) {
	if _, ok := in.Funcs[name]; ok {
		in.ownFuncs()
		delete(in.Funcs, name)
	}
}

// ownVars and ownFuncs copy a table shared with the interpreter this one
// was cloned from, before its first write.
func (in *Interp) ownVars() {
	if in.varsShared {
		in.Vars, in.varsShared = maps.Clone(in.Vars), false
	}
}

func (in *Interp) ownFuncs() {
	if in.funcsShared {
		in.Funcs, in.funcsShared = maps.Clone(in.Funcs), false
	}
}

// restoreVar puts back a binding saved before a prefix assignment or a
// local declaration: old, or no variable when old is nil.
func (in *Interp) restoreVar(name string, old *Variable) {
	if old == nil {
		in.unsetVar(name)
	} else {
		in.SetVar(name, *old)
	}
}

// popArgv truncates the argv stack back to mark, dropping the popped
// fields' strings.
func (in *Interp) popArgv(mark int) {
	clear(in.argv[mark:])
	in.argv = in.argv[:mark]
}

// assign is Setenv behind the readonly check: the setter the expansions
// that assign (${x=w}, $((x=1))) and the read builtin go through.
func (in *Interp) assign(name, value string) error {
	v := in.Vars[name]
	if v.ReadOnly {
		return fmt.Errorf("%s: readonly variable", name)
	}
	v.Value = value
	in.SetVar(name, v)
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

// expander returns the interpreter's one expander, refreshed from the
// current state. Each call is a snapshot point: $?, the positional
// parameters, the directory and the options are read here and hold for
// every expansion made through the returned pointer, so a simple command
// that asks once sees one $? across all its words, as POSIX requires, even
// when one of them runs a command substitution.
//
// Reusing one expander is safe because nothing inside an expansion
// re-enters the same Interp: CmdSubst runs its body on a subshell clone,
// which has an expander of its own, and Set only assigns.
func (in *Interp) expander() *expand.Expander {
	in.refresh(&in.x)
	return &in.x
}

// refresh points x at the interpreter's current state.
func (in *Interp) refresh(x *expand.Expander) {
	if in.xLookup == nil {
		in.xLookup = func(name string) (string, bool) {
			v, ok := in.Vars[name]
			return v.Value, ok
		}
		in.xSet = in.assign
		in.xCmdSubst = in.cmdSubst
	}
	x.Lookup, x.Set, x.CmdSubst = in.xLookup, in.xSet, in.xCmdSubst
	x.Params, x.Name0, x.Status, x.PID = in.Params, in.Name0, in.Status, in.PID
	x.FS, x.Dir, x.NoGlob, x.NoUnset = in.FS, in.Dir, in.NoGlob, in.NoUnset
	x.Faults = in.Faults
}

// EarlyExpander is the expander planning uses to expand a statement's words
// before the statement runs: the interpreter's own expander — same options,
// same $?, same positional parameters — that can neither assign a variable
// nor run a command substitution. It is valid until the next call.
func (in *Interp) EarlyExpander() *expand.Expander {
	if in.early == nil {
		in.early = new(expand.Expander)
	}
	in.refresh(in.early)
	in.early.Set, in.early.CmdSubst = nil, nil
	return in.early
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
// the declared definitions back afterwards (SetVar). The parent must not
// write its tables until the clone is done with them.
func (in *Interp) Subshell() *Interp { return in.subshell() }

// subshell clones the interpreter state; mutations do not escape. The
// clone shares the variable and function tables and copies one when it
// first writes it; the parent writes neither while the clone lives. It
// shares the positional parameters too: no one writes a parameter list in
// place (set -- makes a new one, shift reslices it).
func (in *Interp) subshell() *Interp {
	return &Interp{
		FS: in.FS, Dir: in.Dir,
		Vars: in.Vars, Funcs: in.Funcs, varsShared: true, funcsShared: true,
		Params: in.Params, Name0: in.Name0,
		Stdin: in.Stdin, Stdout: in.Stdout, Stderr: in.Stderr,
		Status: in.Status, PID: in.PID + 1,
		ErrExit: in.ErrExit, NoGlob: in.NoGlob, NoUnset: in.NoUnset,
		// POSIX resets subshell traps to their defaults (none: Traps is
		// nil); the umask carries over.
		Umask:    in.Umask,
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

// runTrap consumes and runs one trap condition's action. exit in the
// action sets the status the shell leaves with; a return ends the action
// and nothing else — the status stays what it was before the trap, as in
// dash — whether or not a function was running when the trap fired.
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
				case returnSignal:
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

// runPipeline runs a pipeline of two or more stages on the executor's node
// runner, as a chain of nodes each running its stage's compiled closure on
// a subshell clone. The status is the last stage's. A stage that panics
// with anything but a control-flow signal tears the pipeline down, and the
// value is raised again here, once every stage has ended.
func (in *Interp) runPipeline(cmds []syntax.Command, stages []compiled) {
	sp := in.Tracer.Child("interpret:pipeline")
	sp.SetInt("stages", int64(len(stages)))
	nodes := make([]exec.Stage, len(stages))
	for i, stage := range stages {
		if sp != nil {
			nodes[i].Label = syntax.PrintCommand(cmds[i])
		}
		nodes[i].Run = func(stdin io.Reader, stdout, stderr io.Writer) (status int) {
			sub := in.subshell()
			sub.Stdin, sub.Stdout, sub.Stderr, sub.Tracer = stdin, stdout, stderr, sp
			// exit, a return no function caught and a fatal error end the
			// stage alone, with their status.
			defer func() {
				if r := recover(); r != nil {
					if ended, _ := sub.ended(r); !ended {
						panic(r)
					}
				}
				status = sub.Status
			}()
			stage(sub)
			return
		}
	}
	ctx := in.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	status, err := exec.RunStages(ctx, nodes, &exec.Env{Stdin: in.Stdin, Stdout: in.Stdout, Stderr: in.Stderr, Span: sp})
	sp.SetInt("status", int64(status))
	sp.End()
	if err != nil {
		var crash *exec.NodePanic
		if errors.As(err, &crash) {
			panic(crash.Value)
		}
	}
	in.Status = status
}

// runSubshell runs a ( ... ) command on a clone of the interpreter: state
// copy and trap reset dominate its cost, so there is nothing to precompute
// beyond the body's statements, which hit the shared cache.
func (in *Interp) runSubshell(c *syntax.Subshell) {
	sub := in.subshell()
	saved, ok := sub.applyRedirs(c.Redirections)
	if !ok {
		in.Status = 1
		return
	}
	status, err := sub.RunStmts(c.Body)
	sub.restoreRedirs(saved)
	if err != nil {
		panic(fatalError{err})
	}
	in.Status = status
}

const maxLoopIterations = 10_000_000 // guard against runaway scripts in tests

// maxCallDepth bounds function nesting: runaway recursion must end as a
// script error, not as the Go runtime's fatal stack overflow.
const maxCallDepth = 1000

// loopBodyFn runs one loop iteration, or a loop's condition, translating
// break/continue signals: stop says the loop ends, cut that a continue
// ended the run.
func (in *Interp) loopBodyFn(run func()) (stop, cut bool) {
	defer func() {
		if r := recover(); r != nil {
			switch sig := r.(type) {
			case breakSignal:
				stop = true
				if sig.levels > 1 {
					panic(breakSignal{sig.levels - 1})
				}
			case continueSignal:
				cut = true
				if sig.levels > 1 {
					panic(continueSignal{sig.levels - 1})
				}
			default:
				panic(r)
			}
		}
	}()
	run()
	return false, false
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
		in.runUtility(name, fn, fields)
		return
	}
	fmt.Fprintf(in.Stderr, "jash: %s: command not found\n", name)
	in.Status = 127
}

// runUtility runs a registry utility. echo and printf are dash builtins:
// a write of theirs whose reader has gone ends the stage, as a builtin's
// does (Interp.printf). Any other utility only returns
// coreutils.StatusBrokenPipe, and its stage goes on, as a dash subshell
// outlives the external command SIGPIPE ended.
func (in *Interp) runUtility(name string, fn coreutils.Func, fields []string) {
	in.Status = fn(in.coreutilsContext(), fields)
	if in.Status == coreutils.StatusBrokenPipe && (name == "echo" || name == "printf") {
		panic(exitSignal{in.Status})
	}
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

// coreutilsContext returns the invocation context handed to a registry
// utility, refreshed from the interpreter's current streams and directory.
// One context serves every call: a utility returns before the next command
// runs and cannot call back into the shell.
func (in *Interp) coreutilsContext() *coreutils.Context {
	if in.cuGetenv == nil {
		in.cuGetenv = in.Getenv
		in.cuEnviron = in.Environ
	}
	in.cu = coreutils.Context{
		FS:      in.FS,
		Dir:     in.Dir,
		Stdin:   in.Stdin,
		Stdout:  in.Stdout,
		Stderr:  in.Stderr,
		Getenv:  in.cuGetenv,
		Environ: in.cuEnviron,
		Ctx:     in.Ctx,
	}
	return &in.cu
}

func (in *Interp) callFunction(body syntax.Command, fields []string) {
	if in.callDepth >= maxCallDepth {
		in.fatalf("%s: function nesting deeper than %d", fields[0], maxCallDepth)
	}
	in.callDepth++
	// The parameters are the caller's fields, which the argv stack holds
	// while the call runs.
	savedParams := in.Params
	in.Params = fields[1:]
	// The frame's map is made by the first `local` of the call.
	in.localFrames = append(in.localFrames, nil)
	defer func() {
		in.callDepth--
		// Unwind the function's local frame: restore shadowed bindings,
		// remove variables that were unset before the call.
		frame := in.localFrames[len(in.localFrames)-1]
		in.localFrames = in.localFrames[:len(in.localFrames)-1]
		for name, old := range frame {
			in.restoreVar(name, old)
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

// withRedirs applies redirections around run(in, fields), restoring
// streams afterwards.
func (in *Interp) withRedirs(redirs []*syntax.Redirect, run func(*Interp, []string), fields []string) {
	saved, ok := in.applyRedirs(redirs)
	if !ok {
		in.Status = 1
		return
	}
	defer in.restoreRedirs(saved)
	run(in, fields)
}

// streams is what applyRedirs saves for restoreRedirs: the streams before
// the redirections, and the mark on the closers stack they push above.
type streams struct {
	stdin          io.Reader
	stdout, stderr io.Writer
	closers        int
}

// restoreRedirs closes the files the redirections opened, in the order
// they were opened, and restores the streams.
func (in *Interp) restoreRedirs(s streams) {
	for _, cl := range in.closers[s.closers:] {
		cl.Close()
	}
	clear(in.closers[s.closers:])
	in.closers = in.closers[:s.closers]
	in.Stdin, in.Stdout, in.Stderr = s.stdin, s.stdout, s.stderr
}

// redirFault is the injected fault, if any, on opening a redirection's
// target.
func (in *Interp) redirFault(target string) error {
	if in.Faults == nil {
		return nil
	}
	return in.Faults.CheckContained("interp:redir:"+target, faultinject.OpOpen)
}

// applyRedirs mutates the interpreter's streams per the redirections and
// returns what restoreRedirs needs to restore them (and flush outputs).
// ok=false means a redirection failed: the streams are already restored.
func (in *Interp) applyRedirs(redirs []*syntax.Redirect) (saved streams, ok bool) {
	saved = streams{in.Stdin, in.Stdout, in.Stderr, len(in.closers)}
	if len(redirs) == 0 {
		return saved, true
	}
	x := in.expander()
	setWriter := func(fd int, w io.Writer) {
		if fd == 2 {
			in.Stderr = w
		} else {
			in.Stdout = w
		}
	}
	fail := func() (streams, bool) {
		in.restoreRedirs(saved)
		return saved, false
	}
	for _, r := range redirs {
		fd := r.DefaultFD()
		src := r.Target // the target, or a here-document's body
		if r.Op == syntax.RedirHeredoc || r.Op == syntax.RedirHeredocDash {
			src = r.Body
		}
		target, err := x.ExpandString(src)
		if err != nil {
			// A fatal error ends the shell with what this list opened never
			// closed, so no outer restore may close it: it is off the stack
			// while expandFail runs.
			opened := in.closers[saved.closers:]
			in.closers = in.closers[:saved.closers]
			in.expandFail(err)
			in.closers = append(in.closers, opened...)
			return fail()
		}
		switch r.Op {
		case syntax.RedirIn:
			var rc io.ReadCloser
			if err = in.redirFault(target); err == nil {
				rc, err = in.FS.Open(in.lookPath(target))
			}
			if err != nil {
				fmt.Fprintf(in.Stderr, "jash: %s: %v\n", target, err)
				return fail()
			}
			in.closers = append(in.closers, rc)
			in.Stdin = rc
		case syntax.RedirOut, syntax.RedirClobber, syntax.RedirAppend:
			var w io.WriteCloser
			if err = in.redirFault(target); err == nil {
				if r.Op == syntax.RedirAppend {
					w, err = in.FS.Append(in.lookPath(target))
				} else {
					w, err = in.FS.Create(in.lookPath(target))
				}
			}
			if err != nil {
				fmt.Fprintf(in.Stderr, "jash: %s: %v\n", target, err)
				return fail()
			}
			in.closers = append(in.closers, w)
			setWriter(fd, w)
		case syntax.RedirHeredoc, syntax.RedirHeredocDash:
			in.Stdin = strings.NewReader(target)
		case syntax.RedirDupOut:
			switch target {
			case "1":
				setWriter(fd, in.Stdout)
			case "2":
				setWriter(fd, in.Stderr)
			case "-":
				setWriter(fd, io.Discard)
			default:
				fmt.Fprintf(in.Stderr, "jash: bad fd %q\n", target)
				return fail()
			}
		case syntax.RedirDupIn:
			if target == "-" {
				in.Stdin = strings.NewReader("")
			}
		case syntax.RedirInOut:
			p := in.lookPath(target)
			if !in.FS.Exists(p) {
				in.FS.WriteFile(p, nil)
			}
			// Open read-write without truncation. With the default fd 0
			// the command sees the file on stdin; on fd 1/2 it appends.
			if fd == 0 {
				rc, err := in.FS.Open(p)
				if err == nil {
					in.closers = append(in.closers, rc)
					in.Stdin = rc
				}
			} else {
				w, err := in.FS.Append(p)
				if err == nil {
					in.closers = append(in.closers, w)
					setWriter(fd, w)
				}
			}
		}
	}
	return saved, true
}

// lookPath resolves a possibly-relative path against the working dir.
func (in *Interp) lookPath(p string) string {
	if path.IsAbs(p) {
		return path.Clean(p)
	}
	return path.Join(in.Dir, p)
}
