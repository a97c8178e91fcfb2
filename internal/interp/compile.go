// Closure compilation of the evaluator: statements, words, and command
// dispatch are lowered into closures the first time a node is executed and
// cached, so loop and function bodies pay dispatch, word lowering, and
// redirect-plan construction once instead of on every iteration (the
// jq-paper "compile, don't tree-walk" discipline). The closures take the
// *Interp as a parameter rather than capturing state, so one compiled
// program serves every subshell and pipeline-stage clone sharing the cache.
//
// This is the only evaluator: control flow, set -e, traps, redirections and
// the break/continue/exit/return signals have one implementation, and a
// word has one, expand.Run. What compiling saves is confined to three
// places — each word's expand.Plan, lowered once and cached with its
// statement, the argv stack a word list's fields are pushed on, and
// compileDispatch's pre-resolved builtin/utility pointers — and
// Interp.NoCompile turns exactly those off: every word is compiled afresh
// into a field list of its own, and every command goes through
// in.dispatch. That run is the reference the differential tests and the
// fuzzer's `plain` oracle compare the optimised run against. The benchmark
// times it as interp.walk_script_ms (and interp.compile_speedup divides by
// it), a name kept from when a separate tree-walking evaluator was the
// reference; none remains.
package interp

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	"jash/internal/expand"
	"jash/internal/pattern"
	"jash/internal/syntax"
)

// compiled is one lowered program fragment, executed against the current
// interpreter state.
type compiled func(in *Interp)

// progCache memoizes compiled fragments per AST node. AST nodes are
// immutable after parse and pipeline stages execute on goroutine clones
// sharing the cache, so a concurrent write-once map is the right shape.
type progCache struct {
	stmts sync.Map // *syntax.Stmt   -> compiled
	cmds  sync.Map // syntax.Command -> compiled (function bodies)
}

// prog returns the interpreter's compilation cache, creating it on first
// use for Interps built by hand rather than New.
func (in *Interp) prog() *progCache {
	if in.cache == nil {
		in.cache = &progCache{}
	}
	return in.cache
}

// compiledStmt returns the cached compilation of a statement, compiling on
// first encounter.
func (in *Interp) compiledStmt(st *syntax.Stmt) compiled {
	cache := in.prog()
	if v, ok := cache.stmts.Load(st); ok {
		return v.(compiled)
	}
	fn := compileStmt(st)
	cache.stmts.Store(st, fn)
	return fn
}

// compiledCommand returns the cached compilation of a bare command node —
// function bodies, which re-run on every call.
func (in *Interp) compiledCommand(cmd syntax.Command) compiled {
	cache := in.prog()
	if v, ok := cache.cmds.Load(cmd); ok {
		return v.(compiled)
	}
	fn := compileCommand(cmd)
	cache.cmds.Store(cmd, fn)
	return fn
}

func compileStmt(st *syntax.Stmt) compiled {
	if !st.Background {
		return compileAndOr(st.AndOr)
	}
	// A background list runs to completion first (the interpreter is
	// deterministic), but in a subshell: $?, variables, cd and exit stay there.
	job := []*syntax.Stmt{{AndOr: st.AndOr, Position: st.Position}}
	return func(in *Interp) {
		sub := in.subshell()
		if _, err := sub.RunStmts(job); err != nil {
			panic(fatalError{err})
		}
		sub.RunExitTrap()
	}
}

func compileAndOr(ao *syntax.AndOr) compiled {
	first := compilePipeline(ao.First, len(ao.Rest) > 0)
	if len(ao.Rest) == 0 {
		return first
	}
	type part struct {
		op syntax.AndOrOp
		fn compiled
	}
	parts := make([]part, len(ao.Rest))
	for i, p := range ao.Rest {
		guarded := i < len(ao.Rest)-1
		parts[i] = part{p.Op, compilePipeline(p.Pipe, guarded)}
	}
	return func(in *Interp) {
		first(in)
		for _, p := range parts {
			if p.op == syntax.AndOp && in.Status != 0 {
				continue
			}
			if p.op == syntax.OrOp && in.Status == 0 {
				continue
			}
			p.fn(in)
		}
	}
}

// Refused is the status an Observer declines a pipeline with to say the
// refusal is final: that pipeline is never offered to it again.
const Refused = -1

// compilePipeline lowers a pipeline: the observer-offer statement is built
// once, stages compile once, and the set -e guard is a precomputed constant.
// An offer the observer refuses for good is not made again; the flag is
// atomic because pipeline-stage clones run the same closure concurrently.
func compilePipeline(pl *syntax.Pipeline, guarded bool) compiled {
	errGuard := guarded || pl.Negated
	negated := pl.Negated
	canOffer := !pl.Negated && len(pl.Cmds) >= 1
	offer := &syntax.Stmt{AndOr: &syntax.AndOr{First: pl}, Position: pl.Position}
	var refused atomic.Bool
	var single compiled
	var stages []compiled
	if len(pl.Cmds) == 1 {
		single = compileCommand(pl.Cmds[0])
	} else {
		stages = make([]compiled, len(pl.Cmds))
		for i, cmd := range pl.Cmds {
			stages[i] = compileCommand(cmd)
		}
	}
	return func(in *Interp) {
		if in.Observer != nil && canOffer && !refused.Load() {
			status, handled := in.Observer(in, offer)
			if handled {
				in.Status = status
				in.maybeErrExit(errGuard)
				return
			}
			if status == Refused {
				refused.Store(true)
			}
		}
		if single != nil {
			single(in)
		} else {
			in.runPipeline(pl.Cmds, stages)
		}
		if negated {
			if in.Status == 0 {
				in.Status = 1
			} else {
				in.Status = 0
			}
		}
		in.maybeErrExit(errGuard)
	}
}

func compileCommand(cmd syntax.Command) compiled {
	switch c := cmd.(type) {
	case *syntax.SimpleCommand:
		return compileSimple(c)
	case *syntax.Subshell:
		return func(in *Interp) { in.runSubshell(c) }
	case *syntax.BraceGroup:
		return withCompiledRedirs(c.Redirections, compileList(c.Body))
	case *syntax.IfClause:
		return withCompiledRedirs(c.Redirections, compileIf(c))
	case *syntax.WhileClause:
		return withCompiledRedirs(c.Redirections, compileWhile(c))
	case *syntax.ForClause:
		return withCompiledRedirs(c.Redirections, compileFor(c))
	case *syntax.CaseClause:
		return withCompiledRedirs(c.Redirections, compileCase(c))
	case *syntax.FuncDecl:
		return func(in *Interp) {
			in.defineFunc(c.Name, c.Body)
			in.Status = 0
		}
	default:
		return func(in *Interp) { in.fatalf("unknown command node %T", cmd) }
	}
}

// withCompiledRedirs wraps a compiled body with redirection handling; the
// common no-redirection case costs nothing per run.
func withCompiledRedirs(redirs []*syntax.Redirect, body compiled) compiled {
	if len(redirs) == 0 {
		return body
	}
	run := func(in *Interp, _ []string) { body(in) }
	return func(in *Interp) { in.withRedirs(redirs, run, nil) }
}

// compileList lowers a statement list; an empty list resets $? to 0.
func compileList(stmts []*syntax.Stmt) compiled {
	if len(stmts) == 0 {
		return func(in *Interp) { in.Status = 0 }
	}
	fns := make([]compiled, len(stmts))
	for i, st := range stmts {
		fns[i] = compileStmt(st)
	}
	if len(fns) == 1 {
		return fns[0]
	}
	return func(in *Interp) {
		for _, fn := range fns {
			fn(in)
		}
	}
}

// compileCond lowers a loop/if condition list: set -e is suppressed while
// the condition runs.
func compileCond(stmts []*syntax.Stmt) compiled {
	body := compileList(stmts)
	return func(in *Interp) {
		saved := in.ErrExit
		in.ErrExit = false
		defer func() { in.ErrExit = saved }() // break and continue unwind it
		body(in)
	}
}

func compileIf(c *syntax.IfClause) compiled {
	cond := compileCond(c.Cond)
	then := compileList(c.Then)
	var alt compiled
	if len(c.Else) > 0 {
		alt = compileList(c.Else)
	}
	return func(in *Interp) {
		cond(in)
		if in.Status == 0 {
			then(in)
			return
		}
		if alt != nil {
			alt(in)
			return
		}
		in.Status = 0
	}
}

func compileWhile(c *syntax.WhileClause) compiled {
	cond := compileCond(c.Cond)
	body := compileList(c.Body)
	until := c.Until
	return func(in *Interp) {
		in.loopDepth++
		defer func() { in.loopDepth-- }()
		iterations := 0
		for {
			// break and continue in the condition act on this loop, as
			// in the body: a continue there skips the body.
			stop, cut := in.loopBodyFn(func() { cond(in) })
			switch {
			case stop:
				in.Status = 0
				return
			case cut:
			case (in.Status == 0) == until:
				in.Status = 0
				return
			default:
				if stop, _ := in.loopBodyFn(func() { body(in) }); stop {
					return
				}
			}
			iterations++
			if iterations > maxLoopIterations {
				in.fatalf("loop exceeded %d iterations", maxLoopIterations)
			}
		}
	}
}

func compileFor(c *syntax.ForClause) compiled {
	body := compileList(c.Body)
	name := c.Name
	words, inPresent := compileWordList(c.Words), c.InPresent
	return func(in *Interp) {
		// The items live on the argv stack, below the body's commands,
		// until the loop ends.
		defer in.popArgv(len(in.argv))
		var items []string
		if inPresent {
			fields, err := words.expand(in, in.expander())
			if err != nil {
				in.expandFail(err)
				return
			}
			items = fields
		} else {
			items = in.Params // set -- in the body makes a new list
		}
		in.loopDepth++
		defer func() { in.loopDepth-- }()
		for _, item := range items {
			in.mustAssign(name, item)
			if stop, _ := in.loopBodyFn(func() { body(in) }); stop {
				return
			}
		}
		if len(items) == 0 {
			in.Status = 0
		}
	}
}

func compileCase(c *syntax.CaseClause) compiled {
	type arm struct {
		words    []*syntax.Word
		patterns []expand.Plan
		body     compiled
	}
	arms := make([]arm, len(c.Items))
	for i, item := range c.Items {
		arms[i] = arm{item.Patterns, make([]expand.Plan, len(item.Patterns)), compileList(item.Body)}
		for j, w := range item.Patterns {
			arms[i].patterns[j] = expand.Compile(w)
		}
	}
	subject := expand.Compile(c.Word)
	return func(in *Interp) {
		// The arm runs with the $? from before the case, as in dash: a
		// command substitution in the word or a pattern does not change it.
		status := in.Status
		x := in.expander()
		w, err := in.str(x, &subject, c.Word, expand.String)
		if err != nil {
			in.expandFail(err)
			return
		}
		for _, a := range arms {
			for i := range a.patterns {
				pat, err := in.str(x, &a.patterns[i], a.words[i], expand.Pattern)
				if err != nil {
					in.expandFail(err)
					return
				}
				if pattern.Match(pat, w) {
					in.Status = status
					a.body(in)
					return
				}
			}
		}
		in.Status = 0
	}
}

// --- words ---

// str expands w, whose plan is p, to one string in String or Pattern mode:
// through the plan, or compiled afresh under NoCompile.
func (in *Interp) str(x *expand.Expander, p *expand.Plan, w *syntax.Word, m expand.Mode) (string, error) {
	switch {
	case !in.NoCompile:
		return x.RunString(p, m)
	case m == expand.Pattern:
		return x.ExpandPattern(w)
	}
	return x.ExpandString(w)
}

// wordList is a word list with the plan of each word; fixed, when not
// nil, is its fields, every word being expand.Plan.Fixed.
type wordList struct {
	ws    []*syntax.Word
	plans []expand.Plan
	fixed []string
}

func compileWordList(ws []*syntax.Word) wordList {
	l := wordList{ws: ws, plans: make([]expand.Plan, len(ws))}
	var buf [8]string
	fixed, ok := buf[:0], true
	for i, w := range ws {
		l.plans[i] = expand.Compile(w)
		if ok {
			fixed, ok = l.plans[i].Fixed(fixed)
		}
	}
	if ok {
		l.fixed = make([]string, len(fixed))
		copy(l.fixed, fixed)
	}
	return l
}

// expand produces the list's fields through x, the command's one expander,
// so that the command sees one snapshot of $? however many of its words
// read it. The fields of a dynamic list are pushed on in.argv: the caller
// pops them (popArgv) back to the length it saw before the call, when it
// is done with them. Under NoCompile every word is compiled afresh, into
// a list of its own.
func (l wordList) expand(in *Interp, x *expand.Expander) ([]string, error) {
	switch {
	case in.NoCompile:
		return x.ExpandWords(l.ws)
	case l.fixed != nil:
		return l.fixed, nil
	}
	mark := len(in.argv)
	for i := range l.plans {
		var err error
		if in.argv, err = x.Run(&l.plans[i], expand.Fields, in.argv); err != nil {
			return nil, err
		}
	}
	n := len(in.argv)
	return in.argv[mark:n:n], nil
}

// --- simple commands ---

type assignPlan struct {
	name  string
	value *syntax.Word
	plan  expand.Plan
}

// compileSimple lowers a simple command: word plans, assignment plans, and
// — when the command name is a plain literal — the dispatch decision are
// computed once.
func compileSimple(c *syntax.SimpleCommand) compiled {
	assigns := make([]assignPlan, len(c.Assigns))
	for i, a := range c.Assigns {
		assigns[i] = assignPlan{a.Name, a.Value, expand.Compile(a.Value)}
	}
	redirs := c.Redirections

	// Assignment-only command: assignments persist.
	if len(c.Args) == 0 {
		return func(in *Interp) {
			x := in.expander()
			for i := range assigns {
				a := &assigns[i]
				val, err := in.str(x, &a.plan, a.value, expand.String)
				if err != nil {
					in.expandFail(err)
					return
				}
				in.mustAssign(a.name, val)
			}
			saved, ok := in.applyRedirs(redirs)
			if ok {
				in.restoreRedirs(saved)
			}
			if len(assigns) > 0 || ok {
				in.Status = 0
			}
		}
	}

	words := compileWordList(c.Args)
	dispatch := compileDispatch(c)
	hasAssigns := len(assigns) > 0
	hasRedirs := len(redirs) > 0
	return func(in *Interp) {
		// The fields live on the argv stack until the command returns or
		// a signal unwinds it.
		defer in.popArgv(len(in.argv))
		x := in.expander()
		fields, err := words.expand(in, x)
		if err != nil {
			in.expandFail(err)
			return
		}
		if len(fields) == 0 {
			in.Status = 0
			return
		}
		if in.XTrace {
			fmt.Fprintf(in.Stderr, "+ %s\n", strings.Join(fields, " "))
		}
		var savedVars map[string]*Variable
		if hasAssigns {
			// Before a special builtin the assignments persist (POSIX
			// 2.14); before anything else they scope to the command.
			special := syntax.ClassOf(fields[0]) == syntax.SpecialBuiltin
			if !special {
				savedVars = map[string]*Variable{}
			}
			for i := range assigns {
				a := &assigns[i]
				val, err := in.str(x, &a.plan, a.value, expand.String)
				if err != nil {
					in.expandFail(err)
					return
				}
				if special {
					in.mustAssign(a.name, val)
					continue
				}
				if old, ok := in.Vars[a.name]; ok {
					saved := old
					savedVars[a.name] = &saved
				} else {
					savedVars[a.name] = nil
				}
				in.mustAssign(a.name, val) // a readonly target ends the shell
				in.SetVar(a.name, Variable{Value: val, Exported: true})
			}
		}
		if hasRedirs {
			in.withRedirs(redirs, dispatch, fields)
		} else {
			dispatch(in, fields)
		}
		for name, old := range savedVars {
			in.restoreVar(name, old)
		}
	}
}

// compileDispatch pre-resolves what a plain literal command name runs
// without a function, which leaves one map lookup, the function table's,
// to run time (none for a special builtin). If the expanded name diverges
// from the literal (exotic IFS, a glob match), or NoCompile is set, the
// full lookup runs instead.
func compileDispatch(c *syntax.SimpleCommand) func(*Interp, []string) {
	name := c.Name()
	if name == "" {
		return (*Interp).dispatch
	}
	s := lookup(name)
	return func(in *Interp, fields []string) {
		switch {
		case fields[0] != name || in.NoCompile:
			in.dispatch(fields)
		case !in.dispatchFault(name):
			in.run(s, fields)
		}
	}
}
