// Function effect summaries: the piece that retires the blanket "call to
// a shell function blocks the statement" rule. A FuncSummarizer walks a
// function's body once per distinct abstract argument vector and produces
// the same StmtSummary shape a plain statement gets — filesystem effects,
// global defs/uses, blockers — with $1..$n bound to the caller's abstract
// argument values. `count() { grep -c alpha "$1" > "$1.n"; }` called as
// `count /w0` therefore summarizes as reads[/w0] writes[/w0.n], which is
// enough for the list parallelizer to prove two calls independent.
//
// The walker is deliberately narrower than the interpreter: function
// bodies made of sequential simple commands (plus local/return/shift and
// &&/|| chains) summarize precisely; anything gnarlier — compound
// commands, cd, traps, recursion, background jobs — becomes a blocker and
// the call site stays in program order. Same posture as SummarizeStmt:
// no regressions, only missed opportunities.
package analysis

import (
	"fmt"
	"strings"

	"jash/internal/spec"
	"jash/internal/syntax"
)

// FuncSummarizer computes and caches per-function effect summaries.
type FuncSummarizer struct {
	// Lib resolves command names to specs, as in SummarizeStmt.
	Lib *spec.Library
	// Body returns the named function's body, or nil when no such
	// function is defined. Callers back this with the interpreter's
	// function table (core) or a table collected from FuncDecls (lint,
	// rewrite planning).
	Body func(name string) syntax.Command

	cache    map[string]*StmtSummary
	visiting map[string]bool
}

// NewFuncSummarizer builds a summarizer over the given function table.
func NewFuncSummarizer(lib *spec.Library, body func(name string) syntax.Command) *FuncSummarizer {
	return &FuncSummarizer{
		Lib:      lib,
		Body:     body,
		cache:    map[string]*StmtSummary{},
		visiting: map[string]bool{},
	}
}

// Known reports whether name resolves to a defined function.
func (f *FuncSummarizer) Known(name string) bool {
	return f != nil && f.Body != nil && f.Body(name) != nil
}

// Call returns the effect summary of invoking the named function with
// the given abstract positional arguments ($1..$n). argsKnown=false
// means even the argument count is unknown, so every positional is ⊤.
// The global variables the body uses start at their values in caller, the
// environment at the call site (nil: ⊤), as dynamic scoping has it.
// Results are cached per (name, abstract args, those values) and shared:
// callers must not mutate the returned summary.
func (f *FuncSummarizer) Call(name string, args []AbsVal, argsKnown bool, caller *Env) *StmtSummary {
	ss := f.call(name, args, argsKnown, nil, nil)
	if caller == nil || len(ss.Blockers) > 0 {
		return ss
	}
	globals := sortedNames(ss.Uses)
	vals := make([]AbsVal, len(globals))
	known := false
	for i, g := range globals {
		vals[i] = caller.Resolve(g)
		known = known || vals[i].Kind != AbsTop
	}
	if !known {
		return ss
	}
	return f.call(name, args, argsKnown, globals, vals)
}

// call summarizes one call with the globals bound to vals.
func (f *FuncSummarizer) call(name string, args []AbsVal, argsKnown bool, globals []string, vals []AbsVal) *StmtSummary {
	key := callKey(name, args, argsKnown) + "\x00" + callKey(strings.Join(globals, "\x00"), vals, true)
	if s, ok := f.cache[key]; ok {
		return s
	}
	ss := &StmtSummary{FS: NewSummary(), Defs: map[string]bool{}, Uses: map[string]bool{}}
	block := func(format string, a ...interface{}) {
		ss.Blockers = append(ss.Blockers, fmt.Sprintf(format, a...))
	}
	if f.visiting[name] {
		// Recursion: the summary would depend on itself; unbounded call
		// depth also defeats the once-per-function costing. Block.
		block("recursive call")
		f.cache[key] = ss
		return ss
	}
	body := f.Body(name)
	if body == nil {
		block("unknown function")
		f.cache[key] = ss
		return ss
	}
	bg, ok := body.(*syntax.BraceGroup)
	if !ok {
		block("function body is not a brace group")
		f.cache[key] = ss
		return ss
	}
	f.visiting[name] = true
	defer delete(f.visiting, name)

	env := NewEnv(nil)
	if argsKnown {
		env.SetParams(args)
	}
	for i, g := range globals {
		env.Bind(g, vals[i])
	}
	w := &fnWalker{
		f:      f,
		ss:     ss,
		env:    env,
		locals: map[string]bool{},
		block:  block,
	}
	w.stmts(bg.Body)
	// Redirections on the body group apply around every call.
	foldRedirs(ss.FS, bg.Redirections, env)
	if redirectsFD(bg.Redirections, 0) {
		ss.FS.ReadsStdin = false
	}
	f.cache[key] = ss
	return ss
}

// callKey encodes one (function, abstract args) cache key.
func callKey(name string, args []AbsVal, argsKnown bool) string {
	var b strings.Builder
	b.WriteString(name)
	if !argsKnown {
		b.WriteString("\x00?")
		return b.String()
	}
	for _, a := range args {
		b.WriteByte(0)
		b.WriteByte(byte('0' + a.Kind))
		b.WriteString(a.Str)
	}
	return b.String()
}

// AbsCallArgs resolves a call site's argument words to abstract values.
// ok=false means the field structure itself is unprovable (the arity is
// unknown), in which case the callee must assume arbitrary ⊤ positionals.
func AbsCallArgs(sc *syntax.SimpleCommand, env *Env) (args []AbsVal, ok bool) {
	if env == nil {
		return nil, false
	}
	for _, wrd := range sc.Args[1:] {
		fields, exact := FieldsOf(wrd, env)
		if !exact {
			return nil, false
		}
		for _, fld := range fields {
			if fld.Globbable {
				return nil, false
			}
			args = append(args, fld.Val)
		}
	}
	return args, true
}

// fnWalker walks one function body, unioning effects into ss and
// threading the function-scoped abstract environment.
type fnWalker struct {
	f   *FuncSummarizer
	ss  *StmtSummary
	env *Env
	// locals are names declared `local` so far: their defs and uses stay
	// inside the call frame and do not appear in the summary. (Dynamic
	// scoping means a callee's use of a caller-local also resolves
	// locally; the filter matches that.)
	locals map[string]bool
	block  func(string, ...interface{})
	// conditional is set while walking &&/|| continuations, where a
	// `local` declaration may or may not run — too ambiguous to track.
	conditional bool
}

func (w *fnWalker) stmts(list []*syntax.Stmt) {
	for _, st := range list {
		w.stmt(st)
	}
}

func (w *fnWalker) stmt(st *syntax.Stmt) {
	if st == nil || st.AndOr == nil || st.AndOr.First == nil {
		return
	}
	if st.Background {
		w.block("background job in body")
		return
	}
	w.pipeline(st.AndOr.First)
	for _, part := range st.AndOr.Rest {
		// &&/|| continuations run conditionally: walk on a clone and
		// join, like a branch.
		saved := w.env
		w.env = saved.Clone()
		wasCond := w.conditional
		w.conditional = true
		w.pipeline(part.Pipe)
		w.conditional = wasCond
		br := w.env
		w.env = saved
		w.env.JoinWith(br)
	}
}

func (w *fnWalker) pipeline(pl *syntax.Pipeline) {
	if pl == nil {
		return
	}
	multi := len(pl.Cmds) > 1
	for ci, cmd := range pl.Cmds {
		sc, ok := cmd.(*syntax.SimpleCommand)
		if !ok {
			w.block("compound command in body")
			continue
		}
		if multi {
			// Pipeline stages run in subshell copies: env changes and
			// defs are discarded.
			saved := w.env
			w.env = saved.Clone()
			w.simple(sc, ci, multi)
			w.env = saved
		} else {
			w.simple(sc, ci, multi)
		}
	}
}

func (w *fnWalker) simple(sc *syntax.SimpleCommand, ci int, multi bool) {
	// Variable uses and expansion-time defs, with the order-sensitive
	// special parameters blocked, then filtered through the local frame.
	tmp := &StmtSummary{FS: NewSummary(), Defs: map[string]bool{}, Uses: map[string]bool{}}
	summarizeStmtVars(tmp, sc, w.env, w.block)
	for n := range tmp.Uses {
		if !w.locals[n] {
			w.ss.Uses[n] = true
		}
	}
	for n := range tmp.Defs {
		w.def(n, multi)
	}

	// env transfer after effects, pre-state reads
	defer (&vwalker{outer: w.f.Body}).simple(w.env, sc)

	if len(sc.Args) == 0 {
		// Bare assignment: defs recorded above; only redirections touch
		// the filesystem.
		foldRedirs(w.ss.FS, sc.Redirections, w.env)
		return
	}

	row, name, builtin := builtinOf(sc)
	if builtin {
		w.builtin(sc, row, name, ci, multi)
		return
	}
	var sum *Summary
	if w.f.Known(name) {
		// Nested call: summarize the callee under this site's abstract
		// arguments and fold its summary in.
		args, known := AbsCallArgs(sc, w.env)
		sub := w.f.Call(name, args, known, callerEnv(sc, w.env))
		for _, b := range sub.Blockers {
			w.block("%s: %s", name, b)
		}
		sum = NewSummary()
		sum.Union(sub.FS)
		foldRedirs(sum, sc.Redirections, w.env)
		for n := range sub.Defs {
			w.def(n, multi)
		}
		for n := range sub.Uses {
			if !w.locals[n] {
				w.ss.Uses[n] = true
			}
		}
	} else {
		sum = SummarizeCommandEnv(sc, w.f.Lib, w.env)
	}
	if ci > 0 || redirectsFD(sc.Redirections, 0) {
		sum.ReadsStdin = false
	}
	w.ss.FS.Union(sum)
}

// def records a definition that outlives the call: not a local, and not
// made in a pipeline stage's subshell.
func (w *fnWalker) def(name string, multi bool) {
	if !w.locals[name] && !multi {
		w.ss.Defs[name] = true
	}
}

// builtin folds in a builtin the table allows inside a summarizable
// function body; the rest block the call site.
func (w *fnWalker) builtin(sc *syntax.SimpleCommand, row builtinRow, name string, ci int, multi bool) {
	foldRedirs(w.ss.FS, sc.Redirections, w.env)
	if row.blocker != "" && !row.inCall {
		w.block("%s %s", name, row.blocker)
		return
	}
	if row.stdin && ci == 0 && !redirectsFD(sc.Redirections, 0) {
		w.ss.FS.ReadsStdin = true
	}
	ops, exact := row.operands(sc)
	if !exact {
		w.block("dynamic %s name", name)
		return
	}
	if row.def == DefLocal && (w.conditional || multi) {
		w.block("conditionally-scoped local")
		return
	}
	for _, op := range ops {
		if row.def == DefLocal {
			w.locals[op.name] = true
		} else {
			w.def(op.name, multi)
		}
	}
}
