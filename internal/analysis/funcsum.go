// Function effect summaries: the piece that retires the blanket "call to
// a shell function blocks the statement" rule. A FuncSummarizer walks a
// function's body — the abstract interpreter's walk, with the sink in its
// call policy — once per distinct abstract argument vector and produces
// the same StmtSummary shape a plain statement gets — filesystem effects,
// global defs/uses, blockers — with $1..$n bound to the caller's abstract
// argument values. `count() { grep -c alpha "$1" > "$1.n"; }` called as
// `count /w0` therefore summarizes as reads[/w0] writes[/w0.n], which is
// enough for the list parallelizer to prove two calls independent.
//
// The call policy is deliberately narrower than the interpreter: function
// bodies made of sequential simple commands (plus local/return/shift/
// read/readonly and &&/|| chains) summarize precisely; anything gnarlier —
// compound commands, cd, export, traps, recursion, background jobs —
// becomes a blocker and the call site stays in program order. Same posture
// as SummarizeStmt: no regressions, only missed opportunities.
package analysis

import (
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
	globals := SortedNames(ss.Uses)
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
	ss := newStmtSummary()
	defer func() { f.cache[key] = ss }()
	s := &sink{ss: ss, lib: f.Lib, funcs: f, call: true, locals: map[string]bool{}}
	body := f.Body(name)
	bg, isGroup := body.(*syntax.BraceGroup)
	switch {
	case f.visiting[name]:
		// Recursion: the summary would depend on itself; unbounded call
		// depth also defeats the once-per-function costing. Block.
		s.block("recursive call")
		return ss
	case body == nil:
		s.block("unknown function")
		return ss
	case !isGroup:
		s.block("function body is not a brace group")
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
	// Redirections on the body group apply around every call: they are
	// expanded, with the caller's values, before the body runs.
	w := &vwalker{outer: f.Body, sum: s}
	w.widenRedirs(env, bg.Redirections)
	foldRedirs(ss.FS, bg.Redirections, env)
	w.stmts(env, bg.Body)
	if redirectsFD(bg.Redirections, 0) {
		ss.FS.ReadsStdin = false
	}
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
