package analysis

import (
	"fmt"
	"sort"
	"strings"

	"jash/internal/spec"
	"jash/internal/syntax"
)

// StmtSummary aggregates what the list parallelizer needs to know about
// one top-level statement: its filesystem effects, the shell variables it
// persistently defines and reads, and the reasons (if any) it must stay in
// program order. A statement with a non-empty Blockers list never enters a
// concurrent region; two blocker-free statements may run concurrently when
// Interferes finds no variable or filesystem hazard between them.
type StmtSummary struct {
	// FS is the statement's filesystem effect summary (paths as written;
	// callers Normalize against the working directory before comparing).
	FS *Summary
	// Defs are variables the statement assigns in the parent shell
	// (plain assignments and ${x=w}); Uses are variables it expands.
	// Temp-env assignments (`FOO=1 cmd`) do not define: they scope to the
	// one command, unless it is a special builtin.
	Defs map[string]bool
	// Uses are the variables the statement's expansions read.
	Uses map[string]bool
	// Blockers are human-readable reasons the statement cannot leave
	// program order: control flow, state-mutating builtins, ⊤ effects,
	// order-sensitive special parameters. Empty means eligible.
	Blockers []string
	// CdOnly marks a statement that is exactly a `cd` command — the case
	// the JSH405 lint singles out, since removing it (absolute paths)
	// often unblocks a whole region.
	CdOnly bool
}

// Eligible reports whether the statement may leave program order.
func (ss *StmtSummary) Eligible() bool { return len(ss.Blockers) == 0 }

// StmtOptions parameterizes SummarizeStmtOpts with the abstract-
// interpretation context.
type StmtOptions struct {
	// Lib resolves command names to specs.
	Lib *spec.Library
	// Env is the abstract environment at this statement's program point;
	// nil means all-⊤ (no value knowledge). SummarizeStmtOpts advances it
	// past the statement.
	Env *Env
	// Funcs, when non-nil, summarizes the calls to the functions FuncBody
	// knows; when nil, such a call pins the statement.
	Funcs *FuncSummarizer
	// FuncBody resolves the functions the statement may call (nil: none
	// is known). It may be set when Funcs is not: a stale function table
	// still says what a call may assign.
	FuncBody func(name string) syntax.Command
}

// SummarizeStmt analyzes one top-level statement for the list
// parallelizer. It is deliberately conservative: anything it cannot prove
// safe becomes a blocker, and the statement simply runs sequentially —
// the same "no regressions, only missed opportunities" posture the JIT's
// other gates take.
func SummarizeStmt(st *syntax.Stmt, lib *spec.Library) *StmtSummary {
	return SummarizeStmtOpts(st, StmtOptions{Lib: lib})
}

// SummarizeStmtOpts is SummarizeStmt with value flow: dynamic words
// resolve through opts.Env, and calls to functions known to opts.Funcs
// fold in the callee's parameterized effect summary rather than
// blocking. It is the abstract interpreter's walk of the statement with a
// sink, so it leaves opts.Env as the statement leaves the shell.
func SummarizeStmtOpts(st *syntax.Stmt, opts StmtOptions) *StmtSummary {
	ss := newStmtSummary()
	s := &sink{ss: ss, lib: opts.Lib, funcs: opts.Funcs}
	if st == nil || st.AndOr == nil || st.AndOr.First == nil {
		s.block("empty statement")
		return ss
	}
	env := opts.Env
	if env == nil {
		env = NewEnv(nil)
	}
	(&vwalker{outer: opts.FuncBody, sum: s}).stmt(env, st)
	if ss.FS.Unknown != 0 {
		s.block("⊤ effect: %s", ss.FS.Unknown)
	}
	if ss.FS.ReadsStdin {
		s.block("reads shared stdin")
	}
	return ss
}

func newStmtSummary() *StmtSummary {
	return &StmtSummary{FS: NewSummary(), Defs: map[string]bool{}, Uses: map[string]bool{}}
}

// sink folds the effects of the simple commands a walk reaches into one
// summary: each command's filesystem summary (SummarizeCommandEnv, or the
// callee's for a call to a known function) and its builtin's blocker,
// against the environment just before the command runs, and the variables
// its words read and assign, with the blockers they raise, as the walk's
// word analysis meets them. The walk also calls it at each point the
// policy decides: a background job, an &&/|| list, a compound command.
type sink struct {
	ss    *StmtSummary
	lib   *spec.Library
	funcs *FuncSummarizer // nil: a call pins the statement
	// call is the policy: the walk is of a function body a call reached,
	// not of a top-level statement. The builtin blockers the table marks
	// inCall lift, &&/|| continuations are admitted, and what ends with
	// the call frame — a local, a pipeline stage's assignment — stays out
	// of the summary.
	call   bool
	locals map[string]bool // names declared local so far
	// stage and multi place the command in its pipeline; conditional is
	// set in an &&/|| continuation, which may not run.
	stage       int
	multi       bool
	conditional bool
}

// block records a blocker; like def and use, it is a no-op on a nil sink.
func (s *sink) block(format string, args ...interface{}) {
	if s != nil {
		s.ss.Blockers = append(s.ss.Blockers, fmt.Sprintf(format, args...))
	}
}

// background records a background job and reports whether its commands
// are still collected.
func (s *sink) background() bool {
	if s.call {
		s.block("background job in body")
		return false
	}
	s.block("background job (&)")
	return true
}

// admitAndOr reports whether an &&/|| list's continuations are collected,
// recording the blocker when they are not.
func (s *sink) admitAndOr() bool {
	if !s.call {
		s.block("&&/|| list is control flow on exit status")
	}
	return s.call
}

func (s *sink) compound() {
	if s.call {
		s.block("compound command in body")
	} else {
		s.block("compound command in pipeline")
	}
}

// simple folds one simple command's filesystem effects and blockers; c is
// what it runs, when it has a command word. It reports a builtin whose
// blocker lifted in a call, which defines or declares its operands
// (operands, once its words are read).
func (s *sink) simple(env *Env, sc *syntax.SimpleCommand, c *command) (declares bool) {
	sum, declares := s.command(env, sc, c)
	// Inner pipeline stages read the pipe, not the terminal: only the
	// first command's stdin appetite matters, and a redirection over
	// fd 0 satisfies it from a file instead.
	if s.stage > 0 || redirectsFD(sc.Redirections, 0) {
		sum.ReadsStdin = false
	}
	s.ss.FS.Union(sum)
	return declares
}

// command is one simple command's filesystem summary; it records the
// command's blockers.
func (s *sink) command(env *Env, sc *syntax.SimpleCommand, c *command) (sum *Summary, declares bool) {
	if len(sc.Args) == 0 {
		// A bare assignment runs no command: only its redirections (and
		// value-word expansions) touch the world.
		sum := NewSummary()
		foldRedirs(sum, sc.Redirections, env)
		return sum, false
	}
	switch {
	case c.builtin:
		declares = s.call && (c.row.blocker == "" || c.row.inCall)
		if !declares && c.row.blocker != "" {
			s.block("%s %s", c.name, c.row.blocker)
		}
		// The statement is this cd and nothing else: no other blocker yet.
		if c.name == "cd" && !s.call && !s.multi && len(sc.Redirections)+len(sc.Assigns) == 0 && len(s.ss.Blockers) == 1 {
			s.ss.CdOnly = true
		}
	case c.body != nil && s.funcs != nil:
		return s.callee(env, sc, c.name), false
	case c.body != nil:
		s.block("%s is a shell function", c.name)
	}
	return SummarizeCommandEnv(sc, s.lib, env), declares
}

// operands records the variables a builtin whose blocker lifted in a call
// declares or defines.
func (s *sink) operands(sc *syntax.SimpleCommand, c *command) {
	ops, exact := c.row.operands(sc)
	if !exact {
		s.block("dynamic %s name", c.name)
		return
	}
	if c.row.def == DefLocal && (s.conditional || s.multi) {
		s.block("conditionally-scoped local")
		return
	}
	for _, op := range ops {
		if c.row.def == DefLocal {
			s.locals[op.name] = true
		} else {
			s.def(op.name)
		}
	}
}

// callee folds in a call to a known function: its summary under this
// site's abstract arguments, and the call's redirections.
func (s *sink) callee(env *Env, sc *syntax.SimpleCommand, name string) *Summary {
	args, known := AbsCallArgs(sc, env)
	caller := env
	if len(sc.Assigns) > 0 {
		// `x=v f` runs f with x bound to v, which env does not show.
		caller = nil
	}
	sub := s.funcs.Call(name, args, known, caller)
	for _, b := range sub.Blockers {
		s.block("function %s: %s", name, b)
	}
	sum := NewSummary() // the cached summary is shared: copy
	sum.Union(sub.FS)
	foldRedirs(sum, sc.Redirections, env)
	for n := range sub.Defs {
		s.def(n)
	}
	for n := range sub.Uses {
		s.use(n)
	}
	return sum
}

// def records a definition that outlives the walk: not a local, and, in a
// call, not made in a pipeline stage's subshell.
func (s *sink) def(name string) {
	if s != nil && !s.locals[name] && !(s.call && s.multi) {
		s.ss.Defs[name] = true
	}
}

// use records a read of a variable that is not a local.
func (s *sink) use(name string) {
	if s != nil && !s.locals[name] {
		s.ss.Uses[name] = true
	}
}

// read records a variable a word reads, blocking on the order-sensitive
// special parameters. Positional and the remaining special parameters
// ($1, $@, $#...) are read-only here: mutating them takes set/shift,
// which block the mutating statement itself.
func (s *sink) read(name string) {
	switch {
	case s == nil:
	case name == "?":
		s.block("$? depends on the preceding statement's status")
	case name == "!":
		s.block("$! depends on background job order")
	case name == "$":
		s.block("$$ differs between worker and parent shells")
	case syntax.IsName(name):
		s.use(name)
	}
}

// divides reports an arithmetic expansion in w that divides: a division
// by zero ends the shell, which a statement run out of program order
// cannot do before the statements after it have run.
func divides(w *syntax.Word) bool {
	found := false
	syntax.Walk(w, func(n syntax.Node) bool {
		a, ok := n.(*syntax.ArithExp)
		found = found || ok && strings.ContainsAny(a.Expr, "/%")
		return !found
	})
	return found
}

// redirectsFD reports whether any redirection covers the descriptor.
func redirectsFD(rs []*syntax.Redirect, fd int) bool {
	for _, r := range rs {
		if r.DefaultFD() == fd {
			return true
		}
	}
	return false
}

// Interferes reports the hazards that forbid running statement a before-or-
// concurrently-with statement b out of program order: variable def/use
// overlaps and filesystem conflicts. dir resolves relative paths. A nil
// result is the non-interference proof the region builder requires — it
// means the two statements commute.
func Interferes(a, b *StmtSummary, aLabel, bLabel, dir string) []Hazard {
	var hs []Hazard
	for _, v := range SortedNames(a.Defs) {
		if b.Defs[v] {
			hs = append(hs, Hazard{Kind: WriteWrite, Path: "$" + v, A: aLabel, B: bLabel})
		} else if b.Uses[v] {
			hs = append(hs, Hazard{Kind: ReadWrite, Path: "$" + v, A: aLabel, B: bLabel})
		}
	}
	for _, v := range SortedNames(b.Defs) {
		if a.Uses[v] && !a.Defs[v] {
			hs = append(hs, Hazard{Kind: ReadWrite, Path: "$" + v, A: bLabel, B: aLabel})
		}
	}
	hs = append(hs, Conflicts(a.FS.Normalize(dir), b.FS.Normalize(dir), aLabel, bLabel)...)
	return hs
}

// SortedNames lists a map's keys in order.
func SortedNames[V any](m map[string]V) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
