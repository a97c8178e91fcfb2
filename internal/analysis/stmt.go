package analysis

import (
	"fmt"
	"sort"

	"jash/internal/expand"
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
	// one command.
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
// interpretation context. The zero value (nil Env, nil Funcs) reproduces
// the purely-syntactic PR 7 analysis.
type StmtOptions struct {
	// Lib resolves command names to specs.
	Lib *spec.Library
	// Env is the abstract environment at this statement's program point;
	// nil means all-⊤ (no value knowledge).
	Env *Env
	// Funcs, when non-nil, summarizes calls to user-defined functions
	// instead of leaving them to the unknown-command ⊤.
	Funcs *FuncSummarizer
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
// blocking.
func SummarizeStmtOpts(st *syntax.Stmt, opts StmtOptions) *StmtSummary {
	lib := opts.Lib
	ss := &StmtSummary{FS: NewSummary(), Defs: map[string]bool{}, Uses: map[string]bool{}}
	block := func(format string, args ...interface{}) {
		ss.Blockers = append(ss.Blockers, fmt.Sprintf(format, args...))
	}
	if st == nil || st.AndOr == nil || st.AndOr.First == nil {
		block("empty statement")
		return ss
	}
	if st.Background {
		block("background job (&)")
	}
	if len(st.AndOr.Rest) > 0 {
		block("&&/|| list is control flow on exit status")
	}
	pl := st.AndOr.First
	for ci, cmd := range pl.Cmds {
		sc, ok := cmd.(*syntax.SimpleCommand)
		if !ok {
			block("compound command in pipeline")
			continue
		}
		if len(sc.Args) == 0 {
			// A bare assignment runs no command: only its redirections (and
			// value-word expansions, folded below) touch the world.
			foldRedirs(ss.FS, sc.Redirections, opts.Env)
			summarizeStmtVars(ss, sc, opts.Env, block)
			continue
		}
		row, name, builtin := builtinOf(sc)
		if row.blocker != "" {
			block("%s %s", name, row.blocker)
			if name == "cd" && len(pl.Cmds) == 1 && !st.Background &&
				len(st.AndOr.Rest) == 0 && len(sc.Redirections) == 0 && len(sc.Assigns) == 0 {
				ss.CdOnly = true
			}
		}
		var sum *Summary
		if !builtin && opts.Funcs.Known(name) {
			// Call to a user-defined function (builtins shadow functions,
			// functions shadow coreutils — same order as the interpreter's
			// dispatch): fold in the callee's parameterized summary.
			args, known := AbsCallArgs(sc, opts.Env)
			fsum := opts.Funcs.Call(name, args, known)
			for _, b := range fsum.Blockers {
				block("function %s: %s", name, b)
			}
			sum = NewSummary() // the cached summary is shared: copy
			sum.Union(fsum.FS)
			foldRedirs(sum, sc.Redirections, opts.Env)
			for n := range fsum.Defs {
				ss.Defs[n] = true
			}
			for n := range fsum.Uses {
				ss.Uses[n] = true
			}
		} else {
			sum = SummarizeCommandEnv(sc, lib, opts.Env)
		}
		// Inner pipeline stages read the pipe, not the terminal: only the
		// first command's stdin appetite matters, and a redirection over
		// fd 0 satisfies it from a file instead.
		if ci > 0 || redirectsFD(sc.Redirections, 0) {
			sum.ReadsStdin = false
		}
		ss.FS.Union(sum)
		summarizeStmtVars(ss, sc, opts.Env, block)
	}
	if ss.FS.Unknown != 0 {
		block("⊤ effect: %s", ss.FS.Unknown)
	}
	if ss.FS.ReadsStdin {
		block("reads shared stdin")
	}
	return ss
}

// summarizeStmtVars folds one simple command's variable defs and uses
// (assignments and every word it expands, here-document bodies included)
// into the summary.
func summarizeStmtVars(ss *StmtSummary, sc *syntax.SimpleCommand, env *Env, block func(string, ...interface{})) {
	for _, a := range sc.Assigns {
		if len(sc.Args) == 0 {
			// A bare assignment persists in the parent shell.
			ss.Defs[a.Name] = true
		}
		// `FOO=1 cmd` scopes FOO to cmd: only the value word's reads leak.
		stmtWordUses(ss, a.Value, env, block)
	}
	for _, w := range sc.Args {
		stmtWordUses(ss, w, env, block)
	}
	for _, r := range sc.Redirections {
		stmtWordUses(ss, r.Target, env, block)
		stmtWordUses(ss, r.Body, env, block)
	}
}

// stmtWordUses records the variables a word's expansion reads and assigns,
// blocking on the order-sensitive special parameters and on expansions
// that can abort the statement from inside a worker, run commands, or
// assign variables the summary cannot name.
func stmtWordUses(ss *StmtSummary, w *syntax.Word, env *Env, block func(string, ...interface{})) {
	if w == nil {
		return
	}
	d := expand.AnalyzeWord(w)
	if opaque(d, env) {
		block("$((...)) in %s is not an expression until it is expanded", syntax.PrintWord(w))
	}
	for _, e := range d.Effects {
		switch e.Kind {
		case expand.EffectRead:
			switch e.Name {
			case "?":
				block("$? depends on the preceding statement's status")
			case "!":
				block("$! depends on background job order")
			case "$":
				block("$$ differs between worker and parent shells")
			default:
				// Positional and the remaining special parameters ($1, $@,
				// $#...) are read-only here: mutating them takes set/shift,
				// which block the mutating statement itself.
				if isVarName(e.Name) {
					ss.Uses[e.Name] = true
				}
			}
		case expand.EffectAssign:
			ss.Defs[e.Name] = true
		case expand.EffectAbort:
			block("${%s?...} may abort the shell", e.Name)
		case expand.EffectSubst:
			block("command substitution runs arbitrary commands")
		}
	}
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
	for _, v := range sortedNames(a.Defs) {
		if b.Defs[v] {
			hs = append(hs, Hazard{Kind: WriteWrite, Path: "$" + v, A: aLabel, B: bLabel})
		} else if b.Uses[v] {
			hs = append(hs, Hazard{Kind: ReadWrite, Path: "$" + v, A: aLabel, B: bLabel})
		}
	}
	for _, v := range sortedNames(b.Defs) {
		if a.Uses[v] && !a.Defs[v] {
			hs = append(hs, Hazard{Kind: ReadWrite, Path: "$" + v, A: bLabel, B: aLabel})
		}
	}
	hs = append(hs, Conflicts(a.FS.Normalize(dir), b.FS.Normalize(dir), aLabel, bLabel)...)
	return hs
}

func sortedNames(m map[string]bool) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
