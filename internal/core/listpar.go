package core

import (
	"bytes"
	"fmt"
	"strings"
	"sync"

	"jash/internal/analysis"
	"jash/internal/interp"
	"jash/internal/rewrite"
	"jash/internal/syntax"
	"jash/internal/trace"
)

// runStmtsTop dispatches one parsed command unit — the `cmd1; cmd2; ...`
// statement list of a single line — through the list parallelizer before
// interpreting it. This is the second interposition point of the JIT (the
// first, Shell.observe, sees individual pipelines): at this level whole
// statements can be proven to commute and run concurrently, with their
// outputs journaled per statement and replayed in program order, so the
// observable behaviour — stdout bytes, stderr bytes, exit status —
// is identical to the sequential run.
//
// The gates mirror the paper's sound-by-construction posture: anything the
// effect system cannot prove stays in program order. A whole unit also
// stays sequential in incremental mode (the memoizer keys on sequential
// replay) and when the interpreter state makes reordering visible at all
// (orderVisible) — which a statement of the unit itself can bring about, so
// that gate is asked again before every concurrent group.
func (s *Shell) runStmtsTop(stmts []*syntax.Stmt) (int, error) {
	in := s.Interp
	if s.Mode != ModeJash || s.NoListParallel || s.Incremental != nil || orderVisible(in) {
		return in.RunStmts(stmts)
	}
	// A single compound statement may still hide a list the planner can
	// partition: `{ a; b; c; }` flattens, and a static `for` loop over
	// literal words unrolls into one statement per item (the classic
	// per-file loop, §3.2's "most common parallelization opportunity").
	funcBody := func(name string) syntax.Command { return in.Funcs[name] }
	cand := stmts
	loopVar, loopLast := "", ""
	if len(stmts) == 1 {
		if body, ok := rewrite.FlattenBrace(stmts[0]); ok {
			cand = body
		} else if un, name, last, ok := rewrite.UnrollFor(stmts[0], funcBody); ok {
			cand = un
			loopVar, loopLast = name, last
		}
	}
	if len(cand) < 2 {
		return in.RunStmts(stmts)
	}
	lsp := s.cmdSpan.Child("list-plan")
	plan, dec := rewrite.ParallelizeList(cand, rewrite.ListOptions{
		Lib:   s.Lib,
		Dir:   in.Dir,
		Cores: s.Profile.Cores,
		IsFunc: func(name string) bool {
			_, ok := in.Funcs[name]
			return ok
		},
		IsReadonly: func(name string) bool { return in.Vars[name].ReadOnly },
		Lookup:     lookupVar(in),
		FuncBody:   funcBody,
	})
	annotateList(lsp, dec)
	// The list's record settles when the list has run: a region that
	// aborts says so in it. Refusals are recorded too, for jashexplain and
	// -stats; the list then runs exactly as before.
	d := Decision{Pipeline: listLabel(cand), Strategy: "sequential-list",
		Reason: dec.Reason, Witnesses: dec.Witnesses}
	defer func() { s.settle(nil, d) }()
	if !dec.Parallel {
		return in.RunStmts(stmts)
	}
	d.Strategy, d.Width = "parallel-list", dec.Width
	d.statements, d.concretized = dec.Statements, dec.Concretized
	rsp := s.cmdSpan.Child("list-region")
	rsp.SetInt("width", int64(dec.Width))
	rsp.SetInt("statements", int64(dec.Statements))
	defer rsp.End()
	status, err := 0, error(nil)
	for _, g := range plan.Groups {
		if g.Parallel && orderVisible(in) {
			g.Parallel = false
			d.Reason += " (a group kept program order: set -e, set -u or a trap took effect mid-list)"
		}
		if !g.Parallel {
			status, err = in.RunStmts(g.Stmts)
		} else {
			gsp := rsp.Child("parallel-group")
			gsp.SetInt("stmts", int64(len(g.Stmts)))
			gsp.SetInt("width", int64(g.Width))
			status, err = s.runParallelGroup(in, g)
			gsp.SetInt("status", int64(status))
			gsp.End()
		}
		if err != nil || in.Exited {
			if err != nil {
				rsp.EventStr("region-abort", "cause", err.Error())
				d.Reason += fmt.Sprintf(" (region aborted: %v)", err)
			}
			break
		}
	}
	if err == nil && loopVar != "" && !in.Exited {
		// POSIX leaves the loop variable bound to the last item.
		in.Setenv(loopVar, loopLast)
	}
	return status, err
}

// orderVisible reports interpreter state under which a statement that ends
// the shell must keep its successors from ever starting, as a concurrent
// group cannot: set -e, set -u, or a trap (handlers observe $? mid-list).
func orderVisible(in *interp.Interp) bool {
	return in.ErrExit || in.NoUnset || len(in.Traps) > 0
}

// annotateList stamps the list planner's returned decision on the
// list-plan span — its verdict, and one pinned event per statement the
// effect system could not prove commutative — and ends it.
func annotateList(lsp *trace.Span, dec rewrite.ListDecision) {
	if lsp == nil {
		return
	}
	for i, blocker := range dec.Pinned {
		if blocker != "" {
			lsp.EventKV("pinned", map[string]any{"stmt": i + 1, "blocker": blocker})
		}
	}
	lsp.EventKV("verdict", map[string]any{
		"parallel": dec.Parallel, "width": dec.Width,
		"statements": dec.Statements, "reason": dec.Reason,
	})
	lsp.SetBool("parallel", dec.Parallel)
	lsp.SetStr("reason", dec.Reason)
	lsp.End()
}

// listWorker is one statement's execution state inside a parallel group.
type listWorker struct {
	stdout bytes.Buffer
	stderr bytes.Buffer
	clone  *interp.Interp
	status int
	err    error
}

// runParallelGroup executes a proven-non-interfering run of statements
// concurrently and replays their observable effects in program order.
// Each statement runs on its own interpreter clone (the observer stays
// attached, so inner pipelines still JIT, retry, and journal-fallback
// exactly as they would sequentially) with its stdout and stderr
// journaled to per-statement buffers. When every worker has finished, the
// buffers are flushed to the session streams in program order, the
// disjoint variable definitions are merged back, and $? becomes the last
// statement's status — byte-for-byte and status-for-status what the
// sequential run produces.
func (s *Shell) runParallelGroup(in *interp.Interp, g rewrite.ListGroup) (int, error) {
	workers := make([]*listWorker, len(g.Stmts))
	for i := range workers {
		w := &listWorker{clone: in.Subshell()}
		// The summaries proved no statement reads shared stdin; an empty
		// reader makes any escape deterministic instead of a stream race.
		w.clone.Stdin = strings.NewReader("")
		w.clone.Stdout = &w.stdout
		w.clone.Stderr = &w.stderr
		workers[i] = w
	}
	sem := make(chan struct{}, g.Width)
	var wg sync.WaitGroup
	for i, st := range g.Stmts {
		wg.Add(1)
		go func(w *listWorker, st *syntax.Stmt) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			w.status, w.err = w.clone.RunStmts([]*syntax.Stmt{st})
		}(workers[i], st)
	}
	wg.Wait()
	// Replay in program order. A fatal error or a shell exit (explicit, or
	// implicit: a set -u miss, ${x?}, a readonly assignment) in statement k
	// reproduces the sequential prefix: statements before k replay fully,
	// k's own output and diagnostic replay, and later statements' output is
	// suppressed (their side effects were proven disjoint, so dropping the
	// bytes is the closest match to "never ran").
	status := 0
	for i, w := range workers {
		in.Stdout.Write(w.stdout.Bytes())
		in.Stderr.Write(w.stderr.Bytes())
		status = w.status
		for _, name := range g.Defs[i] {
			if v, ok := w.clone.Vars[name]; ok {
				in.Vars[name] = v
			}
		}
		if w.err != nil || w.clone.Exited {
			in.Status, in.Exited = w.status, w.clone.Exited
			return w.status, w.err
		}
	}
	in.Status = status
	return status, nil
}

// lookupVar resolves a variable against the interpreter's table.
func lookupVar(in *interp.Interp) func(string) (string, bool) {
	return func(name string) (string, bool) {
		v, ok := in.Vars[name]
		return v.Value, ok
	}
}

// interpEnv builds an abstract environment backed by the live
// interpreter state: every variable resolves to its current value and
// the positional parameters are exactly known. Lookup misses are
// provably-unset (Const "") because in.Vars is the whole table.
func interpEnv(in *interp.Interp) *analysis.Env {
	env := analysis.NewEnv(lookupVar(in))
	params := make([]analysis.AbsVal, len(in.Params))
	for i, p := range in.Params {
		params[i] = analysis.Const(p)
	}
	env.SetParams(params)
	return env
}

// concretizeWitnesses reports, for each dynamic word in the pipeline
// (arguments and redirect targets), the concrete expansion the abstract
// environment proves from the live interpreter state — the witness lines
// jashexplain shows next to a compiled decision.
func concretizeWitnesses(in *interp.Interp, pl *syntax.Pipeline) []string {
	var env *analysis.Env
	var wits []string
	for _, cmd := range pl.Cmds {
		sc, ok := cmd.(*syntax.SimpleCommand)
		if !ok {
			continue
		}
		words := make([]*syntax.Word, 0, len(sc.Args)+len(sc.Redirections))
		words = append(words, sc.Args...)
		for _, r := range sc.Redirections {
			if r.Target != nil {
				words = append(words, r.Target)
			}
		}
		for _, w := range words {
			if w.IsStatic() {
				continue
			}
			if env == nil {
				env = interpEnv(in)
			}
			fields, exact := analysis.FieldsOf(w, env)
			if !exact {
				continue
			}
			vals := make([]string, 0, len(fields))
			proven := true
			for _, f := range fields {
				if !f.Val.IsConst() || f.Globbable {
					proven = false
					break
				}
				vals = append(vals, f.Val.Str)
			}
			if proven {
				wits = append(wits, analysis.Witness(w, vals))
			}
		}
	}
	return wits
}

// listLabel abbreviates a statement list for decision records.
func listLabel(stmts []*syntax.Stmt) string {
	var parts []string
	for _, st := range stmts {
		one := strings.Join(strings.Fields(syntax.PrintStmts([]*syntax.Stmt{st})), " ")
		parts = append(parts, one)
	}
	text := strings.Join(parts, "; ")
	if len(text) > 60 {
		text = text[:57] + "..."
	}
	return fmt.Sprintf("list[%d]: %s", len(stmts), text)
}
