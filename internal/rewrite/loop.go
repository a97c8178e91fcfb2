package rewrite

import (
	"fmt"

	"jash/internal/analysis"
	"jash/internal/expand"
	"jash/internal/syntax"
)

// Binding is the loop variable one iteration's statement runs with: the
// runner sets Name to Value before the statement, as `for Name in …` does.
type Binding struct{ Name, Value string }

// ForLoop returns the for clause a statement is exactly — no redirections,
// negation, continuation or background marker — and nil otherwise.
func ForLoop(st *syntax.Stmt) *syntax.ForClause {
	fc, _ := soleCommand(st).(*syntax.ForClause)
	if fc == nil || len(fc.Redirections) > 0 {
		return nil
	}
	return fc
}

// ParallelizeLoop plans a `for` loop as the list of its iterations' body
// statements, each carrying the binding of its iteration's item (§3.2's
// per-file loop). POSIX expands a loop's words once, before the first
// iteration: items performs that expansion, through the interpreter's own
// early expander, and is called only once the loop passes the checks that
// need no expansion. The statements are planned as they are written;
// planStmts resolves `"$f"`, `${f##*/}` and a callee's `$f` against each
// iteration's binding.
//
// A loop stays as written — a decision that is not Parallel — when the
// body may assign the variable or the variable is readonly (the iteration
// would not keep its binding), when a word is not safe to expand early or
// its expansion fails, and when the first iteration's body, planned alone,
// has a statement the effect system pins (break and continue among them):
// every iteration has the same statements, so the loop is refused without
// planning the others.
func ParallelizeLoop(fc *syntax.ForClause, items func() ([]string, error), opts ListOptions) (*ListPlan, ListDecision) {
	refuse := func(format string, args ...any) (*ListPlan, ListDecision) {
		return nil, ListDecision{Reason: fmt.Sprintf(format, args...)}
	}
	for _, st := range fc.Body {
		if names, any := analysis.AssignedBy(st, opts.FuncBody); any {
			return refuse("the loop body may assign any variable, $%s among them", fc.Name)
		} else if names[fc.Name] {
			return refuse("the loop body may assign $%s", fc.Name)
		}
	}
	if opts.IsReadonly != nil && opts.IsReadonly(fc.Name) {
		return refuse("the loop variable %s is readonly", fc.Name)
	}
	for _, w := range fc.Words {
		if !expand.AnalyzeWord(w).SafeToExpandEarly() {
			return refuse("the loop word %s is not safe to expand early", syntax.PrintWord(w))
		}
	}
	vals, err := items()
	if err != nil {
		return refuse("expanding the loop's words failed: %v", err)
	} else if len(vals) == 0 {
		return refuse("the loop has no items")
	}
	iterations := func(n int) ([]*syntax.Stmt, []Binding) {
		stmts := make([]*syntax.Stmt, 0, n*len(fc.Body))
		binds := make([]Binding, 0, n*len(fc.Body))
		for _, v := range vals[:n] {
			for _, st := range fc.Body {
				stmts = append(stmts, st)
				binds = append(binds, Binding{fc.Name, v})
			}
		}
		return stmts, binds
	}
	stmts, binds := iterations(1)
	plan, dec := planStmts(stmts, binds, opts)
	for i, blocker := range dec.Pinned {
		if blocker != "" {
			return nil, ListDecision{Pinned: dec.Pinned,
				Reason: fmt.Sprintf("statement %d of the first iteration sequential: %s", i+1, blocker)}
		}
	}
	if len(vals) > 1 {
		stmts, binds = iterations(len(vals))
		plan, dec = planStmts(stmts, binds, opts)
	}
	return plan, dec
}

// FlattenBrace unwraps a statement that is exactly `{ body; }` — no
// redirections, negation, continuation, or background marker — into its
// body statements, the "&&-free compound body" case the list planner can
// then partition. Returns nil, false when the statement is anything else.
func FlattenBrace(st *syntax.Stmt) ([]*syntax.Stmt, bool) {
	bg, ok := soleCommand(st).(*syntax.BraceGroup)
	if !ok || len(bg.Redirections) > 0 {
		return nil, false
	}
	return bg.Body, true
}

// soleCommand unwraps a statement that is exactly one command — no
// negation, continuation, or background marker — and is nil otherwise.
func soleCommand(st *syntax.Stmt) syntax.Command {
	if st == nil || st.Background || st.AndOr == nil || len(st.AndOr.Rest) > 0 {
		return nil
	}
	if pl := st.AndOr.First; pl != nil && !pl.Negated && len(pl.Cmds) == 1 {
		return pl.Cmds[0]
	}
	return nil
}
