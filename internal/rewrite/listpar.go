package rewrite

import (
	"fmt"
	"sort"
	"strings"

	"jash/internal/analysis"
	"jash/internal/cost"
	"jash/internal/spec"
	"jash/internal/syntax"
)

// ListGroup is one run of statements in a planned command list: either a
// sequential remainder (executed in program order by the interpreter) or a
// concurrent region of pairwise non-interfering statements.
type ListGroup struct {
	Stmts    []*syntax.Stmt
	Parallel bool
	// Width is the worker count for a parallel group (≤ len(Stmts)).
	Width int
	// Defs lists, per statement (parallel groups only), the variables the
	// statement defines — proven disjoint across the group, so the region
	// runner can merge each worker's definitions back into the parent
	// shell without ordering concerns.
	Defs [][]string
}

// ListPlan is a command list partitioned into groups. Groups execute in
// order; only the statements inside a parallel group leave program order —
// and their observable outputs are replayed in program order regardless.
type ListPlan struct {
	Groups []ListGroup
}

// ParallelStatements counts the statements inside parallel groups.
func (p *ListPlan) ParallelStatements() int {
	n := 0
	for _, g := range p.Groups {
		if g.Parallel {
			n += len(g.Stmts)
		}
	}
	return n
}

// ListDecision records what the list planner chose and why, for -stats and
// jashexplain.
type ListDecision struct {
	// Parallel reports whether any concurrent region was formed.
	Parallel bool
	// Width is the widest region's worker count.
	Width int
	// Statements counts statements placed in concurrent regions.
	Statements int
	// Reason is the human-readable justification or refusal.
	Reason string
	// CdBlockedOnly marks a list whose only obstacle to parallelism is one
	// or more bare `cd` statements among statements that otherwise touch
	// only absolute paths — the JSH405 lint condition.
	CdBlockedOnly bool
	// Concretized counts dynamic words the abstract interpreter resolved
	// to concrete values while summarizing this list — each one a ⊤
	// effect that did not happen.
	Concretized int
	// Witnesses holds one line per concretization (`$f ⇒ /tmp/a`),
	// deduplicated and sorted, for jashexplain.
	Witnesses []string
	// Pinned is the planner's proof trail, one entry per statement: the
	// first blocker of a statement the effect system could not prove
	// commutative, "" for one it could.
	Pinned []string
}

// ListOptions parameterizes list planning with the interpreter state the
// AST cannot carry.
type ListOptions struct {
	Lib *spec.Library
	// Dir is the working directory relative paths resolve against.
	Dir string
	// Cores caps region width.
	Cores int
	// IsFunc reports whether a name resolves to a shell function: a call
	// can mutate arbitrary interpreter state, so it pins the statement.
	IsFunc func(string) bool
	// IsReadonly reports whether assigning a name would be a fatal
	// readonly violation — order-sensitive, so it pins the statement.
	IsReadonly func(string) bool
	// Lookup resolves a variable's current value at plan time (the list
	// has not started executing, so the interpreter's table is a
	// consistent snapshot). nil means no value knowledge: every
	// inherited variable is ⊤.
	Lookup func(string) (string, bool)
	// FuncBody returns the named function's body at plan time, or nil.
	// When set, calls to known functions are summarized through
	// analysis.FuncSummarizer instead of pinning the statement.
	FuncBody func(string) syntax.Command
}

// ParallelizeList plans a `cmd1; cmd2; ...` command list: it summarizes
// every statement (analysis.SummarizeStmt), proves consecutive eligible
// statements pairwise non-interfering (analysis.Interferes — variable
// def-use and filesystem hazards), and groups maximal runs of ≥
// cost.MinListStatements commuting statements into concurrent regions.
// Everything else stays sequential, in program order. The plan is a pure
// description: the region runner in package core owns execution, output
// ordering, and fallback.
func ParallelizeList(stmts []*syntax.Stmt, opts ListOptions) (*ListPlan, ListDecision) {
	env := analysis.NewEnv(opts.Lookup)
	var funcs *analysis.FuncSummarizer
	if opts.FuncBody != nil {
		funcs = analysis.NewFuncSummarizer(opts.Lib, opts.FuncBody)
	}
	// funcsDirty: once a statement may alter the function table, the
	// plan-time table is stale for everything after it — later calls
	// summarize as unknown commands, which conservatively pins them, and
	// nothing is known about the values they leave behind.
	funcsDirty := false
	sums := make([]*analysis.StmtSummary, len(stmts))
	for i, st := range stmts {
		so := analysis.StmtOptions{Lib: opts.Lib, Env: env}
		if !funcsDirty {
			so.Funcs = funcs
		}
		sums[i] = analysis.SummarizeStmtOpts(st, so)
		// Interpreter-state blockers the AST alone cannot see. With a
		// function table available the summarizer prices calls itself;
		// without one, any call to a function pins the statement.
		for _, name := range stmtCommandNames(st) {
			if so.Funcs == nil && opts.IsFunc != nil && opts.IsFunc(name) {
				sums[i].Blockers = append(sums[i].Blockers,
					fmt.Sprintf("%s is a shell function", name))
			}
		}
		if opts.IsReadonly != nil {
			for _, v := range sortedVarNames(sums[i].Defs) {
				if opts.IsReadonly(v) {
					sums[i].Blockers = append(sums[i].Blockers,
						fmt.Sprintf("assignment to readonly %s would abort", v))
				}
			}
		}
		funcsDirty = funcsDirty || mutatesFuncTable(st, opts.FuncBody)
		// Thread the abstract state — for a pinned statement too: what it
		// (and the functions it calls) may assign is ⊤ for its successors.
		analysis.ApplyStmt(env, st, opts.FuncBody)
		if funcsDirty {
			env.WidenAll()
		}
	}
	plan, dec := buildListPlan(stmts, sums, opts)
	seen := map[string]bool{}
	dec.Pinned = make([]string, len(sums))
	for i, ss := range sums {
		if len(ss.Blockers) > 0 {
			dec.Pinned[i] = ss.Blockers[0]
		}
		dec.Concretized += ss.FS.Concretized
		for _, wit := range ss.FS.Witnesses {
			if !seen[wit] {
				seen[wit] = true
				dec.Witnesses = append(dec.Witnesses, wit)
			}
		}
	}
	sort.Strings(dec.Witnesses)
	if !dec.Parallel {
		dec.CdBlockedOnly = cdBlockedOnly(stmts, sums, opts)
		if dec.CdBlockedOnly {
			dec.Reason = "parallel but for cd: absolute-path statements blocked only by a removable cd"
		}
	}
	return plan, dec
}

// mutatesFuncTable reports whether executing the statement may change
// the function table out from under the plan: a FuncDecl anywhere in its
// subtree (unless it re-declares the exact body the plan-time table
// already maps to that name — the whole-script planning case), or anything
// analysis.AssignedBy cannot bound, which is how eval and its kind, that
// can declare functions dynamically, report themselves.
func mutatesFuncTable(st *syntax.Stmt, funcBody func(string) syntax.Command) bool {
	_, found := analysis.AssignedBy(st, funcBody)
	syntax.Walk(st, func(n syntax.Node) bool {
		if c, ok := n.(*syntax.FuncDecl); ok && (funcBody == nil || funcBody(c.Name) != c.Body) {
			found = true
		}
		return !found
	})
	return found
}

// buildListPlan does the greedy maximal-run grouping over precomputed
// summaries.
func buildListPlan(stmts []*syntax.Stmt, sums []*analysis.StmtSummary, opts ListOptions) (*ListPlan, ListDecision) {
	plan := &ListPlan{}
	dec := ListDecision{}
	var run []int // indices of the current commuting candidate run
	var seq []int // indices of the pending sequential remainder
	label := func(i int) string { return fmt.Sprintf("statement %d", i+1) }
	flushSeq := func() {
		if len(seq) == 0 {
			return
		}
		g := ListGroup{}
		for _, i := range seq {
			g.Stmts = append(g.Stmts, stmts[i])
		}
		plan.Groups = append(plan.Groups, g)
		seq = nil
	}
	flushRun := func() {
		if len(run) == 0 {
			return
		}
		if len(run) < cost.MinListStatements {
			seq = append(seq, run...)
			run = nil
			return
		}
		flushSeq()
		g := ListGroup{Parallel: true, Width: cost.ListRegionWidth(len(run), opts.Cores)}
		for _, i := range run {
			g.Stmts = append(g.Stmts, stmts[i])
			g.Defs = append(g.Defs, sortedVarNames(sums[i].Defs))
		}
		plan.Groups = append(plan.Groups, g)
		dec.Parallel = true
		dec.Statements += len(run)
		if g.Width > dec.Width {
			dec.Width = g.Width
		}
		run = nil
	}
	for i := range stmts {
		if !sums[i].Eligible() {
			flushRun()
			seq = append(seq, i)
			if dec.Reason == "" {
				dec.Reason = fmt.Sprintf("%s sequential: %s", label(i), sums[i].Blockers[0])
			}
			continue
		}
		commutes := true
		for _, j := range run {
			if hz := analysis.Interferes(sums[j], sums[i], label(j), label(i), opts.Dir); len(hz) > 0 {
				commutes = false
				if dec.Reason == "" {
					dec.Reason = hz[0].String()
				}
				break
			}
		}
		if !commutes {
			flushRun()
		}
		run = append(run, i)
	}
	flushRun()
	flushSeq()
	if dec.Parallel {
		dec.Reason = fmt.Sprintf("%d statement(s) proven non-interfering, width %d",
			dec.Statements, dec.Width)
	} else if dec.Reason == "" && len(stmts) > 0 {
		dec.Reason = fmt.Sprintf("list of %d statement(s) too small to parallelize", len(stmts))
	}
	return plan, dec
}

// cdBlockedOnly detects the JSH405 condition: no region formed, every
// blocked statement is a bare cd, and re-planning without the cds (over
// statements that touch only absolute paths, so the cd is genuinely
// removable) does yield one.
func cdBlockedOnly(stmts []*syntax.Stmt, sums []*analysis.StmtSummary, opts ListOptions) bool {
	sawCd := false
	var restStmts []*syntax.Stmt
	var restSums []*analysis.StmtSummary
	for i, ss := range sums {
		if ss.CdOnly {
			sawCd = true
			continue
		}
		if !ss.Eligible() {
			return false // blocked by something besides cd
		}
		for p := range ss.FS.Paths {
			if !strings.HasPrefix(p, "/") {
				return false // relative path: the cd is load-bearing
			}
		}
		restStmts = append(restStmts, stmts[i])
		restSums = append(restSums, ss)
	}
	if !sawCd {
		return false
	}
	_, dec := buildListPlan(restStmts, restSums, opts)
	return dec.Parallel
}

// stmtCommandNames collects the literal command names invoked anywhere in
// a statement.
func stmtCommandNames(st *syntax.Stmt) []string {
	var names []string
	syntax.Walk(st, func(n syntax.Node) bool {
		if sc, ok := n.(*syntax.SimpleCommand); ok {
			if name := sc.Name(); name != "" {
				names = append(names, name)
			}
		}
		return true
	})
	return names
}

func sortedVarNames(m map[string]bool) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names) // deterministic blocker order keeps -stats output stable
	return names
}
