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
	Stmts []*syntax.Stmt
	// Binds holds, per statement, the loop variable a loop iteration's
	// statement runs with (ParallelizeLoop); nil for a plain list.
	Binds    []Binding
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

// ListDecision records what the list planner chose and why, for the trace
// and jashexplain.
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
	// IsFunc is not read: FuncBody says which names are functions. The
	// benchmark's layered runner still sets it.
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
	// Calls to the functions it knows are summarized through
	// analysis.FuncSummarizer until a statement may change the table;
	// after that they pin their statements.
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
	return planStmts(stmts, nil, opts)
}

// staleFuncs is the function table of a list that changes table: the
// functions the list declares over those table has.
func staleFuncs(stmts []*syntax.Stmt, table func(string) syntax.Command) func(string) syntax.Command {
	declared := analysis.Declared(&syntax.Script{Stmts: stmts})
	return func(name string) syntax.Command {
		if body := declared(name); body != nil || table == nil {
			return body
		}
		return table(name)
	}
}

// planStmts is ParallelizeList over statements that may each carry a loop
// binding (binds is nil or one entry per statement): the binding is applied
// to the abstract environment before its statement is summarized, as the
// loop assigns the variable before the iteration runs.
func planStmts(stmts []*syntax.Stmt, binds []Binding, opts ListOptions) (*ListPlan, ListDecision) {
	env := analysis.NewEnv(opts.Lookup)
	var funcs *analysis.FuncSummarizer
	if opts.FuncBody != nil {
		funcs = analysis.NewFuncSummarizer(opts.Lib, opts.FuncBody)
	}
	// funcsDirty: once a statement may alter the function table, the
	// plan-time table is stale for everything after it — a later call to a
	// function it has, or to one the list declares, pins its statement,
	// and nothing is known about the values they leave behind.
	funcsDirty, funcBody := false, opts.FuncBody
	sums := make([]*analysis.StmtSummary, len(stmts))
	for i, st := range stmts {
		if binds != nil {
			env.Bind(binds[i].Name, analysis.Const(binds[i].Value))
		}
		// Summarizing walks the statement once and threads the abstract
		// state — for a pinned statement too: what it (and the functions it
		// calls) may assign is ⊤ for its successors. With a current function
		// table the summarizer prices calls itself; without one, a call to a
		// function pins the statement.
		so := analysis.StmtOptions{Lib: opts.Lib, Env: env, FuncBody: funcBody}
		if !funcsDirty {
			so.Funcs = funcs
		}
		sums[i] = analysis.SummarizeStmtOpts(st, so)
		// Interpreter state the AST alone cannot see.
		if opts.IsReadonly != nil {
			for _, v := range analysis.SortedNames(sums[i].Defs) {
				if opts.IsReadonly(v) {
					sums[i].Blockers = append(sums[i].Blockers,
						fmt.Sprintf("assignment to readonly %s would abort", v))
				}
			}
		}
		if !funcsDirty && analysis.FuncTableChangedBy(st, opts.FuncBody) {
			funcsDirty, funcBody = true, staleFuncs(stmts, opts.FuncBody)
		}
		if funcsDirty {
			env.WidenAll()
		}
	}
	plan, dec := buildListPlan(stmts, binds, sums, opts)
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

// buildListPlan does the greedy maximal-run grouping over precomputed
// summaries. Each statement is checked against one index of the current
// run (runIndex), not against every member, so planning stays linear in
// the number of statements.
func buildListPlan(stmts []*syntax.Stmt, binds []Binding, sums []*analysis.StmtSummary, opts ListOptions) (*ListPlan, ListDecision) {
	plan := &ListPlan{}
	dec := ListDecision{}
	var run []int // indices of the current commuting candidate run
	var seq []int // indices of the pending sequential remainder
	idx := runIndex{readers: map[string]int{}, writers: map[string]int{}}
	label := func(i int) string { return fmt.Sprintf("statement %d", i+1) }
	group := func(members []int, g ListGroup) ListGroup {
		for _, i := range members {
			g.Stmts = append(g.Stmts, stmts[i])
			if binds != nil {
				g.Binds = append(g.Binds, binds[i])
			}
		}
		return g
	}
	flushSeq := func() {
		if len(seq) == 0 {
			return
		}
		plan.Groups = append(plan.Groups, group(seq, ListGroup{}))
		seq = nil
	}
	flushRun := func() {
		defer clear(idx.readers)
		defer clear(idx.writers)
		if len(run) == 0 {
			return
		}
		if len(run) < cost.MinListStatements {
			seq = append(seq, run...)
			run = nil
			return
		}
		flushSeq()
		g := group(run, ListGroup{Parallel: true, Width: cost.ListRegionWidth(len(run), opts.Cores)})
		for _, i := range run {
			g.Defs = append(g.Defs, analysis.SortedNames(sums[i].Defs))
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
		fs := sums[i].FS.Normalize(opts.Dir)
		if j := idx.firstConflict(fs, sums[i]); j >= 0 {
			if dec.Reason == "" {
				hz := analysis.Interferes(sums[j], sums[i], label(j), label(i), opts.Dir)
				dec.Reason = hz[0].String()
			}
			flushRun()
		}
		run = append(run, i)
		idx.add(i, fs, sums[i])
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

// runIndex maps everything the members of a run touch — each normalized
// path, and each variable as "$name", which a use reads and a definition
// writes — to the first member that read it and the first that wrote it.
// Eligible statements have no ⊤ effect, so a statement interferes with a
// member exactly when analysis.Interferes reports a hazard between them:
// when one writes what the other reads or writes.
type runIndex struct{ readers, writers map[string]int }

// accesses calls visit on everything a statement with normalized summary
// fs touches, once as a write if it writes it.
func accesses(fs *analysis.Summary, ss *analysis.StmtSummary, visit func(key string, write bool)) {
	for p, op := range fs.Paths {
		if op.Reads() || op.Writes() {
			visit(p, op.Writes())
		}
	}
	for v := range ss.Uses {
		visit("$"+v, ss.Defs[v])
	}
	for v := range ss.Defs {
		if !ss.Uses[v] {
			visit("$"+v, true)
		}
	}
}

// firstConflict returns the earliest member the statement interferes
// with, or -1.
func (x runIndex) firstConflict(fs *analysis.Summary, ss *analysis.StmtSummary) int {
	j := -1
	meet := func(m map[string]int, key string) {
		if at, ok := m[key]; ok && (j < 0 || at < j) {
			j = at
		}
	}
	accesses(fs, ss, func(key string, write bool) {
		if write {
			meet(x.readers, key)
		}
		meet(x.writers, key)
	})
	return j
}

// add records member i.
func (x runIndex) add(i int, fs *analysis.Summary, ss *analysis.StmtSummary) {
	accesses(fs, ss, func(key string, write bool) {
		m := x.readers
		if write {
			m = x.writers
		}
		if _, ok := m[key]; !ok {
			m[key] = i
		}
	})
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
	_, dec := buildListPlan(restStmts, nil, restSums, opts)
	return dec.Parallel
}
