// Flow-sensitive rules (the JSH4xx family): unlike the syntax-local
// checks in lint.go, these consume package analysis's value walk (its
// abstract values and def-use chains) and effect summaries, giving the
// linter whole-script dataflow facts.

package lint

import (
	"fmt"
	"strconv"
	"strings"

	"jash/internal/analysis"
	"jash/internal/cost"
	"jash/internal/rewrite"
	"jash/internal/syntax"
)

// checkFlow runs the flow rules over the whole script. One value walk
// serves them all: its def-use chains feed JSH401–403, its abstract values
// JSH406/407.
func (l *Linter) checkFlow(script *syntax.Script, add func(Finding)) {
	var valueFs []Finding
	du := l.walkValues(script, func(f Finding) { valueFs = append(valueFs, f) })
	// JSH401: a variable is read before any assignment, and an assignment
	// appears later in the same scope — almost always a misordering.
	for _, u := range du.UseBeforeDefs {
		add(Finding{
			Code: "JSH401", Severity: Warning, Pos: u.UsePos,
			Message: fmt.Sprintf("%s is used here but only assigned later (line %d); this use sees an empty value",
				"$"+u.Name, u.DefPos.Line),
			Suggestion: "move the assignment before the first use",
		})
	}
	// JSH402: an assigned value is overwritten before any read.
	for _, d := range du.DeadDefs() {
		add(Finding{
			Code: "JSH402", Severity: Warning, Pos: d.Pos,
			Message: fmt.Sprintf("value assigned to %s is never used: line %d overwrites it first",
				d.Name, d.KilledBy.Pos.Line),
			Suggestion: "remove the dead assignment or use the value before reassigning",
		})
	}
	// JSH403: an assignment made in a subshell copy of the environment
	// (subshell, background job, or pipeline stage) with a later use in
	// the parent, which can never see the value.
	for _, lost := range du.Lost {
		add(Finding{
			Code: "JSH403", Severity: Warning, Pos: lost.Def.Pos,
			Message: fmt.Sprintf("%s is assigned in a subshell; the use at line %d cannot see the value",
				lost.Def.Name, lost.UsePos.Line),
			Suggestion: "assign in the parent shell, or restructure to avoid the subshell",
		})
	}
	l.checkCdInvalidation(script, add)
	l.checkCdBlockedParallelism(script, add)
	for _, f := range valueFs {
		add(f)
	}
}

// walkValues walks the script with the value-flow analysis threading
// constant knowledge through assignments, and fires where a proven value
// makes a latent hazard definite — JSH406 (an unquoted expansion that
// provably word-splits here) and JSH407 (a condition that is provably
// constant, making a branch or loop body unreachable). It returns the
// def-use chains the walk collected.
func (l *Linter) walkValues(script *syntax.Script, add func(Finding)) *analysis.DefUse {
	vis := &analysis.ValueVisitor{
		Simple: func(sc *syntax.SimpleCommand, env *analysis.Env) {
			l.checkProvenSplit(sc, env, add)
		},
		If: func(ic *syntax.IfClause, env *analysis.Env) {
			switch condVerdict(ic.Cond, env) {
			case condFalse:
				if len(ic.Then) > 0 {
					add(Finding{
						Code: "JSH407", Severity: Warning, Pos: condPos(ic.Cond, ic.Pos()),
						Message:    fmt.Sprintf("condition %s is provably false; the then-branch never runs", condLabel(ic.Cond)),
						Suggestion: "remove the dead branch, or fix the value the condition tests",
					})
				}
			case condTrue:
				if len(ic.Else) > 0 {
					add(Finding{
						Code: "JSH407", Severity: Warning, Pos: condPos(ic.Cond, ic.Pos()),
						Message:    fmt.Sprintf("condition %s is provably true; the else-branch never runs", condLabel(ic.Cond)),
						Suggestion: "remove the dead branch, or fix the value the condition tests",
					})
				}
			}
		},
		While: func(wc *syntax.WhileClause, env *analysis.Env) {
			v := condVerdict(wc.Cond, env)
			// `while cond` never enters the body when cond provably fails;
			// `until cond` never enters when cond provably succeeds.
			dead := (v == condFalse && !wc.Until) || (v == condTrue && wc.Until)
			if dead && len(wc.Body) > 0 {
				kw, verdict := "while", "false"
				if wc.Until {
					kw, verdict = "until", "true"
				}
				add(Finding{
					Code: "JSH407", Severity: Warning, Pos: condPos(wc.Cond, wc.Pos()),
					Message:    fmt.Sprintf("%s condition %s is provably %s on entry; the loop body never runs", kw, condLabel(wc.Cond), verdict),
					Suggestion: "remove the dead loop, or fix the value the condition tests",
				})
			}
		},
	}
	_, du := analysis.WalkValues(script, nil, vis)
	return du
}

// checkProvenSplit flags JSH406: an unquoted expansion argument whose
// abstract value proves the word splits into several fields (or into
// none) right here. Where JSH202 warns that splitting *may* happen,
// JSH406 carries a proof — the value is known, and it contains IFS
// separators — so it also fires in the contexts JSH202 exempts.
func (l *Linter) checkProvenSplit(sc *syntax.SimpleCommand, env *analysis.Env, add func(Finding)) {
	if sc.Name() == "" {
		return
	}
	for _, w := range sc.Args[1:] {
		if !isBareParam(w) {
			continue
		}
		fields, exact := analysis.FieldsOf(w, env)
		if !exact || len(fields) == 1 {
			continue
		}
		if len(fields) == 0 {
			add(Finding{
				Code: "JSH406", Severity: Warning, Pos: w.Pos(),
				Message:    fmt.Sprintf("unquoted %s provably expands to no words at all here: the argument vanishes", wordDesc(w)),
				Suggestion: fmt.Sprintf(`double-quote it to keep an (empty) argument: "%s"`, syntax.PrintWord(w)),
			})
			continue
		}
		add(Finding{
			Code: "JSH406", Severity: Warning, Pos: w.Pos(),
			Message: fmt.Sprintf("unquoted %s provably splits into %d words here%s",
				wordDesc(w), len(fields), fieldWitness(fields)),
			Suggestion: fmt.Sprintf(`double-quote it if one word is intended: "%s"`, syntax.PrintWord(w)),
		})
	}
}

// fieldWitness renders proven-constant fields for the JSH406 message.
func fieldWitness(fields []analysis.AbsField) string {
	vals := make([]string, 0, len(fields))
	for _, f := range fields {
		if !f.Val.IsConst() {
			return ""
		}
		vals = append(vals, f.Val.Str)
	}
	const maxShown = 4
	if len(vals) > maxShown {
		vals = append(vals[:maxShown], "...")
	}
	return fmt.Sprintf(" (%q)", vals)
}

// condResult is a three-valued verdict on a condition list.
type condResult int

const (
	condUnknown condResult = iota
	condTrue
	condFalse
)

// condVerdict abstractly evaluates an if/while condition. Only the shapes
// the domain can decide return a verdict: a single non-background simple
// command — true/false/:/test/[ — whose argv resolves to constants under
// the abstract environment. Everything else is condUnknown.
func condVerdict(cond []*syntax.Stmt, env *analysis.Env) condResult {
	if len(cond) != 1 {
		return condUnknown
	}
	st := cond[0]
	if st.Background || st.AndOr == nil || len(st.AndOr.Rest) > 0 {
		return condUnknown
	}
	pl := st.AndOr.First
	if pl == nil || len(pl.Cmds) != 1 {
		return condUnknown
	}
	sc, ok := pl.Cmds[0].(*syntax.SimpleCommand)
	if !ok || len(sc.Redirections) > 0 || len(sc.Assigns) > 0 {
		return condUnknown
	}
	argv := make([]string, 0, len(sc.Args))
	for _, w := range sc.Args {
		fields, exact := analysis.FieldsOf(w, env)
		if !exact {
			return condUnknown
		}
		for _, f := range fields {
			if !f.Val.IsConst() {
				return condUnknown
			}
			// A lone "[" trips the glob flag, but an unterminated bracket
			// expression never matches: it always stays literal.
			if f.Globbable && f.Val.Str != "[" {
				return condUnknown
			}
			argv = append(argv, f.Val.Str)
		}
	}
	if len(argv) == 0 {
		return condUnknown
	}
	var truth, decided bool
	switch argv[0] {
	case "true", ":":
		truth, decided = true, true
	case "false":
		truth, decided = false, true
	case "test":
		truth, decided = evalTest(argv[1:])
	case "[":
		if argv[len(argv)-1] != "]" {
			return condUnknown // malformed: the runtime errors, status 2
		}
		truth, decided = evalTest(argv[1 : len(argv)-1])
	}
	if !decided {
		return condUnknown
	}
	if pl.Negated {
		truth = !truth
	}
	if truth {
		return condTrue
	}
	return condFalse
}

// evalTest decides test/[ expressions over constant operands: arity-0 and
// arity-1 forms, -n/-z, string =/==/!=, integer comparisons, and a !
// prefix. File tests and anything else stay undecided.
func evalTest(ops []string) (truth, decided bool) {
	if len(ops) > 0 && ops[0] == "!" {
		truth, decided = evalTest(ops[1:])
		return !truth, decided
	}
	switch len(ops) {
	case 0:
		return false, true
	case 1:
		return ops[0] != "", true
	case 2:
		switch ops[0] {
		case "-n":
			return ops[1] != "", true
		case "-z":
			return ops[1] == "", true
		}
		return false, false
	case 3:
		a, op, b := ops[0], ops[1], ops[2]
		switch op {
		case "=", "==":
			return a == b, true
		case "!=":
			return a != b, true
		case "-eq", "-ne", "-lt", "-le", "-gt", "-ge":
			x, errX := strconv.Atoi(strings.TrimSpace(a))
			y, errY := strconv.Atoi(strings.TrimSpace(b))
			if errX != nil || errY != nil {
				return false, false // runtime arity/parse error, not a verdict
			}
			switch op {
			case "-eq":
				return x == y, true
			case "-ne":
				return x != y, true
			case "-lt":
				return x < y, true
			case "-le":
				return x <= y, true
			case "-gt":
				return x > y, true
			case "-ge":
				return x >= y, true
			}
		}
	}
	return false, false
}

// condLabel renders a condition list compactly for JSH407 messages.
func condLabel(cond []*syntax.Stmt) string {
	s := strings.Join(strings.Fields(syntax.PrintStmts(cond)), " ")
	if len(s) > 40 {
		s = s[:37] + "..."
	}
	return "`" + s + "`"
}

// condPos anchors a JSH407 finding at the condition itself.
func condPos(cond []*syntax.Stmt, fallback syntax.Pos) syntax.Pos {
	if len(cond) > 0 {
		return cond[0].Pos()
	}
	return fallback
}

// checkCdBlockedParallelism flags JSH405: a one-line statement list that
// the runtime list parallelizer would prove safe to run concurrently,
// except that a `cd` statement pins everything to program order — and the
// other statements touch only absolute paths, so the cd is removable. The
// grouping mirrors the runtime's parse unit exactly (statements joined by
// `;` on one line); statements on separate lines never form a list, so
// they are never flagged.
func (l *Linter) checkCdBlockedParallelism(script *syntax.Script, add func(Finding)) {
	funcs := map[string]bool{}
	for _, st := range script.Stmts {
		syntax.Walk(st, func(n syntax.Node) bool {
			if fd, ok := n.(*syntax.FuncDecl); ok {
				funcs[fd.Name] = true
			}
			return true
		})
	}
	opts := rewrite.ListOptions{
		Lib:    l.Lib,
		Dir:    "/",
		Cores:  cost.StandardEC2().Cores,
		IsFunc: func(name string) bool { return funcs[name] },
	}
	flush := func(group []*syntax.Stmt) {
		if len(group) < 2 {
			return
		}
		if _, dec := rewrite.ParallelizeList(group, opts); dec.CdBlockedOnly {
			add(Finding{
				Code: "JSH405", Severity: Warning, Pos: group[0].Pos(),
				Message: fmt.Sprintf("this %d-statement list is provably parallelizable, but the cd forces it to run sequentially",
					len(group)),
				Suggestion: "use absolute paths and drop the cd so the statements can run concurrently",
			})
		}
	}
	var group []*syntax.Stmt
	line := -1
	for _, st := range script.Stmts {
		if st.Pos().Line != line {
			flush(group)
			group, line = nil, st.Pos().Line
		}
		group = append(group, st)
	}
	flush(group)
}

// checkCdInvalidation flags JSH404: a relative path is touched both
// before and after a `cd` — the same name resolves to two different
// files, which is rarely what the author meant.
func (l *Linter) checkCdInvalidation(script *syntax.Script, add func(Finding)) {
	type touch struct {
		pos  syntax.Pos
		line int
	}
	preCd := map[string]touch{} // relative path -> first touch before any cd
	cdSeen := false
	var cdLine int
	reported := map[string]bool{}
	for _, st := range script.Stmts {
		syntax.Walk(st, func(n syntax.Node) bool {
			sc, ok := n.(*syntax.SimpleCommand)
			if !ok {
				return true
			}
			if sc.Name() == "cd" {
				// `cd` with a static "." or "" target changes nothing.
				if len(sc.Args) > 1 && sc.Args[1].IsStatic() && sc.Args[1].StaticValue() == "." {
					return true
				}
				cdSeen = true
				cdLine = sc.Pos().Line
				return true
			}
			s := analysis.SummarizeCommand(sc, l.Lib)
			for _, p := range s.RelativePaths(func(analysis.Op) bool { return true }) {
				if strings.HasPrefix(p, "-") {
					continue
				}
				if !cdSeen {
					if _, seen := preCd[p]; !seen {
						preCd[p] = touch{pos: sc.Pos(), line: sc.Pos().Line}
					}
					continue
				}
				if first, seen := preCd[p]; seen && !reported[p] {
					reported[p] = true
					add(Finding{
						Code: "JSH404", Severity: Warning, Pos: sc.Pos(),
						Message: fmt.Sprintf("relative path %q was used at line %d, but the cd at line %d makes it name a different file here",
							p, first.line, cdLine),
						Suggestion: "use an absolute path, or anchor paths to a variable set before the cd",
					})
				}
			}
			return true
		})
	}
}
