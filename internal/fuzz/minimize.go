package fuzz

import (
	"strings"

	"jash/internal/syntax"
)

// CountNodes counts AST nodes under n — the size metric the minimizer
// drives down and triage reports.
func CountNodes(n syntax.Node) int {
	count := 0
	syntax.Walk(n, func(syntax.Node) bool { count++; return true })
	return count
}

// Minimize delta-debugs the program down to a small reproducer: it
// repeatedly applies structural reductions — statement removal, compound
// hoisting, pipeline-stage and and-or pruning, redirect/assign/argument
// dropping, word simplification — keeping a candidate only when keep
// still holds, until no reduction applies or the trial budget runs out.
// The process is deterministic: passes and candidates are enumerated in
// traversal order, so the same input shrinks to the same output.
func Minimize(p Program, keep func(Program) bool, maxTrials int) Program {
	if maxTrials <= 0 {
		maxTrials = 800
	}
	cur, ok := reparse(p)
	if !ok || !keep(cur) {
		return p
	}
	trials := 0
	// try re-prints the candidate, validates it, and tests the predicate.
	try := func(cand *syntax.Script) bool {
		if trials >= maxTrials || len(cand.Stmts) == 0 {
			return false
		}
		src := syntax.Print(cand)
		re, err := syntax.Parse(src)
		if err != nil || src == cur.Source { // (a cut in a here-document's parsed body prints the same)
			return false
		}
		trials++
		np := Program{Seed: p.Seed, Script: re, Source: src, Fixture: p.Fixture}
		if keep(np) {
			cur = np
			return true
		}
		return false
	}
	for shrunk := true; shrunk && trials < maxTrials; {
		shrunk = false
		for _, pass := range []func(Program, func(*syntax.Script) bool) bool{
			passRemoveStmts, passHoist, passPipeline, passAndOr,
			passForWords, passSimple,
		} {
			for pass(cur, try) {
				shrunk = true
			}
		}
	}
	return cur
}

// reparse normalizes a program through the printer so the minimizer works
// on an AST it owns.
func reparse(p Program) (Program, bool) {
	sc, err := syntax.Parse(p.Source)
	if err != nil || len(sc.Stmts) == 0 {
		return p, false
	}
	return Program{Seed: p.Seed, Script: sc, Source: syntax.Print(sc), Fixture: p.Fixture}, true
}

// refs indexes the mutable locations of a script in traversal order. Both
// a script and its reparsed clone yield structurally identical tables, so
// an index computed on one addresses the same location in the other.
type refs struct {
	lists   []*[]*syntax.Stmt
	pipes   []*syntax.Pipeline
	andors  []*syntax.AndOr
	simples []*syntax.SimpleCommand
	fors    []*syntax.ForClause
}

func collect(sc *syntax.Script) *refs {
	r := &refs{}
	syntax.Walk(sc, func(n syntax.Node) bool {
		switch x := n.(type) {
		case *syntax.Script:
			r.lists = append(r.lists, &x.Stmts)
		case *syntax.Subshell:
			r.lists = append(r.lists, &x.Body)
		case *syntax.BraceGroup:
			r.lists = append(r.lists, &x.Body)
		case *syntax.IfClause:
			r.lists = append(r.lists, &x.Cond, &x.Then)
			if len(x.Else) > 0 {
				r.lists = append(r.lists, &x.Else)
			}
		case *syntax.WhileClause:
			r.lists = append(r.lists, &x.Cond, &x.Body)
		case *syntax.ForClause:
			r.lists = append(r.lists, &x.Body)
			r.fors = append(r.fors, x)
		case *syntax.CaseItem:
			if len(x.Body) > 0 {
				r.lists = append(r.lists, &x.Body)
			}
		case *syntax.CmdSubst:
			r.lists = append(r.lists, &x.Stmts)
		case *syntax.AndOr:
			r.andors = append(r.andors, x)
		case *syntax.Pipeline:
			r.pipes = append(r.pipes, x)
		case *syntax.SimpleCommand:
			r.simples = append(r.simples, x)
		}
		return true
	})
	return r
}

// clone duplicates the current AST by printing and re-parsing it; the
// printer/parser round-trip invariant guarantees structural identity.
func clone(p Program) *syntax.Script {
	sc, err := syntax.Parse(syntax.Print(p.Script))
	if err != nil {
		return nil
	}
	return sc
}

// passRemoveStmts tries deleting one statement from every statement list.
// Lists inside compound commands keep at least one element (the printer
// cannot render empty bodies); the top-level list keeps one too.
func passRemoveStmts(cur Program, try func(*syntax.Script) bool) bool {
	base := collect(cur.Script)
	for li := range base.lists {
		for ei := range *base.lists[li] {
			if len(*base.lists[li]) <= 1 {
				continue
			}
			cand := clone(cur)
			if cand == nil {
				return false
			}
			list := collect(cand).lists[li]
			*list = append(append([]*syntax.Stmt{}, (*list)[:ei]...), (*list)[ei+1:]...)
			if try(cand) {
				return true
			}
		}
	}
	return false
}

// hoistBodies returns the statement lists a compound command could be
// replaced by, strongest reduction first.
func hoistBodies(c syntax.Command) [][]*syntax.Stmt {
	switch x := c.(type) {
	case *syntax.Subshell:
		return [][]*syntax.Stmt{x.Body}
	case *syntax.BraceGroup:
		return [][]*syntax.Stmt{x.Body}
	case *syntax.IfClause:
		return [][]*syntax.Stmt{x.Then, x.Else, x.Cond}
	case *syntax.WhileClause:
		return [][]*syntax.Stmt{x.Body, x.Cond}
	case *syntax.ForClause:
		return [][]*syntax.Stmt{x.Body}
	case *syntax.CaseClause:
		var out [][]*syntax.Stmt
		for _, item := range x.Items {
			out = append(out, item.Body)
		}
		return out
	case *syntax.FuncDecl:
		return [][]*syntax.Stmt{{&syntax.Stmt{AndOr: &syntax.AndOr{
			First: &syntax.Pipeline{Cmds: []syntax.Command{x.Body}}}}}}
	}
	return nil
}

// passHoist replaces a statement holding a compound command with the
// compound's body, flattening one nesting level.
func passHoist(cur Program, try func(*syntax.Script) bool) bool {
	base := collect(cur.Script)
	for li := range base.lists {
		for ei, st := range *base.lists[li] {
			if len(st.AndOr.Rest) > 0 || len(st.AndOr.First.Cmds) != 1 {
				continue
			}
			variants := hoistBodies(st.AndOr.First.Cmds[0])
			for vi, body := range variants {
				if len(body) == 0 {
					continue
				}
				cand := clone(cur)
				if cand == nil {
					return false
				}
				list := collect(cand).lists[li]
				cst := (*list)[ei]
				cbody := hoistBodies(cst.AndOr.First.Cmds[0])[vi]
				repl := append([]*syntax.Stmt{}, (*list)[:ei]...)
				repl = append(repl, cbody...)
				repl = append(repl, (*list)[ei+1:]...)
				*list = repl
				if try(cand) {
					return true
				}
			}
		}
	}
	return false
}

// passPipeline tries reducing each multi-stage pipeline to one of its
// stages, and clearing negation.
func passPipeline(cur Program, try func(*syntax.Script) bool) bool {
	base := collect(cur.Script)
	for pi, pl := range base.pipes {
		if pl.Negated {
			cand := clone(cur)
			if cand == nil {
				return false
			}
			collect(cand).pipes[pi].Negated = false
			if try(cand) {
				return true
			}
		}
		if len(pl.Cmds) <= 1 {
			continue
		}
		for ci := range pl.Cmds {
			cand := clone(cur)
			if cand == nil {
				return false
			}
			cpl := collect(cand).pipes[pi]
			cpl.Cmds = []syntax.Command{cpl.Cmds[ci]}
			if try(cand) {
				return true
			}
		}
		// Dropping a single stage (keeping the rest) shrinks more gently.
		for ci := range pl.Cmds {
			cand := clone(cur)
			if cand == nil {
				return false
			}
			cpl := collect(cand).pipes[pi]
			cpl.Cmds = append(append([]syntax.Command{}, cpl.Cmds[:ci]...), cpl.Cmds[ci+1:]...)
			if try(cand) {
				return true
			}
		}
	}
	return false
}

// passAndOr prunes `&&`/`||` continuations.
func passAndOr(cur Program, try func(*syntax.Script) bool) bool {
	base := collect(cur.Script)
	for ai, ao := range base.andors {
		if len(ao.Rest) == 0 {
			continue
		}
		// Drop all continuations, then just the last one.
		cand := clone(cur)
		if cand == nil {
			return false
		}
		collect(cand).andors[ai].Rest = nil
		if try(cand) {
			return true
		}
		cand = clone(cur)
		if cand == nil {
			return false
		}
		cao := collect(cand).andors[ai]
		cao.Rest = cao.Rest[:len(cao.Rest)-1]
		if try(cand) {
			return true
		}
		// Keep only the final continuation's pipeline as the whole list.
		cand = clone(cur)
		if cand == nil {
			return false
		}
		cao = collect(cand).andors[ai]
		cao.First = cao.Rest[len(cao.Rest)-1].Pipe
		cao.Rest = nil
		if try(cand) {
			return true
		}
	}
	return false
}

// passForWords shrinks a for-loop's word list one word at a time (the
// body must still iterate at least once to stay observable).
func passForWords(cur Program, try func(*syntax.Script) bool) bool {
	base := collect(cur.Script)
	for fi, fc := range base.fors {
		if !fc.InPresent || len(fc.Words) <= 1 {
			continue
		}
		for wi := range fc.Words {
			cand := clone(cur)
			if cand == nil {
				return false
			}
			cfc := collect(cand).fors[fi]
			cfc.Words = append(append([]*syntax.Word{},
				cfc.Words[:wi]...), cfc.Words[wi+1:]...)
			if try(cand) {
				return true
			}
		}
	}
	return false
}

// literalPool gathers the program's own literal words (bounded, in
// traversal order): substituting one of them for a complex word often
// keeps a divergence alive where a fixed placeholder would kill it —
// e.g. `for v in unix; do echo $v; done` hoists to `echo unix` only if
// `$v` can become `unix` first.
func literalPool(sc *syntax.Script) []string {
	var pool []string
	seen := map[string]bool{}
	syntax.Walk(sc, func(n syntax.Node) bool {
		if len(pool) >= 8 {
			return false
		}
		if l, ok := n.(*syntax.Lit); ok {
			v := l.Value
			if v != "" && !seen[v] && !strings.ContainsAny(v, " \t\n'\"$\\") {
				seen[v] = true
				pool = append(pool, v)
			}
		}
		return true
	})
	return pool
}

// passSimple shrinks simple commands: drop redirections, assignments,
// and trailing arguments; replace complex words with plain literals.
func passSimple(cur Program, try func(*syntax.Script) bool) bool {
	base := collect(cur.Script)
	for si, sc := range base.simples {
		for ri := range sc.Redirections {
			cand := clone(cur)
			if cand == nil {
				return false
			}
			csc := collect(cand).simples[si]
			csc.Redirections = append(append([]*syntax.Redirect{},
				csc.Redirections[:ri]...), csc.Redirections[ri+1:]...)
			if try(cand) {
				return true
			}
		}
		for ai := range sc.Assigns {
			if len(sc.Assigns) <= 1 && len(sc.Args) == 0 {
				break // an empty simple command does not print
			}
			cand := clone(cur)
			if cand == nil {
				return false
			}
			csc := collect(cand).simples[si]
			csc.Assigns = append(append([]*syntax.Assign{},
				csc.Assigns[:ai]...), csc.Assigns[ai+1:]...)
			if try(cand) {
				return true
			}
		}
		for wi := len(sc.Args) - 1; wi >= 1; wi-- {
			cand := clone(cur)
			if cand == nil {
				return false
			}
			csc := collect(cand).simples[si]
			csc.Args = append(append([]*syntax.Word{},
				csc.Args[:wi]...), csc.Args[wi+1:]...)
			if try(cand) {
				return true
			}
		}
		for wi, w := range sc.Args {
			if w.Lit() != "" {
				continue // already a plain literal
			}
			for _, v := range append([]string{"x"}, literalPool(cur.Script)...) {
				cand := clone(cur)
				if cand == nil {
					return false
				}
				csc := collect(cand).simples[si]
				csc.Args[wi] = &syntax.Word{Parts: []syntax.WordPart{&syntax.Lit{Value: v}}}
				if try(cand) {
					return true
				}
			}
		}
	}
	return false
}

// MinimizeDivergence shrinks the episode's program to a minimal source
// still reproducing the divergence class (kind + oracle) of d under the
// same oracle options. It re-runs the oracle matrix per candidate, so the
// result is the smallest program the reduction passes can reach whose
// episode still contains a divergence of that class.
func MinimizeDivergence(ep *Episode, d Divergence, opts RunOpts, maxTrials int) Program {
	class := d.Class()
	// Behavioural divergences are witnessed by the reference/oracle pair
	// alone, so skip the bystander oracles while shrinking — the full
	// matrix re-confirms the reproducer afterwards. Crash classes keep the
	// original matrix: the crashing oracle is its own witness.
	opts = opts.withDefaults()
	if ref := opts.Oracles[0]; d.Oracle != ref {
		opts.Oracles = []string{ref, d.Oracle}
	} else {
		opts.Oracles = []string{ref}
	}
	keep := func(p Program) bool {
		cand := RunEpisode(p, opts)
		for _, cd := range cand.Divergences {
			if cd.Class() == class {
				return true
			}
		}
		return false
	}
	return Minimize(ep.Program, keep, maxTrials)
}
