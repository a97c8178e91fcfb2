// The abstract interpreter: a flow-sensitive walk of a script that
// propagates AbsVals along the same scope structure the def-use analysis
// models — sequential composition threads one Env, subshells and pipeline
// stages walk clones that are then discarded, branches walk clones that
// join back, and loops widen every loop-carried name to ⊤ before entering
// the body. ApplyStmt is the single-statement transfer function the list
// parallelizer threads through its planning loop; WalkValues drives the
// lint rules, the precision report, and the golden env-dump tests.
package analysis

import (
	"strings"

	"jash/internal/expand"
	"jash/internal/syntax"
)

// ValueVisitor receives callbacks during WalkValues, each with the
// abstract environment as of the program point just before the node runs.
type ValueVisitor struct {
	// Simple is called for every simple command, anywhere in the script.
	Simple func(sc *syntax.SimpleCommand, env *Env)
	// If is called for every if clause (elif arms are nested IfClauses
	// and get their own calls).
	If func(ic *syntax.IfClause, env *Env)
	// While is called for every while/until clause, before widening.
	While func(wc *syntax.WhileClause, env *Env)
}

// WalkValues runs the abstract interpreter over a whole script, invoking
// the visitor's hooks, and returns the final environment (the abstract
// state after the last top-level statement). A nil env starts from the
// all-⊤ static environment; a nil visitor just computes the final state.
func WalkValues(script *syntax.Script, env *Env, vis *ValueVisitor) *Env {
	if env == nil {
		env = NewEnv(nil)
	}
	w := &vwalker{vis: vis}
	w.stmts(env, script.Stmts)
	return env
}

// ApplyStmt is the transfer function for one statement: it updates env
// with the statement's variable effects, binding bare assignments
// precisely and widening everything else it may assign — in its own words
// and builtins, and in the bodies of the functions it calls, which funcBody
// resolves (nil: no function is known) — to ⊤.
func ApplyStmt(env *Env, st *syntax.Stmt, funcBody func(string) syntax.Command) {
	w := &vwalker{outer: funcBody}
	w.stmt(env, st)
}

type vwalker struct {
	vis *ValueVisitor
	// funcs are the functions declared so far in this walk; outer resolves
	// the ones declared before it began.
	funcs map[string]syntax.Command
	outer func(string) syntax.Command
}

// funcBody resolves a function name as of the walk's current point.
func (w *vwalker) funcBody(name string) syntax.Command {
	if body := w.funcs[name]; body != nil || w.outer == nil {
		return body
	}
	return w.outer(name)
}

// widen forgets what AssignedBy says node may assign.
func (w *vwalker) widen(env *Env, node syntax.Node) (names map[string]bool, any bool) {
	names, any = AssignedBy(node, w.funcBody)
	if any {
		env.WidenAll()
	}
	for name := range names {
		env.Bind(name, Top())
	}
	return names, any
}

func (w *vwalker) stmts(env *Env, stmts []*syntax.Stmt) {
	for _, st := range stmts {
		w.stmt(env, st)
	}
}

func (w *vwalker) stmt(env *Env, st *syntax.Stmt) {
	if st == nil || st.AndOr == nil {
		return
	}
	if st.Background {
		// Background jobs assign in a subshell copy: walk and discard.
		bg := env.Clone()
		w.andor(bg, st.AndOr)
		return
	}
	w.andor(env, st.AndOr)
}

func (w *vwalker) andor(env *Env, ao *syntax.AndOr) {
	w.pipeline(env, ao.First)
	for _, part := range ao.Rest {
		// && / || continuations run conditionally: join their effects.
		br := env.Clone()
		w.pipeline(br, part.Pipe)
		env.JoinWith(br)
	}
}

func (w *vwalker) pipeline(env *Env, pl *syntax.Pipeline) {
	if pl == nil {
		return
	}
	if len(pl.Cmds) == 1 {
		w.command(env, pl.Cmds[0])
		return
	}
	// Multi-stage pipelines run every stage in a subshell copy.
	for _, cmd := range pl.Cmds {
		stage := env.Clone()
		w.command(stage, cmd)
	}
}

func (w *vwalker) command(env *Env, cmd syntax.Command) {
	switch c := cmd.(type) {
	case *syntax.SimpleCommand:
		w.simple(env, c)
	case *syntax.Subshell:
		sub := env.Clone()
		w.stmts(sub, c.Body)
		w.widenRedirs(env, c.Redirections)
	case *syntax.BraceGroup:
		w.stmts(env, c.Body)
		w.widenRedirs(env, c.Redirections)
	case *syntax.IfClause:
		if w.vis != nil && w.vis.If != nil {
			w.vis.If(c, env)
		}
		w.stmts(env, c.Cond)
		then := env.Clone()
		w.stmts(then, c.Then)
		els := env.Clone()
		w.stmts(els, c.Else)
		env.JoinWith(then)
		env.JoinWith(els)
		w.widenRedirs(env, c.Redirections)
	case *syntax.WhileClause:
		if w.vis != nil && w.vis.While != nil {
			w.vis.While(c, env)
		}
		// Loop-carried values: widen every name the condition or body can
		// assign to ⊤ before walking, so iteration N's bindings never leak
		// a previous iteration's constant.
		w.widen(env, c)
		body := env.Clone()
		w.stmts(body, c.Cond)
		w.stmts(body, c.Body)
		w.widenRedirs(env, c.Redirections)
	case *syntax.ForClause:
		// Items expand once, in the pre-loop environment.
		items, itemsExact := w.forItems(env, c)
		names, any := w.widen(env, &syntax.BraceGroup{Body: c.Body})
		// item is what the variable holds when an iteration starts.
		item := Top()
		if itemsExact && len(items) > 0 {
			item = items[0]
			for _, it := range items[1:] {
				item = Join(item, it)
			}
		}
		body := env.Clone()
		body.Bind(c.Name, item)
		w.stmts(body, c.Body)
		// POSIX leaves the variable bound to the last item (or any item,
		// at a break); joining all items covers every exit point. A body
		// that assigns the variable leaves what it assigned, and an empty
		// literal list never touches it.
		switch {
		case any || names[c.Name]:
			env.Bind(c.Name, Top())
		case !itemsExact || len(items) > 0:
			env.Bind(c.Name, item)
		}
		w.widenRedirs(env, c.Redirections)
	case *syntax.CaseClause:
		w.word(env, c.Word)
		// Patterns expand until one matches; a word's effects only widen,
		// which covers the ones that never were.
		for _, item := range c.Items {
			for _, pat := range item.Patterns {
				w.word(env, pat)
			}
		}
		var branches []*Env
		for _, item := range c.Items {
			br := env.Clone()
			w.stmts(br, item.Body)
			branches = append(branches, br)
		}
		for _, br := range branches {
			env.JoinWith(br)
		}
		w.widenRedirs(env, c.Redirections)
	case *syntax.FuncDecl:
		if w.funcs == nil {
			w.funcs = map[string]syntax.Command{}
		}
		w.funcs[c.Name] = c.Body
		// The body runs later, with unknown globals and positionals.
		fe := NewEnv(nil)
		w.command(fe, c.Body)
	}
}

// forItems abstractly expands a for loop's word list.
func (w *vwalker) forItems(env *Env, c *syntax.ForClause) ([]AbsVal, bool) {
	if !c.InPresent {
		return nil, false // `for x` iterates "$@"
	}
	var items []AbsVal
	for _, word := range c.Words {
		w.word(env, word)
		fs, exact := FieldsOf(word, env)
		if !exact {
			return nil, false
		}
		for _, f := range fs {
			if f.Globbable {
				return nil, false
			}
			items = append(items, f.Val)
		}
	}
	return items, true
}

func (w *vwalker) simple(env *Env, sc *syntax.SimpleCommand) {
	if w.vis != nil && w.vis.Simple != nil {
		w.vis.Simple(sc, env)
	}
	// Assigning expansions anywhere in the command assign; command
	// substitution bodies run on environment copies.
	for _, a := range sc.Assigns {
		w.word(env, a.Value)
	}
	for _, arg := range sc.Args {
		w.word(env, arg)
	}
	w.widenRedirs(env, sc.Redirections)
	if len(sc.Args) == 0 {
		// Bare assignments bind precisely, left to right, each value
		// evaluated in the environment the previous ones produced.
		for _, a := range sc.Assigns {
			if a.Value == nil {
				env.Bind(a.Name, Const(""))
				continue
			}
			env.Bind(a.Name, EvalWordAbs(a.Value, env))
		}
		return
	}
	// `FOO=1 cmd` scopes the assignment to cmd: no persistent binding.
	row, name, builtin := builtinOf(sc)
	ops, exact := row.operands(sc)
	switch {
	case row.anything:
		env.WidenAll()
	case row.names == declOperands:
		// Evaluated, not just read for their names: name=value binds.
		for _, arg := range sc.Args[1:] {
			w.declOperand(env, arg)
		}
	case !exact:
		env.WidenAll() // a dynamic name: it could be any variable
	}
	for _, op := range ops {
		switch {
		case row.unsets:
			env.UnsetVar(op.name)
		case row.names != declOperands || row.def == DefLocal && !op.hasValue:
			// (A bare `local x` is empty in a function, unchanged outside.)
			env.Bind(op.name, Top())
		}
	}
	for _, n := range row.implicit {
		env.Bind(n, Top())
	}
	if row.params {
		env.ClearParams()
	}
	if body := w.funcBody(name); !builtin && body != nil {
		w.widen(env, body)
	}
}

// declOperand models one export/readonly/local argument: name=value binds
// abstractly when the single expanded field is decipherable, a flag or a
// bare name changes no value, and anything dynamic widens conservatively.
func (w *vwalker) declOperand(env *Env, arg *syntax.Word) {
	fs, exact := FieldsOf(arg, env)
	if exact && len(fs) == 1 && !fs[0].Globbable && !fs[0].Val.IsTop() {
		v := fs[0].Val
		n, rest, found := strings.Cut(v.Str, "=")
		switch {
		case found && isVarName(n) && v.IsConst():
			env.Bind(n, Const(rest))
			return
		case found && isVarName(n):
			env.Bind(n, Prefix(rest))
			return
		case v.IsConst():
			return
		}
	}
	// The assigned name itself is unknown: anything may have changed.
	env.WidenAll()
}

// word applies what expanding one word does to the environment: assigning
// expansions widen their target to ⊤, arithmetic that may assign anything
// widens everything, and command-substitution bodies walk on discarded
// copies.
func (w *vwalker) word(env *Env, word *syntax.Word) {
	if word == nil {
		return
	}
	d := expand.AnalyzeWord(word)
	if opaque(d, env) {
		env.WidenAll()
	}
	for _, e := range d.Effects {
		switch e.Kind {
		case expand.EffectAssign:
			env.Bind(e.Name, Top())
		case expand.EffectSubst:
			w.stmts(env.Clone(), e.Body)
		}
	}
}

func (w *vwalker) widenRedirs(env *Env, rs []*syntax.Redirect) {
	for _, r := range rs {
		w.word(env, r.Target)
		w.word(env, r.Body)
	}
}
