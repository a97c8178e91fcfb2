// The abstract interpreter: a flow-sensitive walk of a script that
// propagates AbsVals along its scope structure — sequential composition
// threads one Env, subshells and pipeline stages walk clones that are then
// discarded, branches walk clones that join back, and loops widen every
// loop-carried name to ⊤ before entering the body. The same walk collects
// the def-use chains (defuse.go), carried by the Env at each point, and the
// effect summaries (stmt.go), carried by its sink.
//
// WalkValues drives the lint rules, the precision report, and the golden
// env-dump tests. SummarizeStmtOpts walks one statement with a sink — the
// transfer function the list parallelizer threads through its planning
// loop — and FuncSummarizer walks a function body with one.
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
// state after the last top-level statement) and the def-use chains the
// walk collected. A nil env starts from the all-⊤ static environment; a
// nil visitor just computes the final state.
func WalkValues(script *syntax.Script, env *Env, vis *ValueVisitor) (*Env, *DefUse) {
	if env == nil {
		env = NewEnv(nil)
	}
	du := &DefUse{}
	env.flow = newFlow(du)
	w := &vwalker{vis: vis}
	w.stmts(env, script.Stmts)
	env.flow.finish()
	env.flow = nil
	return env, du
}

type vwalker struct {
	vis *ValueVisitor
	// funcs are the functions declared so far in this walk; outer resolves
	// the ones declared before it began.
	funcs map[string]syntax.Command
	outer func(string) syntax.Command
	// sum, when set, folds each simple command's effects into a summary
	// before the command's transfer. The walk mutes it (sets it nil) in
	// whatever the sink's policy does not admit, so nothing nested there
	// is collected; the transfer goes on.
	sum *sink
}

// mute stops the sink until the returned function restores it.
func (w *vwalker) mute() (restore func()) {
	s := w.sum
	w.sum = nil
	return func() { w.sum = s }
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

// branch clones env for code that may not run: its definitions are
// conditional.
func branch(env *Env) *Env {
	c := env.Clone()
	if c.flow != nil {
		c.flow.conditional = true
	}
	return c
}

// subshell clones env for code that runs in a copy of the shell: what it
// assigns is discarded, and what it defines overwrites no parent definition.
func subshell(env *Env) *Env {
	c := env.Clone()
	if c.flow != nil {
		c.flow.enterSubshell()
	}
	return c
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
		if w.sum != nil && !w.sum.background() {
			defer w.mute()()
		}
		w.andor(subshell(env), st.AndOr)
		return
	}
	w.andor(env, st.AndOr)
}

func (w *vwalker) andor(env *Env, ao *syntax.AndOr) {
	s := w.sum
	admitted := s == nil || len(ao.Rest) == 0 || s.admitAndOr()
	w.pipeline(env, ao.First)
	switch {
	case !admitted:
		defer w.mute()()
	case s != nil && len(ao.Rest) > 0:
		s.conditional = true
		defer func() { s.conditional = false }()
	}
	for _, part := range ao.Rest {
		// && / || continuations run conditionally: join their effects.
		br := branch(env)
		w.pipeline(br, part.Pipe)
		env.JoinWith(br)
	}
}

func (w *vwalker) pipeline(env *Env, pl *syntax.Pipeline) {
	if pl == nil {
		return
	}
	for i, cmd := range pl.Cmds {
		if w.sum != nil {
			w.sum.stage, w.sum.multi = i, len(pl.Cmds) > 1
		}
		if len(pl.Cmds) == 1 {
			w.command(env, cmd)
			return
		}
		// Multi-stage pipelines run every stage in a subshell copy.
		stage := subshell(env)
		w.command(stage, cmd)
		// JSH302 owns while-loops as pipeline tails; everything else
		// feeds the lost-assignment tracker.
		if _, isWhile := cmd.(*syntax.WhileClause); !isWhile {
			env.flow.recordLost(stage.flow)
		}
	}
}

func (w *vwalker) command(env *Env, cmd syntax.Command) {
	if sc, ok := cmd.(*syntax.SimpleCommand); ok {
		w.simple(env, sc)
		return
	}
	if w.sum != nil {
		w.sum.compound()
		defer w.mute()()
	}
	switch c := cmd.(type) {
	case *syntax.Subshell:
		sub := subshell(env)
		w.stmts(sub, c.Body)
		env.flow.recordLost(sub.flow)
		w.widenRedirs(env, c.Redirections)
	case *syntax.BraceGroup:
		w.stmts(env, c.Body)
		w.widenRedirs(env, c.Redirections)
	case *syntax.IfClause:
		if w.vis != nil && w.vis.If != nil {
			w.vis.If(c, env)
		}
		w.stmts(env, c.Cond)
		then := branch(env)
		w.stmts(then, c.Then)
		els := branch(env)
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
		// a previous iteration's constant. The body's definitions stay
		// visible after it.
		w.widen(env, c)
		body := branch(env)
		w.stmts(body, c.Cond)
		w.stmts(body, c.Body)
		env.flow.merge(body.flow)
		w.widenRedirs(env, c.Redirections)
	case *syntax.ForClause:
		// Items expand once, in the pre-loop environment.
		items, itemsExact := w.forItems(env, c)
		if env.flow != nil {
			env.flow.define(c.Name, c.Pos(), DefFor, true)
		}
		names, any := w.widen(env, &syntax.BraceGroup{Body: c.Body})
		// item is what the variable holds when an iteration starts.
		item := Top()
		if itemsExact && len(items) > 0 {
			item = items[0]
			for _, it := range items[1:] {
				item = Join(item, it)
			}
		}
		body := branch(env)
		body.Bind(c.Name, item)
		w.stmts(body, c.Body)
		env.flow.merge(body.flow)
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
		w.word(env, c.Word, "")
		// Patterns expand until one matches; a word's effects only widen,
		// which covers the ones that never were.
		for _, item := range c.Items {
			for _, pat := range item.Patterns {
				w.word(env, pat, "")
			}
		}
		var branches []*Env
		for _, item := range c.Items {
			br := branch(env)
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
		// The body runs later, with unknown globals and positionals, in a
		// frame of its own that sees the definitions made so far.
		fe := NewEnv(nil)
		if env.flow != nil {
			fe.flow = env.flow.clone()
			fe.flow.enterFunc()
		}
		w.command(fe, c.Body)
	}
}

// forItems abstractly expands a for loop's word list.
func (w *vwalker) forItems(env *Env, c *syntax.ForClause) ([]AbsVal, bool) {
	if !c.InPresent {
		return nil, false // `for x` iterates "$@"
	}
	var items []AbsVal
	exact := true
	for _, word := range c.Words {
		w.word(env, word, "")
		if !exact {
			continue
		}
		fs, ok := FieldsOf(word, env)
		exact = ok
		for _, f := range fs {
			exact = exact && !f.Globbable
			items = append(items, f.Val)
		}
	}
	if !exact {
		return nil, false
	}
	return items, true
}

func (w *vwalker) simple(env *Env, sc *syntax.SimpleCommand) {
	if w.vis != nil && w.vis.Simple != nil {
		w.vis.Simple(sc, env)
	}
	// The sink folds the command's filesystem effects and blockers against
	// the state it runs in; its words' reads and assignments it takes from
	// the walk's own word analysis below.
	declares := w.sum != nil && w.sum.simple(env, sc)
	f := env.flow
	// Assigning expansions anywhere in the command assign; command
	// substitution bodies run on environment copies. `FOO=1 cmd` scopes
	// the assignment to cmd: no persistent binding.
	tempEnv := len(sc.Args) > 0
	for _, a := range sc.Assigns {
		if !tempEnv {
			w.sum.def(a.Name)
		}
		runs := w.word(env, a.Value, a.Name)
		switch {
		case f == nil:
		case tempEnv:
			f.define(a.Name, a.Pos(), DefTempEnv, true).Uses = 1 // feeds cmd's environment
		default:
			f.define(a.Name, a.Pos(), DefAssign, f.conditional).HasCmdSubst = runs
		}
	}
	for _, arg := range sc.Args {
		w.word(env, arg, "")
	}
	w.widenRedirs(env, sc.Redirections)
	if declares {
		// After the words: `local x=$x` reads the caller's x.
		w.sum.operands(sc)
	}
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
	if row.anything || !exact {
		f.useAll()
	}
	for _, op := range ops {
		switch {
		case row.unsets:
			env.UnsetVar(op.name)
		case row.names != declOperands || row.def == DefLocal && !op.hasValue:
			// (A bare `local x` is empty in a function, unchanged outside.)
			env.Bind(op.name, Top())
		}
		switch {
		case f == nil:
		case row.unsets:
			delete(f.defs, op.name)
		case row.def == DefExport && !op.hasValue:
			f.use(op.name, op.word.Pos(), true)
		default:
			// Bare `local x` declares without a meaningful value; the
			// conditional flag keeps it out of dead-store reports.
			f.define(op.name, op.word.Pos(), row.def,
				f.conditional || row.def == DefGetopts || row.def == DefLocal && !op.hasValue)
		}
		if f != nil && name == "export" {
			f.st.exported[op.name] = true
		}
	}
	if f != nil && name == "set" && setsAllExport(sc.Args[1:]) {
		f.st.allExport = true
	}
	for _, n := range row.implicit {
		env.Bind(n, Top())
		if f != nil {
			f.define(n, sc.Pos(), row.def, true)
		}
	}
	if row.params {
		env.ClearParams()
	}
	if builtin {
		if row.runs {
			f.useExported() // exec runs a utility
		}
		return
	}
	body := w.funcBody(name)
	if body == nil {
		f.useExported() // a utility reads the exported names
		return
	}
	// A call runs the body, which may read any visible binding and
	// assigns what AssignedBy says.
	names, _ := w.widen(env, body)
	if f != nil {
		f.useAll()
		for _, n := range SortedNames(names) {
			f.define(n, sc.Pos(), DefAssign, true)
		}
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
// copies. It records the word's reads, and reports whether it runs
// commands. assignTo names the variable the word is being assigned to, if
// any: in `PATH=$PATH:/x` the read of PATH never reports use-before-assign
// (appending to a possibly-ambient value is idiomatic). Arithmetic reads
// arrive guarded: unset variables evaluate as 0 inside $((...)), so
// counters initialized implicitly (`n=$((n+1))`) are idiomatic too.
func (w *vwalker) word(env *Env, word *syntax.Word, assignTo string) (runs bool) {
	if word == nil {
		return false
	}
	d := expand.AnalyzeWord(word)
	f, s := env.flow, w.sum
	if opaque(d, env) {
		s.block("$((...)) in %s is not an expression until it is expanded", syntax.PrintWord(word))
		env.WidenAll()
		f.useAll()
	} else if s != nil && divides(word) {
		s.block("$((...)) in %s may divide by zero, which ends the shell", syntax.PrintWord(word))
	}
	for _, e := range d.Effects {
		switch e.Kind {
		case expand.EffectRead:
			f.use(e.Name, e.Pos, e.Guarded || e.Name == assignTo)
			s.read(e.Name)
		case expand.EffectAssign:
			env.Bind(e.Name, Top())
			s.def(e.Name)
			if f != nil && isVarName(e.Name) && f.defs[e.Name] == nil {
				f.define(e.Name, e.Pos, DefParam, true)
			}
		case expand.EffectAbort:
			s.block("${%s?...} may abort the shell", e.Name)
		case expand.EffectSubst:
			s.block("command substitution runs arbitrary commands")
			restore := w.mute()
			w.stmts(subshell(env), e.Body)
			restore()
		}
	}
	return d.HasCmdSubst
}

func (w *vwalker) widenRedirs(env *Env, rs []*syntax.Redirect) {
	for _, r := range rs {
		w.word(env, r.Target, "")
		w.word(env, r.Body, "")
	}
}
