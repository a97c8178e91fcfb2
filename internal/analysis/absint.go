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
	"sort"
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
	w := &vwalker{vis: vis, funcAssigns: map[string][]string{}}
	w.stmts(env, script.Stmts)
	return env
}

// ApplyStmt is the transfer function for one statement: it updates env
// with the statement's variable effects, binding bare assignments
// precisely and widening everything else it may assign to ⊤. Callers that
// know about additional defs the syntax does not show (function calls
// resolved through effect summaries) must widen those themselves — see
// AssignedNames.
func ApplyStmt(env *Env, st *syntax.Stmt) {
	w := &vwalker{funcAssigns: map[string][]string{}}
	w.stmt(env, st)
}

// AssignedNames returns the variables a statement syntactically assigns
// anywhere in its subtree (the set ApplyStmt accounts for).
func AssignedNames(st *syntax.Stmt) map[string]bool {
	set := map[string]bool{}
	collectAssignedInto(st, set)
	return set
}

// interpBuiltins are the names the interpreter dispatches as special
// builtins before consulting the function table: a function with one of
// these names never runs, so value flow must not treat a call to it as a
// function call. It mirrors interp's builtin registry, which this package
// does not import; core's TestAnalysisKnowsEveryInterpreterBuiltin holds
// the two equal.
var interpBuiltins = map[string]bool{
	":": true, "cd": true, "pwd": true, "export": true, "readonly": true,
	"unset": true, "set": true, "shift": true, "exit": true, "return": true,
	"break": true, "continue": true, "eval": true, "read": true, "type": true,
	"wait": true, "umask": true, "trap": true, "getopts": true, "exec": true,
	"local": true,
}

// InterpBuiltins lists interpBuiltins, sorted.
func InterpBuiltins() []string {
	names := make([]string, 0, len(interpBuiltins))
	for n := range interpBuiltins {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

type vwalker struct {
	vis *ValueVisitor
	// funcAssigns: function name -> variables its body may assign, so a
	// later call site widens them.
	funcAssigns map[string][]string
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
		set := map[string]bool{}
		for _, st := range c.Cond {
			collectAssignedInto(st, set)
		}
		for _, st := range c.Body {
			collectAssignedInto(st, set)
		}
		for name := range set {
			env.Bind(name, Top())
		}
		body := env.Clone()
		w.stmts(body, c.Cond)
		w.stmts(body, c.Body)
		w.widenRedirs(env, c.Redirections)
	case *syntax.ForClause:
		// Items expand once, in the pre-loop environment.
		items, itemsExact := w.forItems(env, c)
		set := map[string]bool{}
		for _, st := range c.Body {
			collectAssignedInto(st, set)
		}
		for name := range set {
			env.Bind(name, Top())
		}
		body := env.Clone()
		if itemsExact && len(items) > 0 {
			j := items[0]
			for _, it := range items[1:] {
				j = Join(j, it)
			}
			body.Bind(c.Name, j)
		} else {
			body.Bind(c.Name, Top())
		}
		w.stmts(body, c.Body)
		// POSIX leaves the variable bound to the last item (or any item,
		// at a break); joining all items covers every exit point. An
		// empty literal list never touches the variable.
		if itemsExact {
			if len(items) > 0 {
				j := items[0]
				for _, it := range items[1:] {
					j = Join(j, it)
				}
				env.Bind(c.Name, j)
			}
		} else {
			env.Bind(c.Name, Top())
		}
		w.widenRedirs(env, c.Redirections)
	case *syntax.CaseClause:
		w.widenWordAssigns(env, c.Word)
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
		w.funcAssigns[c.Name] = collectAssignedNames(c.Body)
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
		w.widenWordAssigns(env, word)
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
	// ${x=w} expansions anywhere in the command assign; command
	// substitution bodies run on environment copies.
	for _, a := range sc.Assigns {
		w.widenWordAssigns(env, a.Value)
	}
	for _, arg := range sc.Args {
		w.widenWordAssigns(env, arg)
	}
	for _, r := range sc.Redirections {
		w.widenWordAssigns(env, r.Target)
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
	// `FOO=1 cmd` scopes the assignment to cmd: no persistent binding.
	name := sc.Name()
	switch name {
	case "unset":
		for _, arg := range sc.Args[1:] {
			lit := staticName(arg)
			if lit == "" {
				env.WidenAll() // dynamic name: could unset anything
				return
			}
			if strings.HasPrefix(lit, "-") {
				continue
			}
			env.UnsetVar(lit)
		}
	case "export", "readonly", "local":
		for _, arg := range sc.Args[1:] {
			w.exportArg(env, arg)
		}
	case "read":
		for _, arg := range sc.Args[1:] {
			lit := staticName(arg)
			if lit == "" {
				env.WidenAll()
				return
			}
			if isVarName(lit) {
				env.Bind(lit, Top())
			}
		}
	case "getopts":
		if len(sc.Args) >= 3 {
			if lit := staticName(sc.Args[2]); isVarName(lit) {
				env.Bind(lit, Top())
			} else {
				env.WidenAll()
				return
			}
		}
		env.Bind("OPTARG", Top())
		env.Bind("OPTIND", Top())
	case "shift", "set":
		env.ClearParams()
	case "eval", ".", "source":
		env.WidenAll()
	default:
		// A call to a user-defined function may assign its recorded
		// names. Builtins shadow functions, so skip those names.
		if !interpBuiltins[name] {
			if names, ok := w.funcAssigns[name]; ok {
				for _, n := range names {
					env.Bind(n, Top())
				}
			}
		}
	}
}

// exportArg models one export/readonly/local argument: name=value binds
// abstractly when the single expanded field is decipherable, a bare name
// changes no value, and anything dynamic widens conservatively.
func (w *vwalker) exportArg(env *Env, arg *syntax.Word) {
	if lit := arg.Lit(); lit != "" {
		if strings.HasPrefix(lit, "-") {
			return
		}
		if !strings.Contains(lit, "=") {
			return // flag-only declaration: value unchanged
		}
	}
	fs, exact := FieldsOf(arg, env)
	if exact && len(fs) == 1 && !fs[0].Globbable {
		v := fs[0].Val
		if v.Kind == AbsConst || v.Kind == AbsPrefix {
			if n, rest, found := strings.Cut(v.Str, "="); found && isVarName(n) {
				if v.Kind == AbsConst {
					env.Bind(n, Const(rest))
				} else {
					env.Bind(n, Prefix(rest))
				}
				return
			}
			if v.Kind == AbsConst {
				return // bare name or junk: no value change
			}
		}
	}
	// The assigned name itself is unknown: anything may have changed.
	env.WidenAll()
}

// staticName returns the statically-known expansion of a word, or ""
// when the word is dynamic.
func staticName(w *syntax.Word) string {
	if w == nil || !w.IsStatic() {
		return ""
	}
	return w.StaticValue()
}

// widenWordAssigns widens every ${x=w} and $((x=1)) target inside a word
// to ⊤ and walks command-substitution bodies on discarded environment copies.
func (w *vwalker) widenWordAssigns(env *Env, word *syntax.Word) {
	if word == nil {
		return
	}
	syntax.Walk(word, func(n syntax.Node) bool {
		switch p := n.(type) {
		case *syntax.ParamExp:
			if p.Op == syntax.ParamAssign && isVarName(p.Name) {
				env.Bind(p.Name, Top())
			}
		case *syntax.ArithExp:
			a, err := expand.CompileArithExpr(p.Expr)
			if err != nil {
				env.WidenAll() // what it assigns is unknown until expanded
				break
			}
			_, assigns := a.Names()
			for _, name := range assigns {
				env.Bind(name, Top())
			}
		case *syntax.CmdSubst:
			sub := env.Clone()
			w.stmts(sub, p.Stmts)
			return false
		}
		return true
	})
}

func (w *vwalker) widenRedirs(env *Env, rs []*syntax.Redirect) {
	for _, r := range rs {
		w.widenWordAssigns(env, r.Target)
	}
}
