package analysis

import (
	"jash/internal/expand"
	"jash/internal/syntax"
)

// DefKind classifies how a variable acquired a value.
type DefKind int

const (
	// DefAssign is a plain `x=value` statement assignment.
	DefAssign DefKind = iota
	// DefRead is a variable set by the `read` builtin.
	DefRead
	// DefFor is a for-loop iteration variable.
	DefFor
	// DefLocal is a `local x=value` function-frame assignment.
	DefLocal
	// DefGetopts is the variable `getopts` cycles through.
	DefGetopts
	// DefParam is a ${x=w} expansion-time assignment.
	DefParam
	// DefTempEnv is a `x=1 cmd` per-command environment binding.
	DefTempEnv
	// DefExport is `export x=value` (or readonly).
	DefExport
)

var defKindNames = [...]string{"assign", "read", "for", "local", "getopts", "param", "temp-env", "export"}

func (k DefKind) String() string { return defKindNames[k] }

// Def is one definition site in the def-use chain.
type Def struct {
	Name string
	Pos  syntax.Pos
	Kind DefKind
	// Conditional marks defs inside branch or loop bodies — they may
	// never execute, so they suppress rather than trigger diagnostics.
	Conditional bool
	// Subshell marks defs made in a subshell copy of the environment:
	// invisible to the parent shell after the subshell exits.
	Subshell bool
	// HasCmdSubst marks values that run commands; overwriting them is
	// not a dead store of work.
	HasCmdSubst bool
	// Uses counts the reads observed while this def was the visible
	// binding.
	Uses int
	// KilledBy is the unconditional same-frame def that overwrote this
	// one while Uses was still zero — the dead-assignment witness.
	KilledBy *Def

	frame int
}

// UseBeforeDef is a read of a variable at a program point before any
// definition, in a scope where a definition does appear later — the
// ordering bug JSH401 reports.
type UseBeforeDef struct {
	Name   string
	UsePos syntax.Pos
	DefPos syntax.Pos
}

// LostAssign is a definition made inside a subshell (or non-loop
// pipeline stage) whose variable the parent scope reads afterwards,
// without an intervening parent definition — the value can never reach
// that read.
type LostAssign struct {
	Def    *Def
	UsePos syntax.Pos
}

// DefUse is the result of the def-use analysis.
type DefUse struct {
	// Defs lists every definition site, in traversal order.
	Defs []*Def
	// UseBeforeDefs lists use-before-assign witnesses.
	UseBeforeDefs []UseBeforeDef
	// Lost lists subshell assignments with unreachable later uses.
	Lost []LostAssign
}

// DeadDefs returns the definitions whose values were provably never
// read: overwritten unconditionally in the same frame before any use.
func (du *DefUse) DeadDefs() []*Def {
	var out []*Def
	for _, d := range du.Defs {
		if d.KilledBy != nil {
			out = append(out, d)
		}
	}
	return out
}

// ambientVars are conventional environment variables a script may read
// without assigning first even when it also assigns them later; they
// never produce use-before-assign findings.
var ambientVars = map[string]bool{
	"HOME": true, "PATH": true, "PWD": true, "OLDPWD": true, "IFS": true,
	"PS1": true, "PS2": true, "PS4": true, "TERM": true, "USER": true,
	"LOGNAME": true, "SHELL": true, "HOSTNAME": true, "LANG": true,
	"TMPDIR": true, "EDITOR": true, "PAGER": true, "MAIL": true,
	"OPTIND": true, "OPTARG": true, "REPLY": true, "LINENO": true,
	"SECONDS": true, "RANDOM": true,
}

// duCtx is the walker's flow state. Sequential statements share one ctx;
// subshells get a cloned bindings map; branch and loop bodies set the
// conditional flag.
type duCtx struct {
	bindings    map[string]*Def
	conditional bool
	subshell    bool
	inFunc      bool
	frame       int
	// loopNames holds the variables assigned anywhere in the enclosing
	// loop bodies (loopAny: possibly all of them): a textual use-before-def
	// inside the loop may be fed by a previous iteration, so it is
	// suppressed.
	loopNames map[string]bool
	loopAny   bool
}

func (c *duCtx) clone() *duCtx {
	nb := make(map[string]*Def, len(c.bindings))
	for k, v := range c.bindings {
		nb[k] = v
	}
	nc := *c
	nc.bindings = nb
	return &nc
}

type lostEntry struct {
	def       *Def
	parentDef *Def // the binding visible to the parent when the subshell ran
}

type duWalker struct {
	res *DefUse
	// pending maps names to root-scope uses seen before any definition.
	pending map[string][]syntax.Pos
	// rootDefs is the first root-frame definition per name.
	rootDefs map[string]*Def
	// lost tracks subshell assignments awaiting a parent use.
	lost map[string]*lostEntry
	// funcs are the functions declared so far.
	funcs     map[string]syntax.Command
	nextFrame int
}

// AnalyzeDefUse computes def-use chains with scope tracking for a parsed
// script.
func AnalyzeDefUse(script *syntax.Script) *DefUse {
	w := &duWalker{
		res:      &DefUse{},
		pending:  map[string][]syntax.Pos{},
		rootDefs: map[string]*Def{},
		lost:     map[string]*lostEntry{},
		funcs:    map[string]syntax.Command{},
	}
	ctx := &duCtx{bindings: map[string]*Def{}}
	w.stmts(ctx, script.Stmts)
	// Resolve pending uses: a root-scope def later in the program turns
	// each into a use-before-assign witness.
	for name, uses := range w.pending {
		d, ok := w.rootDefs[name]
		if !ok {
			continue
		}
		for _, up := range uses {
			if up.Offset < d.Pos.Offset {
				w.res.UseBeforeDefs = append(w.res.UseBeforeDefs, UseBeforeDef{
					Name: name, UsePos: up, DefPos: d.Pos,
				})
			}
		}
	}
	return w.res
}

func (w *duWalker) stmts(ctx *duCtx, stmts []*syntax.Stmt) {
	for _, st := range stmts {
		w.stmt(ctx, st)
	}
}

func (w *duWalker) stmt(ctx *duCtx, st *syntax.Stmt) {
	if st == nil || st.AndOr == nil {
		return
	}
	bg := ctx
	if st.Background {
		// `cmd &` runs in a subshell: its assignments are lost.
		bg = ctx.clone()
		bg.subshell = true
	}
	w.pipeline(bg, st.AndOr.First, false)
	for _, part := range st.AndOr.Rest {
		// The right side of && / || runs conditionally.
		cc := bg.clone()
		cc.conditional = true
		w.pipeline(cc, part.Pipe, false)
		// Conditional defs still suppress later diagnostics: merge them
		// back as the visible (conditional) bindings.
		for k, v := range cc.bindings {
			if bg.bindings[k] != v {
				bg.bindings[k] = v
			}
		}
	}
}

// pipeline walks one pipeline. Multi-stage pipelines run each stage in a
// subshell; assignments there are lost to the parent.
func (w *duWalker) pipeline(ctx *duCtx, pl *syntax.Pipeline, _ bool) {
	if pl == nil {
		return
	}
	if len(pl.Cmds) == 1 {
		w.command(ctx, pl.Cmds[0])
		return
	}
	for _, cmd := range pl.Cmds {
		sc := ctx.clone()
		sc.subshell = true
		sc.frame = w.newFrame()
		w.command(sc, cmd)
		// JSH302 owns while-loops as pipeline tails; everything else
		// feeds the lost-assignment tracker.
		if _, isWhile := cmd.(*syntax.WhileClause); !isWhile {
			w.recordLost(ctx, sc)
		}
	}
}

func (w *duWalker) newFrame() int {
	w.nextFrame++
	return w.nextFrame
}

// recordLost diffs a subshell context against its parent and remembers
// fresh inner defs: a later parent use with no intervening parent def
// makes them LostAssigns.
func (w *duWalker) recordLost(parent, child *duCtx) {
	for name, d := range child.bindings {
		if parent.bindings[name] == d {
			continue // unchanged: def predates the subshell
		}
		if d.Kind == DefTempEnv {
			continue
		}
		w.lost[name] = &lostEntry{def: d, parentDef: parent.bindings[name]}
	}
}

func (w *duWalker) command(ctx *duCtx, cmd syntax.Command) {
	switch c := cmd.(type) {
	case *syntax.SimpleCommand:
		w.simple(ctx, c)
	case *syntax.Subshell:
		sub := ctx.clone()
		sub.subshell = true
		sub.frame = w.newFrame()
		w.stmts(sub, c.Body)
		w.recordLost(ctx, sub)
		w.redirs(ctx, c.Redirections)
	case *syntax.BraceGroup:
		w.stmts(ctx, c.Body)
		w.redirs(ctx, c.Redirections)
	case *syntax.IfClause:
		w.stmts(ctx, c.Cond)
		then := ctx.clone()
		then.conditional = true
		w.stmts(then, c.Then)
		els := ctx.clone()
		els.conditional = true
		w.stmts(els, c.Else)
		w.mergeConditional(ctx, then, els)
		w.redirs(ctx, c.Redirections)
	case *syntax.WhileClause:
		w.loop(ctx, c, c.Cond, c.Body)
		w.redirs(ctx, c.Redirections)
	case *syntax.ForClause:
		for _, word := range c.Words {
			w.wordUses(ctx, word, "")
		}
		w.define(ctx, &Def{Name: c.Name, Pos: c.Pos(), Kind: DefFor, Conditional: true})
		w.loop(ctx, c, nil, c.Body)
		w.redirs(ctx, c.Redirections)
	case *syntax.CaseClause:
		w.wordUses(ctx, c.Word, "")
		var branches []*duCtx
		for _, item := range c.Items {
			for _, pat := range item.Patterns {
				w.wordUses(ctx, pat, "")
			}
			b := ctx.clone()
			b.conditional = true
			w.stmts(b, item.Body)
			branches = append(branches, b)
		}
		w.mergeConditional(ctx, branches...)
		w.redirs(ctx, c.Redirections)
	case *syntax.FuncDecl:
		w.funcs[c.Name] = c.Body
		fn := ctx.clone()
		fn.inFunc = true
		fn.frame = w.newFrame()
		fn.conditional = false
		w.command(fn, c.Body)
	}
}

// loop analyzes a while/until/for body: defs are conditional (zero
// iterations possible) and textual use-before-def inside the body is
// suppressed for names the body itself assigns (the value may flow from
// a previous iteration).
func (w *duWalker) loop(ctx *duCtx, clause syntax.Command, cond, body []*syntax.Stmt) {
	assigned, any := AssignedBy(clause, w.funcBody)
	lc := ctx.clone()
	lc.conditional = true
	lc.loopNames, lc.loopAny = assigned, any || ctx.loopAny
	for k := range ctx.loopNames {
		lc.loopNames[k] = true
	}
	w.stmts(lc, cond)
	w.stmts(lc, body)
	w.mergeConditional(ctx, lc)
}

func (w *duWalker) funcBody(name string) syntax.Command { return w.funcs[name] }

// useAll counts every visible binding as used: something ran that may read
// (or overwrite) any of them, so none is provably a dead store.
func (w *duWalker) useAll(ctx *duCtx) {
	for _, d := range ctx.bindings {
		d.Uses++
	}
}

// mergeConditional folds branch bindings back into the parent: a name
// defined in any branch becomes (conditionally) visible afterwards, so
// later reads resolve and later overwrites don't report dead stores.
func (w *duWalker) mergeConditional(ctx *duCtx, branches ...*duCtx) {
	for _, b := range branches {
		if b == nil {
			continue
		}
		for k, v := range b.bindings {
			if ctx.bindings[k] != v {
				ctx.bindings[k] = v
			}
		}
	}
}

func (w *duWalker) simple(ctx *duCtx, sc *syntax.SimpleCommand) {
	// Assignment values expand before the variables bind.
	for _, a := range sc.Assigns {
		w.wordUses(ctx, a.Value, a.Name)
	}
	// `x=1 cmd` binds only for cmd's environment.
	tempEnv := len(sc.Args) > 0
	for _, a := range sc.Assigns {
		d := &Def{
			Name: a.Name, Pos: a.Pos(), Kind: DefAssign,
			Conditional: ctx.conditional, Subshell: ctx.subshell,
			HasCmdSubst: a.Value != nil && expand.AnalyzeWord(a.Value).HasCmdSubst,
		}
		if tempEnv {
			d.Kind = DefTempEnv
			d.Conditional = true
			d.Uses = 1 // feeds the command's environment
		}
		w.define(ctx, d)
	}
	// Argument and redirection-target uses.
	for _, arg := range sc.Args {
		w.wordUses(ctx, arg, "")
	}
	w.redirs(ctx, sc.Redirections)
	if len(sc.Args) == 0 {
		return
	}
	// Builtins that define or consume variables by name.
	row, name, builtin := builtinOf(sc)
	ops, exact := row.operands(sc)
	if !exact || row.anything {
		w.useAll(ctx)
	}
	for _, op := range ops {
		switch {
		case row.unsets:
			delete(ctx.bindings, op.name)
		case row.def == DefExport && !op.hasValue:
			w.useName(ctx, op.name, op.word.Pos(), true)
		default:
			// Bare `local x` declares without a meaningful value; the
			// conditional flag keeps it out of dead-store reports.
			w.define(ctx, &Def{Name: op.name, Pos: op.word.Pos(), Kind: row.def, Subshell: ctx.subshell,
				Conditional: ctx.conditional || row.def == DefGetopts || row.def == DefLocal && !op.hasValue})
		}
	}
	for _, n := range row.implicit {
		w.define(ctx, &Def{Name: n, Pos: sc.Pos(), Kind: row.def,
			Conditional: true, Subshell: ctx.subshell})
	}
	// Calling a user-defined function may assign what its body assigns.
	if body := w.funcs[name]; !builtin && body != nil {
		names, any := AssignedBy(body, w.funcBody)
		if any {
			w.useAll(ctx)
		}
		for _, n := range sortedNames(names) {
			w.define(ctx, &Def{Name: n, Pos: sc.Pos(), Kind: DefAssign,
				Conditional: true, Subshell: ctx.subshell})
		}
	}
}

func (w *duWalker) redirs(ctx *duCtx, rs []*syntax.Redirect) {
	for _, r := range rs {
		w.wordUses(ctx, r.Target, "")
		w.wordUses(ctx, r.Body, "")
	}
}

// define installs a def, detecting dead stores: the previous binding
// dies unread if both defs are unconditional, same-frame, and the old
// one is a plain assignment whose value ran no commands.
func (w *duWalker) define(ctx *duCtx, d *Def) {
	d.frame = ctx.frame
	old := ctx.bindings[d.Name]
	if old != nil && old.Uses == 0 && old.KilledBy == nil &&
		!old.Conditional && !d.Conditional &&
		old.frame == d.frame && !old.HasCmdSubst &&
		(old.Kind == DefAssign || old.Kind == DefLocal) &&
		(d.Kind == DefAssign || d.Kind == DefLocal || d.Kind == DefRead || d.Kind == DefExport) {
		old.KilledBy = d
	}
	ctx.bindings[d.Name] = d
	w.res.Defs = append(w.res.Defs, d)
	if !ctx.subshell && !ctx.inFunc {
		if _, ok := w.rootDefs[d.Name]; !ok {
			w.rootDefs[d.Name] = d
		}
		// A parent definition supersedes any pending lost-subshell entry.
		delete(w.lost, d.Name)
	}
}

// useName records a read of a variable. guarded uses (${x:-d} etc.)
// resolve bindings but never witness use-before-assign.
func (w *duWalker) useName(ctx *duCtx, name string, pos syntax.Pos, guarded bool) {
	if !isVarName(name) {
		return
	}
	if d := ctx.bindings[name]; d != nil {
		d.Uses++
		if !ctx.subshell && !ctx.inFunc {
			// The visible binding predates any recorded subshell loss only
			// if it IS the shadowed one; then the subshell value is what
			// this use can never see.
			if le, ok := w.lost[name]; ok && le.parentDef == d {
				w.res.Lost = append(w.res.Lost, LostAssign{Def: le.def, UsePos: pos})
				delete(w.lost, name)
			}
		}
		return
	}
	if le, ok := w.lost[name]; ok && !ctx.subshell && !ctx.inFunc && le.parentDef == nil {
		w.res.Lost = append(w.res.Lost, LostAssign{Def: le.def, UsePos: pos})
		delete(w.lost, name)
		return
	}
	if guarded || ctx.subshell || ctx.inFunc || ctx.conditional {
		return
	}
	if ctx.loopAny || ctx.loopNames[name] {
		return // previous iteration may have defined it
	}
	if ambientVars[name] {
		return
	}
	w.pending[name] = append(w.pending[name], pos)
}

// wordUses records what expanding a word reads and defines. assignTo names
// the variable the word is being assigned to, if any: in `PATH=$PATH:/x` the
// use of PATH on the right never reports use-before-assign (appending to a
// possibly-ambient value is idiomatic). Arithmetic reads arrive guarded —
// unset variables evaluate as 0 inside $((...)), so counters initialized
// implicitly (`n=$((n+1))`) are idiomatic too.
func (w *duWalker) wordUses(ctx *duCtx, word *syntax.Word, assignTo string) {
	if word == nil {
		return
	}
	d := expand.AnalyzeWord(word)
	if opaque(d, nil) {
		w.useAll(ctx)
	}
	for _, e := range d.Effects {
		switch e.Kind {
		case expand.EffectRead:
			w.useName(ctx, e.Name, e.Pos, e.Guarded || e.Name == assignTo)
		case expand.EffectAssign:
			if isVarName(e.Name) && ctx.bindings[e.Name] == nil {
				w.define(ctx, &Def{Name: e.Name, Pos: e.Pos, Kind: DefParam,
					Conditional: true, Subshell: ctx.subshell})
			}
		case expand.EffectSubst:
			// Substitution bodies run in a subshell copy.
			sub := ctx.clone()
			sub.subshell = true
			sub.frame = w.newFrame()
			w.stmts(sub, e.Body)
		}
	}
}

// isVarName reports whether s is a valid shell variable name (not a
// positional or special parameter).
func isVarName(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		switch {
		case r == '_' || (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z'):
		case r >= '0' && r <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}
