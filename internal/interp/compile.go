// Closure compilation of the evaluator: statements, words, and command
// dispatch are lowered into closures the first time a node is executed and
// cached, so loop and function bodies pay dispatch, word-structure
// analysis, and redirect-plan construction once instead of on every
// iteration (the jq-paper "compile, don't tree-walk" discipline). The
// closures take the *Interp as a parameter rather than capturing state, so
// one compiled program serves every subshell and pipeline-stage clone
// sharing the cache.
//
// This is the only evaluator: control flow, set -e, traps, redirections and
// the break/continue/exit/return signals have one implementation. What is
// faster than re-deriving everything per run is confined to two places —
// the word plans (planStatic/planVar/planArith and the precomputed field
// list) and compileDispatch's pre-resolved builtin/utility pointers — and
// Interp.NoCompile turns exactly those off: every word goes through the
// full expand.Expander and every command through in.dispatch. That run is
// the reference the differential tests, the fuzzer's `plain` oracle and the
// benchmark's interp.walk_script_ms compare the optimised run against.
package interp

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"jash/internal/coreutils"
	"jash/internal/expand"
	"jash/internal/pattern"
	"jash/internal/syntax"
)

// compiled is one lowered program fragment, executed against the current
// interpreter state.
type compiled func(in *Interp)

// progCache memoizes compiled fragments per AST node. AST nodes are
// immutable after parse and pipeline stages execute on goroutine clones
// sharing the cache, so a concurrent write-once map is the right shape.
type progCache struct {
	stmts sync.Map // *syntax.Stmt   -> compiled
	cmds  sync.Map // syntax.Command -> compiled (function bodies)
}

// prog returns the interpreter's compilation cache, creating it on first
// use for Interps built by hand rather than New.
func (in *Interp) prog() *progCache {
	if in.cache == nil {
		in.cache = &progCache{}
	}
	return in.cache
}

// compiledStmt returns the cached compilation of a statement, compiling on
// first encounter.
func (in *Interp) compiledStmt(st *syntax.Stmt) compiled {
	cache := in.prog()
	if v, ok := cache.stmts.Load(st); ok {
		return v.(compiled)
	}
	fn := compileStmt(st)
	cache.stmts.Store(st, fn)
	return fn
}

// compiledCommand returns the cached compilation of a bare command node —
// function bodies, which re-run on every call.
func (in *Interp) compiledCommand(cmd syntax.Command) compiled {
	cache := in.prog()
	if v, ok := cache.cmds.Load(cmd); ok {
		return v.(compiled)
	}
	fn := compileCommand(cmd)
	cache.cmds.Store(cmd, fn)
	return fn
}

func compileStmt(st *syntax.Stmt) compiled {
	if !st.Background {
		return compileAndOr(st.AndOr)
	}
	// A background list runs to completion first (the interpreter is
	// deterministic), but in a subshell: $?, variables, cd and exit stay there.
	job := []*syntax.Stmt{{AndOr: st.AndOr, Position: st.Position}}
	return func(in *Interp) {
		sub := in.subshell()
		if _, err := sub.RunStmts(job); err != nil {
			panic(fatalError{err})
		}
		sub.RunExitTrap()
	}
}

func compileAndOr(ao *syntax.AndOr) compiled {
	first := compilePipeline(ao.First, len(ao.Rest) > 0)
	if len(ao.Rest) == 0 {
		return first
	}
	type part struct {
		op syntax.AndOrOp
		fn compiled
	}
	parts := make([]part, len(ao.Rest))
	for i, p := range ao.Rest {
		guarded := i < len(ao.Rest)-1
		parts[i] = part{p.Op, compilePipeline(p.Pipe, guarded)}
	}
	return func(in *Interp) {
		first(in)
		for _, p := range parts {
			if p.op == syntax.AndOp && in.Status != 0 {
				continue
			}
			if p.op == syntax.OrOp && in.Status == 0 {
				continue
			}
			p.fn(in)
		}
	}
}

// Refused is the status an Observer declines a pipeline with to say the
// refusal is final: that pipeline is never offered to it again.
const Refused = -1

// compilePipeline lowers a pipeline: the observer-offer statement is built
// once, stages compile once, and the set -e guard is a precomputed constant.
// An offer the observer refuses for good is not made again; the flag is
// atomic because pipeline-stage clones run the same closure concurrently.
func compilePipeline(pl *syntax.Pipeline, guarded bool) compiled {
	errGuard := guarded || pl.Negated
	negated := pl.Negated
	canOffer := !pl.Negated && len(pl.Cmds) >= 1
	offer := &syntax.Stmt{AndOr: &syntax.AndOr{First: pl}, Position: pl.Position}
	var refused atomic.Bool
	var single compiled
	var stages []compiled
	if len(pl.Cmds) == 1 {
		single = compileCommand(pl.Cmds[0])
	} else {
		stages = make([]compiled, len(pl.Cmds))
		for i, cmd := range pl.Cmds {
			stages[i] = compileCommand(cmd)
		}
	}
	return func(in *Interp) {
		if in.Observer != nil && canOffer && !refused.Load() {
			status, handled := in.Observer(in, offer)
			if handled {
				in.Status = status
				in.maybeErrExit(errGuard)
				return
			}
			if status == Refused {
				refused.Store(true)
			}
		}
		if single != nil {
			single(in)
		} else {
			in.runPipeline(pl.Cmds, stages)
		}
		if negated {
			if in.Status == 0 {
				in.Status = 1
			} else {
				in.Status = 0
			}
		}
		in.maybeErrExit(errGuard)
	}
}

func compileCommand(cmd syntax.Command) compiled {
	switch c := cmd.(type) {
	case *syntax.SimpleCommand:
		return compileSimple(c)
	case *syntax.Subshell:
		return func(in *Interp) { in.runSubshell(c) }
	case *syntax.BraceGroup:
		return withCompiledRedirs(c.Redirections, compileList(c.Body))
	case *syntax.IfClause:
		return withCompiledRedirs(c.Redirections, compileIf(c))
	case *syntax.WhileClause:
		return withCompiledRedirs(c.Redirections, compileWhile(c))
	case *syntax.ForClause:
		return withCompiledRedirs(c.Redirections, compileFor(c))
	case *syntax.CaseClause:
		return withCompiledRedirs(c.Redirections, compileCase(c))
	case *syntax.FuncDecl:
		return func(in *Interp) {
			in.Funcs[c.Name] = c.Body
			in.Status = 0
		}
	default:
		return func(in *Interp) { in.fatalf("unknown command node %T", cmd) }
	}
}

// withCompiledRedirs wraps a compiled body with redirection handling; the
// common no-redirection case costs nothing per run.
func withCompiledRedirs(redirs []*syntax.Redirect, body compiled) compiled {
	if len(redirs) == 0 {
		return body
	}
	return func(in *Interp) {
		in.withRedirs(redirs, func() { body(in) })
	}
}

// compileList lowers a statement list; an empty list resets $? to 0.
func compileList(stmts []*syntax.Stmt) compiled {
	if len(stmts) == 0 {
		return func(in *Interp) { in.Status = 0 }
	}
	fns := make([]compiled, len(stmts))
	for i, st := range stmts {
		fns[i] = compileStmt(st)
	}
	if len(fns) == 1 {
		return fns[0]
	}
	return func(in *Interp) {
		for _, fn := range fns {
			fn(in)
		}
	}
}

// compileCond lowers a loop/if condition list: set -e is suppressed while
// the condition runs.
func compileCond(stmts []*syntax.Stmt) compiled {
	body := compileList(stmts)
	return func(in *Interp) {
		saved := in.ErrExit
		in.ErrExit = false
		body(in)
		in.ErrExit = saved
	}
}

func compileIf(c *syntax.IfClause) compiled {
	cond := compileCond(c.Cond)
	then := compileList(c.Then)
	var alt compiled
	if len(c.Else) > 0 {
		alt = compileList(c.Else)
	}
	return func(in *Interp) {
		cond(in)
		if in.Status == 0 {
			then(in)
			return
		}
		if alt != nil {
			alt(in)
			return
		}
		in.Status = 0
	}
}

func compileWhile(c *syntax.WhileClause) compiled {
	cond := compileCond(c.Cond)
	body := compileList(c.Body)
	until := c.Until
	return func(in *Interp) {
		in.loopDepth++
		defer func() { in.loopDepth-- }()
		iterations := 0
		for {
			cond(in)
			ok := in.Status == 0
			if until {
				ok = !ok
			}
			if !ok {
				in.Status = 0
				return
			}
			if stop := in.loopBodyFn(func() { body(in) }); stop {
				return
			}
			iterations++
			if iterations > maxLoopIterations {
				in.fatalf("loop exceeded %d iterations", maxLoopIterations)
			}
		}
	}
}

func compileFor(c *syntax.ForClause) compiled {
	body := compileList(c.Body)
	name := c.Name
	var words *wordListPlan
	if c.InPresent {
		words = compileWordList(c.Words)
	}
	return func(in *Interp) {
		var items []string
		if words != nil {
			var x *expand.Expander
			fields, err := words.expand(in, &x)
			if err != nil {
				in.expandFail(err)
				return
			}
			items = fields
		} else {
			items = append([]string(nil), in.Params...)
		}
		in.loopDepth++
		defer func() { in.loopDepth-- }()
		for _, item := range items {
			in.mustAssign(name, item)
			if stop := in.loopBodyFn(func() { body(in) }); stop {
				return
			}
		}
		if len(items) == 0 {
			in.Status = 0
		}
	}
}

func compileCase(c *syntax.CaseClause) compiled {
	type arm struct {
		patterns []*syntax.Word
		body     compiled
	}
	arms := make([]arm, len(c.Items))
	for i, item := range c.Items {
		arms[i] = arm{item.Patterns, compileList(item.Body)}
	}
	word := c.Word
	return func(in *Interp) {
		// The arm runs with the $? from before the case, as in dash: a
		// command substitution in the word or a pattern does not change it.
		status := in.Status
		x := in.expander()
		w, err := x.ExpandString(word)
		if err != nil {
			in.expandFail(err)
			return
		}
		for _, a := range arms {
			for _, patWord := range a.patterns {
				pat, err := x.ExpandPattern(patWord)
				if err != nil {
					in.expandFail(err)
					return
				}
				if pattern.Match(pat, w) {
					in.Status = status
					a.body(in)
					return
				}
			}
		}
		in.Status = 0
	}
}

// --- word compilation ---

type planKind uint8

const (
	// planDynamic words go through the full expander every time.
	planDynamic planKind = iota
	// planStatic words — literals and quoted literals free of expansions,
	// globs, escapes, and tilde — expand to a precomputed field without
	// touching the expander. Unquoted literal text is IFS-sensitive in
	// this implementation (the splitter scans literal fragments too), so
	// such plans only take the fast path while IFS holds its default
	// value.
	planStatic
	// planVar words are a bare unquoted $name; they resolve straight from
	// the variable table when the runtime value is free of characters the
	// splitter, globber, or escape pass would act on.
	planVar
	// planArith words are a bare unquoted $((expr)) whose text needs no
	// parameter pre-expansion; the expression is compiled once and its
	// numeric result needs no further expansion under default IFS.
	planArith
)

// varFastUnsafe are the value characters that force a planVar word back
// through the expander: backslash (the splitter treats it as an escape),
// glob metacharacters, and default-IFS whitespace.
const varFastUnsafe = "\\*?[ \t\n"

// wordPlan is one argument word's lowering.
type wordPlan struct {
	kind    planKind
	ifsSafe bool   // static field valid only under default IFS
	field   string // planStatic: the single precomputed field
	zero    bool   // planStatic with no resulting fields (empty unquoted word)
	varName string // planVar
	arith   *expand.ArithExpr
	w       *syntax.Word
}

// litNeedsExpander reports whether an unquoted literal requires the full
// expansion pipeline: backslash escapes, glob metacharacters, tilde, or
// characters the default-IFS splitter acts on.
func litNeedsExpander(s string) bool {
	return strings.ContainsAny(s, "\\*?[~ \t\n")
}

// ordinaryVarName reports whether name is a plain shell variable (not a
// positional or special parameter), so a map lookup fully resolves it.
func ordinaryVarName(name string) bool {
	if name == "" {
		return false
	}
	c := name[0]
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func compileWord(w *syntax.Word) wordPlan {
	if len(w.Parts) == 1 {
		switch p := w.Parts[0].(type) {
		case *syntax.ParamExp:
			if p.Op == syntax.ParamPlain && ordinaryVarName(p.Name) {
				return wordPlan{kind: planVar, varName: p.Name, w: w}
			}
		case *syntax.ArithExp:
			// Texts with parts need them expanded each time; one that does
			// not compile reports its error from the expander.
			if a, err := expand.CompileArithExpr(p.Expr); err == nil && p.Parts == nil {
				return wordPlan{kind: planArith, arith: a, w: w}
			}
		}
	}
	var b strings.Builder
	anyQuoted := false
	ifsSafe := false
	for _, part := range w.Parts {
		switch p := part.(type) {
		case *syntax.Lit:
			if litNeedsExpander(p.Value) {
				return wordPlan{w: w}
			}
			if p.Value != "" {
				// Unquoted text: the splitter scans it, so guard on IFS.
				ifsSafe = true
			}
			b.WriteString(p.Value)
		case *syntax.SglQuoted:
			anyQuoted = true
			b.WriteString(p.Value)
		case *syntax.DblQuoted:
			for _, ip := range p.Parts {
				if _, ok := ip.(*syntax.Lit); !ok {
					return wordPlan{w: w}
				}
			}
			anyQuoted = true
			b.WriteString(unquoteDblLits(p))
		default:
			return wordPlan{w: w}
		}
	}
	field := b.String()
	if field == "" && !anyQuoted {
		return wordPlan{kind: planStatic, zero: true, w: w}
	}
	return wordPlan{kind: planStatic, ifsSafe: ifsSafe, field: field, w: w}
}

// unquoteDblLits resolves the four escapes double quotes honour across a
// literal-only double-quoted part, matching the expander's unescapeDquote.
func unquoteDblLits(p *syntax.DblQuoted) string {
	var b strings.Builder
	for _, ip := range p.Parts {
		s := ip.(*syntax.Lit).Value
		for i := 0; i < len(s); i++ {
			if s[i] == '\\' && i+1 < len(s) {
				switch s[i+1] {
				case '$', '`', '"', '\\':
					i++
				}
			}
			b.WriteByte(s[i])
		}
	}
	return b.String()
}

// defaultIFS reports whether IFS holds its default value — the condition
// under which precomputed unquoted fields are valid.
func (in *Interp) defaultIFS() bool {
	v, ok := in.Vars["IFS"]
	return !ok || v.Value == " \t\n"
}

// wordListPlan lowers a word list; fully static lists expand to a
// precomputed slice while IFS is default.
type wordListPlan struct {
	plans     []wordPlan
	allStatic bool
	needIFS   bool
	fields    []string // precomputed expansion when allStatic
}

func compileWordList(ws []*syntax.Word) *wordListPlan {
	p := &wordListPlan{plans: make([]wordPlan, len(ws)), allStatic: true}
	for i, w := range ws {
		p.plans[i] = compileWord(w)
		if p.plans[i].kind != planStatic {
			p.allStatic = false
		}
		if p.plans[i].ifsSafe {
			p.needIFS = true
		}
	}
	if p.allStatic {
		for _, wp := range p.plans {
			if !wp.zero {
				p.fields = append(p.fields, wp.field)
			}
		}
	}
	return p
}

// expand produces the list's fields. The caller threads one lazily built
// expander through every dynamic expansion in a simple command, so the
// command sees one snapshot of $? however many of its words need the
// expander. Under NoCompile every word is planDynamic.
func (p *wordListPlan) expand(in *Interp, xp **expand.Expander) ([]string, error) {
	defIFS := in.defaultIFS()
	if p.allStatic && !in.NoCompile && (!p.needIFS || defIFS) {
		return p.fields, nil
	}
	out := make([]string, 0, len(p.plans))
	for i := range p.plans {
		wp := &p.plans[i]
		kind := wp.kind
		if in.NoCompile {
			kind = planDynamic
		}
		switch kind {
		case planStatic:
			if !wp.ifsSafe || defIFS {
				if !wp.zero {
					out = append(out, wp.field)
				}
				continue
			}
		case planVar:
			if defIFS {
				v, ok := in.Vars[wp.varName]
				if ok || !in.NoUnset {
					if v.Value == "" {
						continue // empty unquoted expansion: no fields
					}
					if !strings.ContainsAny(v.Value, varFastUnsafe) {
						out = append(out, v.Value)
						continue
					}
				}
			}
		case planArith:
			if defIFS {
				v, err := in.evalArith(wp.arith)
				if err != nil {
					return nil, err
				}
				out = append(out, strconv.FormatInt(v, 10))
				continue
			}
		}
		if *xp == nil {
			*xp = in.expander()
		}
		fields, err := (*xp).ExpandWord(wp.w)
		if err != nil {
			return nil, err
		}
		out = append(out, fields...)
	}
	return out, nil
}

// evalArith runs a word plan's pre-compiled $((...)) against the variable
// table; errors carry the same fatal ExpandError wrapping the expander
// applies.
func (in *Interp) evalArith(a *expand.ArithExpr) (int64, error) {
	if in.arLookup == nil {
		in.arLookup = func(name string) string { return in.Vars[name].Value }
		in.arAssign = in.assign
	}
	v, err := a.Eval(in.arLookup, in.arAssign)
	if err != nil {
		return 0, &expand.ExpandError{Msg: err.Error(), Fatal: true}
	}
	return v, nil
}

// stringPlan lowers a word used in ExpandString position (assignment
// values): no field splitting or globbing applies, so static text is valid
// regardless of IFS, bare variables need only an escape check, and
// arithmetic results are always literal digits.
type stringPlan struct {
	kind    planKind
	value   string // planStatic
	varName string // planVar
	arith   *expand.ArithExpr
	w       *syntax.Word
}

func compileStringWord(w *syntax.Word) stringPlan {
	if w == nil {
		return stringPlan{kind: planStatic}
	}
	if len(w.Parts) == 1 {
		switch p := w.Parts[0].(type) {
		case *syntax.ParamExp:
			if p.Op == syntax.ParamPlain && ordinaryVarName(p.Name) {
				return stringPlan{kind: planVar, varName: p.Name, w: w}
			}
		case *syntax.ArithExp:
			if a, err := expand.CompileArithExpr(p.Expr); err == nil && p.Parts == nil {
				return stringPlan{kind: planArith, arith: a, w: w}
			}
		}
	}
	var b strings.Builder
	for _, part := range w.Parts {
		switch p := part.(type) {
		case *syntax.Lit:
			// Escapes and tilde still matter for ExpandString; IFS and glob
			// metacharacters do not.
			if strings.ContainsAny(p.Value, "\\~") {
				return stringPlan{w: w}
			}
			b.WriteString(p.Value)
		case *syntax.SglQuoted:
			b.WriteString(p.Value)
		case *syntax.DblQuoted:
			for _, ip := range p.Parts {
				if _, ok := ip.(*syntax.Lit); !ok {
					return stringPlan{w: w}
				}
			}
			b.WriteString(unquoteDblLits(p))
		default:
			return stringPlan{w: w}
		}
	}
	return stringPlan{kind: planStatic, value: b.String(), w: w}
}

// expand produces the word's string; under NoCompile every word is
// planDynamic.
func (sp *stringPlan) expand(in *Interp, xp **expand.Expander) (string, error) {
	kind := sp.kind
	if in.NoCompile {
		kind = planDynamic
	}
	switch kind {
	case planStatic:
		return sp.value, nil
	case planVar:
		v, ok := in.Vars[sp.varName]
		if ok || !in.NoUnset {
			// ExpandString unescapes backslashes in unquoted fragments;
			// values containing them take the slow path.
			if !strings.ContainsRune(v.Value, '\\') {
				return v.Value, nil
			}
		}
	case planArith:
		v, err := in.evalArith(sp.arith)
		if err != nil {
			return "", err
		}
		return strconv.FormatInt(v, 10), nil
	}
	if *xp == nil {
		*xp = in.expander()
	}
	return (*xp).ExpandString(sp.w)
}

// --- simple commands ---

type assignPlan struct {
	name  string
	value stringPlan
}

// compileSimple lowers a simple command: word plans, assignment plans, and
// — when the command name is a plain literal — the dispatch decision are
// computed once. The expander is only constructed when some word or
// assignment actually needs it.
func compileSimple(c *syntax.SimpleCommand) compiled {
	assigns := make([]assignPlan, len(c.Assigns))
	for i, a := range c.Assigns {
		assigns[i] = assignPlan{a.Name, compileStringWord(a.Value)}
	}
	redirs := c.Redirections

	// Assignment-only command: assignments persist.
	if len(c.Args) == 0 {
		return func(in *Interp) {
			var x *expand.Expander
			for i := range assigns {
				a := &assigns[i]
				val, err := a.value.expand(in, &x)
				if err != nil {
					in.expandFail(err)
					return
				}
				in.mustAssign(a.name, val)
			}
			cleanup, ok := in.applyRedirs(redirs)
			if ok {
				cleanup()
			}
			if len(assigns) > 0 || ok {
				in.Status = 0
			}
		}
	}

	words := compileWordList(c.Args)
	dispatch := compileDispatch(c)
	hasAssigns := len(assigns) > 0
	hasRedirs := len(redirs) > 0
	return func(in *Interp) {
		var x *expand.Expander
		fields, err := words.expand(in, &x)
		if err != nil {
			in.expandFail(err)
			return
		}
		if len(fields) == 0 {
			in.Status = 0
			return
		}
		if in.XTrace {
			fmt.Fprintf(in.Stderr, "+ %s\n", strings.Join(fields, " "))
		}
		var savedVars map[string]*Variable
		if hasAssigns {
			savedVars = map[string]*Variable{}
			for i := range assigns {
				a := &assigns[i]
				val, err := a.value.expand(in, &x)
				if err != nil {
					in.expandFail(err)
					return
				}
				if old, ok := in.Vars[a.name]; ok {
					saved := old
					savedVars[a.name] = &saved
				} else {
					savedVars[a.name] = nil
				}
				in.mustAssign(a.name, val) // a readonly target ends the shell
				in.Vars[a.name] = Variable{Value: val, Exported: true}
			}
		}
		if hasRedirs {
			in.withRedirs(redirs, func() { dispatch(in, fields) })
		} else {
			dispatch(in, fields)
		}
		if hasAssigns {
			for name, old := range savedVars {
				if old == nil {
					delete(in.Vars, name)
				} else {
					in.Vars[name] = *old
				}
			}
		}
	}
}

// compileDispatch pre-resolves command dispatch when the command name is a
// plain literal: builtins resolve to their function pointer (the builtin
// table is immutable and always shadows functions), and registry utilities
// resolve to their Func with only the function-shadowing check left
// dynamic. If the expanded name diverges from the literal (exotic IFS, a
// glob match), or NoCompile is set, the full dispatch chain runs instead.
func compileDispatch(c *syntax.SimpleCommand) func(*Interp, []string) {
	name := c.Name()
	if name == "" {
		return (*Interp).dispatch
	}
	var resolved func(*Interp, []string)
	if fn, ok := builtins[name]; ok {
		resolved = func(in *Interp, fields []string) {
			if in.dispatchFault(name) {
				return
			}
			in.Status = fn(in, fields)
		}
	} else {
		util, haveUtil := coreutils.Lookup(name)
		resolved = func(in *Interp, fields []string) {
			if in.dispatchFault(name) {
				return
			}
			if body, ok := in.Funcs[name]; ok {
				in.callFunction(body, fields)
				return
			}
			if haveUtil {
				in.runUtility(name, util, fields)
				return
			}
			fmt.Fprintf(in.Stderr, "jash: %s: command not found\n", name)
			in.Status = 127
		}
	}
	return func(in *Interp, fields []string) {
		if fields[0] != name || in.NoCompile {
			in.dispatch(fields)
			return
		}
		resolved(in, fields)
	}
}
