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
// the word plans and compileDispatch's pre-resolved builtin/utility
// pointers — and Interp.NoCompile turns exactly those off: every word goes
// through the full expand.Expander and every command through in.dispatch.
// That run is the reference the differential tests, the fuzzer's `plain`
// oracle and the benchmark's interp.walk_script_ms compare the optimised
// run against. The word plans are:
//
//   - planStatic: literal text, one precomputed field (a whole static
//     argument list is one precomputed slice);
//   - planVar: a lone parameter read — $name, "$name" or a static-pattern
//     trim of either — resolved without the expander;
//   - planArith: a lone $((expr)), compiled once;
//   - planJoin: a string-position word (an assignment value, the case
//     word) concatenated from static text, $name, "$name" and
//     ${name#pat}-style trims with a static pattern;
//   - patternPlan: a static case pattern, computed once.
//
// Each hands its word back to the expander wherever the two could differ.
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
		patterns []patternPlan
		body     compiled
	}
	arms := make([]arm, len(c.Items))
	for i, item := range c.Items {
		arms[i].body = compileList(item.Body)
		for _, w := range item.Patterns {
			arms[i].patterns = append(arms[i].patterns, compilePattern(w))
		}
	}
	word := compileStringWord(c.Word)
	return func(in *Interp) {
		// The arm runs with the $? from before the case, as in dash: a
		// command substitution in the word or a pattern does not change it.
		status := in.Status
		var x *expand.Expander
		w, err := word.expand(in, &x)
		if err != nil {
			in.expandFail(err)
			return
		}
		for _, a := range arms {
			for i := range a.patterns {
				pat, err := a.patterns[i].expand(in, &x)
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
	// globs and tilde — expand to a precomputed field without touching
	// the expander: literal text is never split, so whatever IFS holds.
	planStatic
	// planVar words are one planJoin part: $name, "$name" or a trim of
	// either. Quoted, the value is the one field; unquoted, it is the
	// field when it is free of characters the splitter or globber would
	// act on, and no field when empty.
	planVar
	// planArith words are a bare unquoted $((expr)) whose text needs no
	// parameter pre-expansion; the expression is compiled once and its
	// numeric result needs no further expansion under default IFS.
	planArith
	// planJoin words, in string position only, concatenate static text,
	// $name, "$name" and ${name#pat}-style trims with a static pattern.
	planJoin
)

// varFastUnsafe are the value characters that force an unquoted planVar
// word back through the expander: glob metacharacters and default-IFS
// whitespace.
const varFastUnsafe = "*?[ \t\n"

// wordPlan is one argument word's lowering.
type wordPlan struct {
	kind  planKind
	field string    // planStatic: the single precomputed field
	zero  bool      // planStatic with no resulting fields (a word of no parts)
	part  *joinPart // planVar
	arith *expand.ArithExpr
	w     *syntax.Word
}

// planName reports whether a plan resolves $name itself (by expand.Param):
// a shell variable, or a positional parameter other than $0.
func planName(name string) bool {
	if name == "" {
		return false
	}
	c := name[0]
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '1' && c <= '9')
}

// lookup reads a variable's value; ok=false means unset.
func (in *Interp) lookup(name string) (string, bool) {
	v, ok := in.Vars[name]
	return v.Value, ok
}

// compileWord lowers an argument word through its string-position plan:
// arithmetic stays arithmetic, a word that is one parameter read resolves
// without the expander, and static text is one precomputed field unless the
// globber could act on it (a pattern.HasMeta pattern: a `[` that opens no
// bracket expression is text).
func compileWord(w *syntax.Word) wordPlan {
	sp := compileStringWord(w)
	switch {
	case sp.kind == planArith:
		return wordPlan{kind: planArith, arith: sp.arith, w: w}
	case sp.kind == planJoin && len(sp.parts) == 1:
		return wordPlan{kind: planVar, part: &sp.parts[0], w: w}
	case sp.kind != planStatic:
		return wordPlan{w: w}
	}
	if pat, _ := expand.StaticPattern(w); pattern.HasMeta(pat) {
		return wordPlan{w: w}
	}
	return wordPlan{kind: planStatic, field: sp.value, zero: len(w.Parts) == 0, w: w}
}

// defaultIFS reports whether IFS holds its default value — the condition
// under which an unquoted value free of varFastUnsafe, or an arithmetic
// result, is one field as it stands.
func (in *Interp) defaultIFS() bool {
	v, ok := in.Vars["IFS"]
	return !ok || v.Value == " \t\n"
}

// lazyExpander is the one expander a command's dynamic words share, built
// on first need.
func (in *Interp) lazyExpander(xp **expand.Expander) *expand.Expander {
	if *xp == nil {
		*xp = in.expander()
	}
	return *xp
}

// wordListPlan lowers a word list; a fully static list expands to a
// precomputed slice.
type wordListPlan struct {
	plans     []wordPlan
	allStatic bool
	fields    []string // precomputed expansion when allStatic
}

func compileWordList(ws []*syntax.Word) *wordListPlan {
	p := &wordListPlan{plans: make([]wordPlan, len(ws)), allStatic: true}
	for i, w := range ws {
		p.plans[i] = compileWord(w)
		if p.plans[i].kind != planStatic {
			p.allStatic = false
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
	if p.allStatic && !in.NoCompile {
		return p.fields, nil
	}
	defIFS := in.defaultIFS()
	out := make([]string, 0, len(p.plans))
	for i := range p.plans {
		wp := &p.plans[i]
		kind := wp.kind
		if in.NoCompile {
			kind = planDynamic
		}
		switch kind {
		case planStatic:
			if !wp.zero {
				out = append(out, wp.field)
			}
			continue
		case planVar:
			v, ok := in.joinPart(wp.part)
			switch {
			case !ok: // the expander reports it
			case wp.part.quoted:
				out = append(out, v)
				continue
			case !defIFS:
			case v == "":
				continue // empty unquoted expansion: no fields
			case !strings.ContainsAny(v, varFastUnsafe):
				out = append(out, v)
				continue
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
		fields, err := in.lazyExpander(xp).ExpandWord(wp.w)
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
	if in.ar.Lookup == nil {
		in.ar.Lookup = func(name string) string { return in.Vars[name].Value }
		in.ar.Assign = in.assign
	}
	v, err := a.Eval(&in.ar)
	if err != nil {
		return 0, &expand.ExpandError{Msg: err.Error(), Fatal: true}
	}
	return v, nil
}

// stringPlan lowers a word used in ExpandString position (assignment
// values, the case word): no field splitting or globbing applies, so
// static text is valid regardless of IFS, parameters are their values,
// and arithmetic results are always literal digits.
type stringPlan struct {
	kind  planKind
	value string     // planStatic
	parts []joinPart // planJoin
	arith *expand.ArithExpr
	w     *syntax.Word
}

// joinPart is one piece of a planJoin word: literal text (name == ""), or
// the value of $name, "$name" or ${name#pat}-style trim of it.
type joinPart struct {
	lit    string
	name   string
	op     syntax.ParamOp // ParamPlain, or a trim
	pat    string         // the trim's static pattern
	quoted bool
}

// paramPart lowers $name, or a trim of it whose pattern is static.
func paramPart(p *syntax.ParamExp, quoted bool) (joinPart, bool) {
	if !planName(p.Name) {
		return joinPart{}, false
	}
	switch p.Op {
	case syntax.ParamTrimSuffix, syntax.ParamTrimSuffixLong, syntax.ParamTrimPrefix, syntax.ParamTrimPrefixLong:
		pat, ok := expand.StaticPattern(p.Word)
		return joinPart{name: p.Name, op: p.Op, pat: pat, quoted: quoted}, ok
	}
	return joinPart{name: p.Name, quoted: quoted}, p.Op == syntax.ParamPlain
}

func compileStringWord(w *syntax.Word) stringPlan {
	if w == nil {
		return stringPlan{kind: planStatic}
	}
	if len(w.Parts) == 1 {
		// The common one-part words build no part list.
		switch p := w.Parts[0].(type) {
		case *syntax.ArithExp:
			if a, err := expand.CompileArithExpr(p.Expr); err == nil && p.Parts == nil {
				return stringPlan{kind: planArith, arith: a, w: w}
			}
		case *syntax.Lit:
			if !strings.ContainsRune(p.Value, '~') {
				return stringPlan{kind: planStatic, value: p.Value, w: w}
			}
		case *syntax.SglQuoted:
			return stringPlan{kind: planStatic, value: p.Value, w: w}
		}
	}
	var parts []joinPart
	lit := func(s string) {
		if n := len(parts); n > 0 && parts[n-1].name == "" {
			parts[n-1].lit += s
		} else {
			parts = append(parts, joinPart{lit: s})
		}
	}
	for _, part := range w.Parts {
		switch p := part.(type) {
		case *syntax.Lit:
			// Tilde still matters for ExpandString; IFS and glob
			// metacharacters do not.
			if strings.ContainsRune(p.Value, '~') {
				return stringPlan{w: w}
			}
			lit(p.Value)
		case *syntax.SglQuoted:
			lit(p.Value)
		case *syntax.ParamExp:
			jp, ok := paramPart(p, false)
			if !ok {
				return stringPlan{w: w}
			}
			parts = append(parts, jp)
		case *syntax.DblQuoted:
			if len(p.Parts) == 0 {
				lit("") // "" is text: $x"" is two parts, and one field
			}
			for _, ip := range p.Parts {
				switch q := ip.(type) {
				case *syntax.Lit:
					lit(q.Value)
				case *syntax.ParamExp:
					jp, ok := paramPart(q, true)
					if !ok {
						return stringPlan{w: w}
					}
					parts = append(parts, jp)
				default:
					return stringPlan{w: w}
				}
			}
		default:
			return stringPlan{w: w}
		}
	}
	switch {
	case len(parts) == 0:
		return stringPlan{kind: planStatic, w: w}
	case len(parts) == 1 && parts[0].name == "":
		return stringPlan{kind: planStatic, value: parts[0].lit, w: w}
	}
	return stringPlan{kind: planJoin, parts: parts, w: w}
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
	case planJoin:
		if v, ok := in.join(sp.parts); ok {
			return v, nil
		}
	case planArith:
		v, err := in.evalArith(sp.arith)
		if err != nil {
			return "", err
		}
		return strconv.FormatInt(v, 10), nil
	}
	return in.lazyExpander(xp).ExpandString(sp.w)
}

// join concatenates a planJoin word's parts in one allocation; one part is
// its value, with no copy. ok=false hands the word to the expander, which
// reports an unset name under set -u.
func (in *Interp) join(parts []joinPart) (string, bool) {
	if len(parts) == 1 {
		return in.joinPart(&parts[0])
	}
	var buf [8]string
	vals, n := buf[:0], 0
	for i := range parts {
		v, ok := in.joinPart(&parts[i])
		if !ok {
			return "", false
		}
		vals, n = append(vals, v), n+len(v)
	}
	var b strings.Builder
	b.Grow(n)
	for _, v := range vals {
		b.WriteString(v)
	}
	return b.String(), true
}

func (in *Interp) joinPart(p *joinPart) (string, bool) {
	if p.name == "" {
		return p.lit, true
	}
	v, ok := expand.Param(p.name, in.Params, in.lookup)
	if !ok && in.NoUnset {
		return "", false
	}
	if p.op != syntax.ParamPlain {
		v = expand.Trim(v, p.pat, p.op)
	}
	return v, true
}

// patternPlan lowers a case arm's pattern: a static one is computed once.
type patternPlan struct {
	pat    string
	static bool
	w      *syntax.Word
}

func compilePattern(w *syntax.Word) patternPlan {
	pat, ok := expand.StaticPattern(w)
	return patternPlan{pat, ok, w}
}

func (pp *patternPlan) expand(in *Interp, xp **expand.Expander) (string, error) {
	if pp.static && !in.NoCompile {
		return pp.pat, nil
	}
	return in.lazyExpander(xp).ExpandPattern(pp.w)
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
