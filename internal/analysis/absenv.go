// Abstract environments and abstract word expansion. Env maps variable
// names to AbsVals with an optional fallback into the interpreter's
// concrete variable table, and FieldsOf/EvalWordAbs walk a word's
// expand.Plan — the fragments expand.Run evaluates — over abstract values,
// in Run's Fields and String modes.
//
// Soundness contract: whenever FieldsOf reports exact=true, the field
// list it returns has exactly the structure the real expander produces,
// and every AbsConst field equals the real field byte-for-byte (and an
// AbsConst from EvalWordAbs the real string; TestAbstractExpansionIsSound
// checks both). Anything the model cannot reproduce faithfully
// (non-default IFS, $@/$*, tilde, unquoted expansion of a non-constant
// value) degrades to exact=false, and the consumers fall back to the
// conservative ⊤ paths they used before this layer existed.
package analysis

import (
	"sort"
	"strconv"
	"strings"

	"jash/internal/expand"
	"jash/internal/syntax"
)

// defaultIFS is the field separator set POSIX prescribes when IFS is
// unset. The abstract splitter only runs under it.
const defaultIFS = " \t\n"

// Env is a flow-sensitive abstract variable environment.
type Env struct {
	vals   map[string]AbsVal
	lookup func(name string) (string, bool)
	// ifsDefault records that field splitting provably uses the default
	// separators; any tampering with IFS clears it and disables the
	// abstract splitter.
	ifsDefault bool
	// params abstracts the positional parameters $1..$N (function
	// summaries bind these); paramsKnown=false leaves positionals ⊤.
	params      []AbsVal
	paramsKnown bool
	// flow is the def-use state at this point, when the walk collects it.
	flow *flow
}

// NewEnv returns an empty environment. lookup, when non-nil, resolves
// names with no abstract binding against the live interpreter state (the
// runtime planners pass in.Vars); a nil lookup leaves them ⊤ (static
// analysis). With a live lookup, a miss means the variable is provably
// unset at this program point, which expands to the empty string.
func NewEnv(lookup func(name string) (string, bool)) *Env {
	e := &Env{vals: map[string]AbsVal{}, lookup: lookup, ifsDefault: true}
	if lookup != nil {
		if v, ok := lookup("IFS"); ok && v != defaultIFS {
			e.ifsDefault = false
		}
	}
	return e
}

// Resolve returns the abstract value of a variable.
func (e *Env) Resolve(name string) AbsVal {
	if !isVarName(name) {
		return Top()
	}
	if v, ok := e.vals[name]; ok {
		return v
	}
	if e.lookup == nil {
		return Top()
	}
	if s, ok := e.lookup(name); ok {
		return Const(s)
	}
	return Const("") // provably unset: plain expansion is empty
}

// Bind records an assignment.
func (e *Env) Bind(name string, v AbsVal) {
	if !isVarName(name) {
		return
	}
	e.vals[name] = v
	if name == "IFS" {
		e.ifsDefault = v.Kind == AbsConst && v.Str == defaultIFS
	}
}

// UnsetVar records `unset name`: the plain expansion becomes empty, and
// field splitting reverts to the POSIX default separators.
func (e *Env) UnsetVar(name string) {
	if !isVarName(name) {
		return
	}
	e.vals[name] = Const("")
	if name == "IFS" {
		e.ifsDefault = true
	}
}

// WidenAll forgets everything: every name resolves to ⊤ afterwards (until
// rebound) and splitting is no longer provably default. Used for eval and
// sourced scripts, which can assign arbitrary variables.
func (e *Env) WidenAll() {
	e.vals = map[string]AbsVal{}
	e.lookup = nil
	e.ifsDefault = false
	e.params = nil
	e.paramsKnown = false
}

// SetParams binds the abstract positional parameters $1..$N.
func (e *Env) SetParams(vals []AbsVal) {
	e.params = append([]AbsVal(nil), vals...)
	e.paramsKnown = true
}

// ClearParams forgets the positional parameters (shift, set --).
func (e *Env) ClearParams() {
	e.params = nil
	e.paramsKnown = false
}

// Clone copies the environment for a branch or subshell walk.
func (e *Env) Clone() *Env {
	nv := make(map[string]AbsVal, len(e.vals))
	for k, v := range e.vals {
		nv[k] = v
	}
	c := &Env{vals: nv, lookup: e.lookup, ifsDefault: e.ifsDefault,
		params: append([]AbsVal(nil), e.params...), paramsKnown: e.paramsKnown}
	if e.flow != nil {
		c.flow = e.flow.clone()
	}
	return c
}

// JoinWith folds a branch environment back into this one, since the branch
// may or may not have executed: every name either side binds joins the two
// sides' values, and a side that forgot everything (WidenAll) leaves the
// names neither binds ⊤ as well. The branch's definitions become visible.
func (e *Env) JoinWith(o *Env) {
	if o == nil {
		return
	}
	for name, ov := range o.vals {
		e.Bind(name, Join(e.Resolve(name), ov))
	}
	for name, ev := range e.vals {
		if _, both := o.vals[name]; !both {
			e.Bind(name, Join(ev, o.Resolve(name)))
		}
	}
	if o.lookup == nil {
		e.lookup = nil
	}
	e.ifsDefault = e.ifsDefault && o.ifsDefault
	if e.paramsKnown != o.paramsKnown {
		e.ClearParams()
	}
	e.flow.merge(o.flow)
}

// Dump renders the abstract bindings deterministically for golden tests:
// one "name=value" line per binding, sorted by name.
func (e *Env) Dump() string {
	names := make([]string, 0, len(e.vals))
	for n := range e.vals {
		names = append(names, n)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, n := range names {
		b.WriteString(n)
		b.WriteString("=")
		b.WriteString(e.vals[n].String())
		b.WriteString("\n")
	}
	if !e.ifsDefault {
		b.WriteString("[IFS not default]\n")
	}
	return b.String()
}

// AbsField is one field a word may expand to.
type AbsField struct {
	Val AbsVal
	// Globbable marks a field containing unquoted glob metacharacters:
	// pathname expansion may replace it with matching paths, so even a
	// constant value cannot be trusted as a single concrete path.
	Globbable bool
}

// absFrag is one fragment of a word's expansion over abstract values, as
// expand.Run builds it over strings: a run of characters that are all
// quoted or all unquoted.
type absFrag struct {
	val    AbsVal
	quoted bool
	// lit marks a word's literal text, which is never split.
	lit bool
	// noSplit marks an unquoted fragment that provably contains no IFS
	// whitespace and no glob metacharacters — arithmetic results and ${#x}
	// lengths, which are always plain digit strings.
	noSplit bool
}

// FieldsOf computes the fields a word expands to. exact=true guarantees
// the returned list has precisely the runtime field structure; Const
// fields then match the real expansion byte-for-byte. exact=false means
// the structure could not be proven and the fields slice is nil.
func FieldsOf(w *syntax.Word, env *Env) ([]AbsField, bool) {
	if w == nil {
		return nil, true
	}
	if env == nil {
		env = NewEnv(nil)
	}
	var frags []absFrag
	exact := false
	expand.Lower(w, func(fs []expand.Frag) { frags, exact = absFrags(fs, env) })
	if !exact {
		return nil, false
	}
	var fields []AbsField
	cur, curGlob, started := Const(""), false, false
	emit := func() {
		fields = append(fields, AbsField{Val: cur, Globbable: curGlob})
		cur, curGlob, started = Const(""), false, false
	}
	for _, f := range frags {
		if f.quoted || f.lit || f.noSplit && env.ifsDefault {
			if f.lit && strings.ContainsAny(f.val.Str, "*?[") {
				curGlob = true
			}
			cur = Concat(cur, f.val)
			started = true
			continue
		}
		if f.val.Kind != AbsConst || !env.ifsDefault {
			// Unquoted expansion of an unknown value, or split by an
			// unknown IFS: splitting unknown.
			return nil, false
		}
		s := f.val.Str
		for i := 0; i < len(s); i++ {
			c := s[i]
			if c == ' ' || c == '\t' || c == '\n' {
				if started {
					emit()
				}
				continue
			}
			if c == '*' || c == '?' || c == '[' {
				curGlob = true
			}
			cur = Concat(cur, Const(s[i:i+1]))
			started = true
		}
	}
	if started {
		emit()
	}
	return fields, true
}

// EvalWordAbs computes the abstract single-string expansion of a word —
// the ExpandString rule used for assignment values, redirection targets,
// and case words (no field splitting, no globbing).
func EvalWordAbs(w *syntax.Word, env *Env) AbsVal {
	if w == nil {
		return Const("")
	}
	if env == nil {
		env = NewEnv(nil)
	}
	var frags []absFrag
	expand.Lower(w, func(fs []expand.Frag) { frags, _ = absFrags(fs, env) })
	out := Const("")
	for _, f := range frags {
		out = Concat(out, f.val)
	}
	return out
}

// absFrags walks a word's plan over abstract values. The boolean result is
// false when the fragment list does not faithfully model the runtime
// fragment structure ($@/$*, a tilde prefix).
func absFrags(fs []expand.Frag, env *Env) ([]absFrag, bool) {
	var frags []absFrag
	exact := true
	for i := 0; i < len(fs); i++ {
		f := &fs[i]
		sub := fs[i+1 : i+1+int(f.N)]
		i += int(f.N)
		switch f.Kind {
		case expand.Text:
			frags = append(frags, absFrag{val: Const(f.Text), quoted: f.Quoted, lit: f.Lit})
		case expand.Tilde:
			// $HOME, or the text: the value, and which of the two, unknown.
			exact = false
			frags = append(frags, absFrag{val: Top(), quoted: true})
		case expand.Group:
			inner, ok := absFrags(sub, env)
			exact = exact && ok
			if len(inner) == 0 {
				// A double-quoted string that expands to nothing is one
				// empty field.
				inner = append(inner, absFrag{val: Const(""), quoted: true})
			}
			frags = append(frags, inner...)
		case expand.Param:
			pf, ok := absParam(f, sub, env)
			exact = exact && ok
			frags = append(frags, pf...)
		case expand.Subst:
			// Output unknown; as a single fragment the model stays
			// faithful (splitting of unquoted ⊤ is rejected in FieldsOf).
			frags = append(frags, absFrag{val: Top(), quoted: f.Quoted})
		case expand.Arith:
			// Arithmetic always yields one plain digit string.
			frags = append(frags, absFrag{val: Top(), quoted: f.Quoted, noSplit: true})
		}
	}
	return frags, exact
}

// absParam models one parameter expansion, whose operand is the fragments
// opd, as fragments: what expand.Choose makes of the value in every state
// (set or not, empty or not) the abstract value allows.
func absParam(f *expand.Frag, opd []expand.Frag, env *Env) ([]absFrag, bool) {
	pe, inDquote := f.Param, f.Quoted
	name := pe.Name
	one := func(v AbsVal) ([]absFrag, bool) {
		return []absFrag{{val: v, quoted: inDquote}}, true
	}
	digits := []absFrag{{val: Top(), quoted: inDquote, noSplit: true}}
	val := Top()
	switch {
	case name == "@" || name == "*":
		// Multiple fields / IFS-joined: structure depends on $#.
		return []absFrag{{val: Top(), quoted: inDquote}}, false
	case isVarName(name):
		val = env.Resolve(name)
	case len(name) > 0 && name[0] >= '1' && name[0] <= '9':
		if n, err := strconv.Atoi(name); err == nil && env.paramsKnown {
			if n <= len(env.params) {
				val = env.params[n-1]
			} else {
				val = Const("")
			}
		}
	case name == "#" && env.paramsKnown && pe.Op == syntax.ParamPlain:
		return one(Const(strconv.Itoa(len(env.params))))
	case name == "#" || name == "?" || name == "$":
		// The count, the exit status and the PID are set digit strings,
		// and so is any length or trim of them.
		return digits, true
	case name == "!":
		val = Const("") // no job control: always unset
	}
	// The states the value allows, as (set, empty): a non-empty constant
	// or a known prefix is set and non-empty, Const("") is set and empty
	// or unset, ⊤ any of the three.
	states := [][2]bool{{true, false}, {true, true}, {false, true}}
	switch {
	case val.Kind == AbsConst && val.Str != "" || val.Kind == AbsPrefix:
		states = states[:1]
	case val.Kind == AbsConst:
		states = states[1:]
	}
	use := expand.Choose(pe, states[0][0], states[0][1])
	for _, st := range states[1:] {
		if expand.Choose(pe, st[0], st[1]) != use {
			// The reads differ from state to state: one fragment, of
			// unknown value, unless one of them is the operand in place
			// or nothing.
			ok := pe.Op == syntax.ParamAssign || pe.Op == syntax.ParamError
			return []absFrag{{val: Top(), quoted: inDquote}}, ok
		}
	}
	switch use {
	case expand.UseOperand:
		return absFrags(opd, env)
	case expand.UseNothing:
		return nil, true
	case expand.UseAssign, expand.UseAbort:
		// The operand's string, assigned (the environment-side widening
		// of the name is the walker's job), or an abort.
		return one(Top())
	case expand.UseLength:
		if val.Kind == AbsConst {
			return one(Const(strconv.Itoa(len(val.Str))))
		}
		return digits, true
	case expand.UseTrim:
		if f.Static && val.Kind == AbsConst {
			return one(Const(expand.Trim(val.Str, f.Text, pe.Op)))
		}
		return one(Top())
	}
	return one(val)
}
