// Abstract environments and abstract word expansion. Env maps variable
// names to AbsVals with an optional fallback into the interpreter's
// concrete variable table, and FieldsOf/EvalWordAbs mirror the two entry
// points of package expand — ExpandWord (field-split argv words) and
// ExpandString (assignments, redirection targets) — over abstract values.
//
// Soundness contract: whenever FieldsOf reports exact=true, the field
// list it returns has exactly the structure the real expander produces,
// and every AbsConst field equals the real field byte-for-byte. Anything
// the model cannot reproduce faithfully (non-default IFS, $@/$*, tilde,
// unquoted expansion of a non-constant value) degrades to exact=false,
// and the consumers fall back to the conservative ⊤ paths they used
// before this layer existed.
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

// IFSIsDefault reports whether field splitting provably uses " \t\n".
func (e *Env) IFSIsDefault() bool { return e.ifsDefault }

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

// absFrag mirrors expand's frag over abstract values: a run of characters
// that are all quoted or all unquoted.
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

// fragContext is where absFrags models parts, as expand's context is: a
// word's own text, the inside of double quotes, or the unquoted operand of
// ${x op word}, whose literal text is part of the expansion's result.
type fragContext uint8

const (
	fragWord fragContext = iota
	fragDquote
	fragOperand
)

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
	if startsWithTilde(w) {
		return nil, false
	}
	frags, exact := absFrags(w.Parts, fragWord, env)
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
	if startsWithTilde(w) {
		return Top()
	}
	frags, _ := absFrags(w.Parts, fragWord, env)
	out := Const("")
	for _, f := range frags {
		out = Concat(out, f.val)
	}
	return out
}

// absFrags turns word parts, in context c, into abstract fragments. The
// boolean result is false when the fragment list does not faithfully model
// the runtime fragment structure ($@/$*, unknown part kinds).
func absFrags(parts []syntax.WordPart, c fragContext, env *Env) ([]absFrag, bool) {
	var frags []absFrag
	exact, inDquote := true, c == fragDquote
	for _, part := range parts {
		switch p := part.(type) {
		case *syntax.Lit:
			frags = append(frags, absFrag{val: Const(p.Value), quoted: inDquote, lit: c == fragWord})
		case *syntax.SglQuoted:
			frags = append(frags, absFrag{val: Const(p.Value), quoted: true})
		case *syntax.DblQuoted:
			inner, ok := absFrags(p.Parts, fragDquote, env)
			if !ok {
				exact = false
			}
			if len(inner) == 0 {
				if onlyAtParams(p.Parts) {
					// "$@": one field per parameter — unknown count.
					exact = false
					continue
				}
				// "" must still produce an (empty) field.
				frags = append(frags, absFrag{val: Const(""), quoted: true})
				continue
			}
			frags = append(frags, inner...)
		case *syntax.ParamExp:
			pf, ok := absParam(p, inDquote, env)
			if !ok {
				exact = false
			}
			frags = append(frags, pf...)
		case *syntax.CmdSubst:
			// Output unknown; as a single fragment the model stays
			// faithful (splitting of unquoted ⊤ is rejected in FieldsOf).
			frags = append(frags, absFrag{val: Top(), quoted: inDquote})
		case *syntax.ArithExp:
			// Arithmetic always yields one plain digit string.
			frags = append(frags, absFrag{val: Top(), quoted: inDquote, noSplit: true})
		default:
			exact = false
			frags = append(frags, absFrag{val: Top(), quoted: inDquote})
		}
	}
	return frags, exact
}

// absParam models one parameter expansion as fragments, mirroring
// expand.expandParam case by case.
func absParam(pe *syntax.ParamExp, inDquote bool, env *Env) ([]absFrag, bool) {
	name := pe.Name
	if name == "@" || name == "*" {
		// Multiple fields / IFS-joined: structure depends on $#.
		return []absFrag{{val: Top(), quoted: inDquote}}, false
	}
	val := Top()
	switch {
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
	case name == "#":
		if env.paramsKnown && pe.Op == syntax.ParamPlain {
			return []absFrag{{val: Const(strconv.Itoa(len(env.params))), quoted: inDquote}}, true
		}
		return []absFrag{{val: Top(), quoted: inDquote, noSplit: true}}, true
	case name == "?" || name == "$":
		// Exit status and PID are digit strings: single unsplittable frag.
		return []absFrag{{val: Top(), quoted: inDquote, noSplit: true}}, true
	case name == "!":
		val = Const("") // no job control: always unset
	}
	// set&non-null is decidable for two shapes: a non-empty constant, and
	// any known prefix (Prefix is non-empty by construction).
	definite := (val.Kind == AbsConst && val.Str != "") || val.Kind == AbsPrefix
	emptyConst := val.Kind == AbsConst && val.Str == ""
	one := func(v AbsVal) ([]absFrag, bool) {
		return []absFrag{{val: v, quoted: inDquote}}, true
	}
	word := func() ([]absFrag, bool) {
		if pe.Word == nil {
			return nil, true
		}
		if inDquote {
			return absFrags(pe.Word.Parts, fragDquote, env)
		}
		return absFrags(pe.Word.Parts, fragOperand, env)
	}
	switch pe.Op {
	case syntax.ParamPlain:
		return one(val)
	case syntax.ParamLength:
		if val.Kind == AbsConst {
			return one(Const(strconv.Itoa(len(val.Str))))
		}
		return []absFrag{{val: Top(), quoted: inDquote, noSplit: true}}, true
	case syntax.ParamDefault:
		if definite {
			return one(val)
		}
		if pe.Colon && emptyConst {
			// Empty and unset take the same branch under `:`.
			return word()
		}
		// Either ⊤ set-ness, or (without the colon) Const("") ambiguous
		// between set-empty (expands empty) and unset (expands the word):
		// the fragment structure itself is unknown.
		return []absFrag{{val: Top(), quoted: inDquote}}, false
	case syntax.ParamAssign:
		if definite {
			return one(val)
		}
		// Assignment may fire; the result is the word's single-string
		// expansion — always exactly one fragment. The environment-side
		// widening of the name is the walker's job.
		return one(Top())
	case syntax.ParamError:
		if definite {
			return one(val)
		}
		// May abort the shell; if it proceeds the value was set.
		return one(Top())
	case syntax.ParamAlt:
		if pe.Colon && emptyConst {
			return nil, true // not taken: expands to nothing
		}
		if definite {
			// Set and non-null satisfies both the `:+` and `+` forms.
			return word()
		}
		// Unknown or ambiguous set-ness: zero-or-word fragments.
		return []absFrag{{val: Top(), quoted: inDquote}}, false
	case syntax.ParamTrimSuffix, syntax.ParamTrimSuffixLong,
		syntax.ParamTrimPrefix, syntax.ParamTrimPrefixLong:
		if pat, ok := expand.StaticPattern(pe.Word); ok && val.Kind == AbsConst {
			return one(Const(expand.Trim(val.Str, pat, pe.Op)))
		}
		return one(Top())
	}
	return one(Top())
}

// onlyAtParams reports whether quoted parts consist solely of $@/$*.
func onlyAtParams(parts []syntax.WordPart) bool {
	for _, p := range parts {
		pe, ok := p.(*syntax.ParamExp)
		if !ok || (pe.Name != "@" && pe.Name != "*") {
			return false
		}
	}
	return len(parts) > 0
}

// startsWithTilde reports whether tilde expansion could rewrite the
// word's leading fragment (unquoted literal beginning with ~).
func startsWithTilde(w *syntax.Word) bool {
	if len(w.Parts) == 0 {
		return false
	}
	l, ok := w.Parts[0].(*syntax.Lit)
	return ok && strings.HasPrefix(l.Value, "~")
}
