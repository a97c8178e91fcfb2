package expand

import (
	"slices"
	"strings"
	"sync"

	"jash/internal/pattern"
	"jash/internal/syntax"
)

// Plan is a word lowered once, by Compile, to a flat list of fragments.
// The parser has settled quoting, so each fragment says all there is to
// know about its text: quoted, the word's own literal text, or (in the
// unquoted operand of ${x-word}) text that is split like an expansion's
// result. Run is the one evaluator of a plan; the analyses walk the same
// fragments over abstract values (Lower). A compiled plan is never
// modified, so interpreter clones running concurrently share one.
type Plan struct {
	frags []Frag
	// value is the string of a static word, no fragment of which reads
	// shell state; glob says its pattern has a live metacharacter (its one
	// field is then the pathnames it matches), empty that it has no
	// fragment (and no field). A static word keeps its fragments only when
	// its pattern is not its value (a quoted metacharacter).
	value               string
	static, glob, empty bool
}

// FragKind classifies a Frag.
type FragKind uint8

const (
	// Text is static text.
	Text FragKind = iota
	// Tilde is the leading unquoted `~` or `~/…` (Text) of a word or of
	// an unquoted ${x-word} operand: $HOME and the rest (Lit as a word's
	// text is), or the text as written when HOME is unset (as in dash),
	// and always in a pattern.
	Tilde
	// Param is a parameter read (Param). Its operand is the N fragments
	// after it: expanded in place for ${x-w} and ${x+w}, to a string for
	// ${x=w} and ${x?w}, to a pattern for a trim (unless Static).
	Param
	// Subst is a command substitution (Subst).
	Subst
	// Arith is $((…)): Expr, or, when the text holds expansions, the N
	// fragments after it expanded to text and compiled.
	Arith
	// Group is a double-quoted string, the N fragments after it, that may
	// expand to no fragment at all; it is then one empty quoted fragment.
	Group
)

// Frag is one fragment of a Plan.
type Frag struct {
	Kind FragKind
	// Quoted marks text or an expansion's result that is neither split
	// nor globbed; Lit marks a word's own unquoted text, globbed but never
	// split.
	Quoted, Lit bool
	// Static marks a trim whose pattern holds no expansion: Text is that
	// pattern, and the trim has no operand fragments.
	Static bool
	// N is how many of the fragments after this one belong to it.
	N     int32
	Text  string
	Param *syntax.ParamExp
	Subst *syntax.CmdSubst
	Arith *syntax.ArithExp
	// Expr is an Arith's text compiled, when the text holds no expansion
	// and compiles.
	Expr *ArithExpr
}

// Mode is what Run makes of a word.
type Mode uint8

const (
	// Fields: split and globbed, an argument word.
	Fields Mode = iota
	// String: one string, neither split nor globbed (an assignment value,
	// a redirection target, the case word).
	String
	// Pattern: a matching pattern, quoted characters escaped (a case
	// pattern, a trim's operand).
	Pattern
)

// context is where parts are lowered: in a word's own text, inside double
// quotes, or in the unquoted operand of ${x op word}, whose literal text is
// part of the expansion's result.
type context uint8

const (
	wordText context = iota
	dquoted
	operand
)

// Compile lowers w to its plan; a nil word is the empty one. The plan is a
// value: a command's plans sit in its compiled form, and a static word's
// plan holds no fragment list.
func Compile(w *syntax.Word) Plan {
	s := borrow(w)
	defer release(s)
	p := *s
	p.frags = nil
	if !s.static || s.pattern() != s.value {
		p.frags = slices.Clone(s.frags)
	}
	return p
}

// Lower calls fn with the fragments of w's plan, which are valid only
// during the call: the analyses walk them over abstract values.
func Lower(w *syntax.Word, fn func([]Frag)) {
	s := borrow(w)
	defer release(s)
	fn(s.frags)
}

// MayGlob reports whether pathname expansion may act on w: for a static
// word, whether its pattern has a live metacharacter (a `[` that opens no
// bracket expression is text); otherwise whether it has an unquoted
// expansion, or unquoted text holding `*`, `?` or `[`.
func MayGlob(w *syntax.Word) bool {
	s := borrow(w)
	defer release(s)
	return s.mayGlob()
}

// scratch holds plans being built, so that Compile allocates only the
// plan's exact fragment list, and Lower and MayGlob allocate nothing.
var scratch = sync.Pool{New: func() any { return new(Plan) }}

func borrow(w *syntax.Word) *Plan {
	p := scratch.Get().(*Plan)
	p.lower(w)
	return p
}

func release(p *Plan) {
	clear(p.frags)
	p.frags = p.frags[:0]
	scratch.Put(p)
}

// lower rebuilds p from w, reusing its fragment list, and reads the
// plan's properties off the fragments.
func (p *Plan) lower(w *syntax.Word) {
	clear(p.frags)
	fs := p.frags[:0]
	if w != nil {
		fs = appendWord(fs, w, wordText)
	}
	p.frags = fs
	p.value, p.static = staticText(fs)
	p.glob = p.static && pattern.HasMeta(p.pattern())
	p.empty = len(fs) == 0
}

// Fixed appends to out the fields of a word that expands alike in every
// shell state — no expansion, no tilde prefix, nothing the globber acts
// on — and reports false, appending nothing, for any other word.
func (p *Plan) Fixed(out []string) ([]string, bool) {
	switch {
	case !p.static || p.glob:
		return out, false
	case p.empty:
		return out, true
	}
	return append(out, p.value), true
}

func (p *Plan) mayGlob() bool {
	if p.static {
		return p.glob
	}
	fs := p.frags
	for i := 0; i < len(fs); i++ {
		f := &fs[i]
		switch {
		case f.Quoted:
		case f.Kind == Param || f.Kind == Subst:
			return true
		case f.Kind == Text || f.Kind == Tilde:
			if strings.ContainsAny(f.Text, "*?[") {
				return true
			}
		}
		if f.Kind == Param && !inPlace(f.Param.Op) {
			i += int(f.N) // a string or pattern operand is globbed only as the value
		}
	}
	return false
}

// Use is what a parameter read (other than of $@ and $*) makes: Choose
// decides it, for Run and for the analyses' abstract walk alike. The uses
// from UseOperand on make something other than the parameter's value.
type Use uint8

const (
	// UseValue: the value ($x, and ${x-w}, ${x=w}, ${x?w} of a set x).
	UseValue Use = iota
	// UseLength: the value's length (${#x}).
	UseLength
	// UseTrim: the value trimmed by the operand's pattern (${x#w} and the
	// like).
	UseTrim
	// UseOperand: the operand, expanded in place of the read (${x-w} of a
	// null x, ${x+w} of a set one).
	UseOperand
	// UseNothing: no fragment (${x+w} of a null x).
	UseNothing
	// UseAssign: the operand as a string, assigned to x (${x=w} of a null
	// x).
	UseAssign
	// UseAbort: the operand as the message of a fatal error (${x?w} of a
	// null x).
	UseAbort
)

// Choose decides what the read pe makes of a parameter that is set or not
// and whose value is empty or not. The parameter is null when it is unset,
// or, with the colon (${x:-w}), empty.
func Choose(pe *syntax.ParamExp, set, empty bool) Use {
	null := !set || pe.Colon && empty
	switch pe.Op {
	case syntax.ParamLength:
		return UseLength
	case syntax.ParamDefault:
		if null {
			return UseOperand
		}
	case syntax.ParamAlt:
		if null {
			return UseNothing
		}
		return UseOperand
	case syntax.ParamAssign:
		if null {
			return UseAssign
		}
	case syntax.ParamError:
		if null {
			return UseAbort
		}
	case syntax.ParamTrimPrefix, syntax.ParamTrimPrefixLong,
		syntax.ParamTrimSuffix, syntax.ParamTrimSuffixLong:
		return UseTrim
	}
	return UseValue
}

// inPlace reports whether a ${x op word} operand is expanded in place of
// the parameter: the default and alternative forms.
func inPlace(op syntax.ParamOp) bool {
	return op == syntax.ParamDefault || op == syntax.ParamAlt
}

// staticText returns the string of fragments that are all Text, and false
// when one is not.
func staticText(fs []Frag) (string, bool) {
	for _, f := range fs {
		if f.Kind != Text {
			return "", false
		}
	}
	if len(fs) == 1 {
		return fs[0].Text, true
	}
	var b strings.Builder
	for _, f := range fs {
		b.WriteString(f.Text)
	}
	return b.String(), true
}

// pattern is a static plan's pattern.
func (p *Plan) pattern() string { return staticPattern(p.frags, p.value) }

// staticPattern is the pattern of Text fragments whose string is value:
// value with the quoted metacharacters escaped.
func staticPattern(fs []Frag, value string) string {
	escaped := false
	for _, f := range fs {
		escaped = escaped || f.Quoted && strings.ContainsAny(f.Text, `*?[]\`)
	}
	if !escaped {
		return value
	}
	var b strings.Builder
	for _, f := range fs {
		if f.Quoted {
			b.WriteString(escapeMeta(f.Text))
		} else {
			b.WriteString(f.Text)
		}
	}
	return b.String()
}

// appendWord lowers a word (a command's word, or a ${x op word} operand)
// onto fs, in context c.
func appendWord(fs []Frag, w *syntax.Word, c context) []Frag {
	parts := w.Parts
	if len(parts) > 0 && c != dquoted {
		// A leading `~` or `~/…` is a tilde prefix (a `~user` form stays
		// text: there is no user database).
		if l, ok := parts[0].(*syntax.Lit); ok && (l.Value == "~" || strings.HasPrefix(l.Value, "~/")) {
			fs = append(fs, Frag{Kind: Tilde, Text: l.Value, Lit: c == wordText})
			parts = parts[1:]
		}
	}
	return appendParts(fs, parts, c)
}

// appendParts lowers word parts, in context c, onto fs.
func appendParts(fs []Frag, parts []syntax.WordPart, c context) []Frag {
	for _, part := range parts {
		switch p := part.(type) {
		case *syntax.Lit:
			fs = append(fs, Frag{Kind: Text, Text: p.Value, Quoted: c == dquoted, Lit: c == wordText})
		case *syntax.SglQuoted:
			fs = append(fs, Frag{Kind: Text, Text: p.Value, Quoted: true})
		case *syntax.DblQuoted:
			switch {
			case len(p.Parts) == 0: // "" is an empty field
				fs = append(fs, Frag{Kind: Text, Quoted: true})
			case onlyAt(p.Parts) || !allMayVanish(p.Parts):
				// "$@" with no parameters is no field; otherwise some part
				// always makes a fragment.
				fs = appendParts(fs, p.Parts, dquoted)
			default:
				i := len(fs)
				fs = appendParts(append(fs, Frag{Kind: Group}), p.Parts, dquoted)
				fs[i].N = int32(len(fs) - i - 1)
			}
		case *syntax.ParamExp:
			fs = appendParam(fs, p, c == dquoted)
		case *syntax.CmdSubst:
			fs = append(fs, Frag{Kind: Subst, Subst: p, Quoted: c == dquoted})
		case *syntax.ArithExp:
			f := Frag{Kind: Arith, Arith: p, Quoted: c == dquoted}
			if len(p.Parts) == 0 {
				f.Expr, _ = CompileArithExpr(p.Expr)
				fs = append(fs, f)
				continue
			}
			// POSIX expands the parameters and command substitutions in
			// the text before the arithmetic grammar sees it.
			i := len(fs)
			fs = appendParts(append(fs, f), p.Parts, dquoted)
			fs[i].N = int32(len(fs) - i - 1)
		}
	}
	return fs
}

// appendParam lowers one ${...} or $x, with its operand, onto fs.
func appendParam(fs []Frag, pe *syntax.ParamExp, quoted bool) []Frag {
	i := len(fs)
	fs = append(fs, Frag{Kind: Param, Param: pe, Quoted: quoted})
	switch op := pe.Op; {
	case op == syntax.ParamPlain || op == syntax.ParamLength:
	case inPlace(op):
		if pe.Word != nil {
			c := operand
			if quoted {
				c = dquoted
			}
			fs = appendWord(fs, pe.Word, c)
		}
	default:
		if pe.Word != nil {
			fs = appendWord(fs, pe.Word, wordText)
		}
		if op == syntax.ParamAssign || op == syntax.ParamError {
			break
		}
		if v, ok := staticText(fs[i+1:]); ok {
			fs[i].Text, fs[i].Static = staticPattern(fs[i+1:], v), true
			clear(fs[i+1:])
			fs = fs[:i+1]
		}
	}
	fs[i].N = int32(len(fs) - i - 1)
	return fs
}

// onlyAt reports whether double-quoted parts are all $@ or $*.
func onlyAt(parts []syntax.WordPart) bool {
	for _, p := range parts {
		pe, ok := p.(*syntax.ParamExp)
		if !ok || (pe.Name != "@" && pe.Name != "*") {
			return false
		}
	}
	return true
}

// allMayVanish reports whether every one of the double-quoted parts may
// expand to no fragment: $@, and ${x-w} and ${x+w} (the operand may be
// empty).
func allMayVanish(parts []syntax.WordPart) bool {
	for _, p := range parts {
		pe, ok := p.(*syntax.ParamExp)
		if !ok || (pe.Name != "@" && !inPlace(pe.Op)) {
			return false
		}
	}
	return true
}
