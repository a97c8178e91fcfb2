// Package expand implements POSIX word expansion — tilde, parameter,
// command substitution, arithmetic, field splitting, pathname expansion,
// and quote removal — in the order §2.6 of the standard prescribes. It is
// the Smoosh-semantics half of the Jash architecture: besides *performing*
// expansions for the interpreter, it *analyzes* them (see analyze.go) so
// the JIT can tell which words are safe to expand early and which shell
// state they depend on (the paper's B2).
package expand

import (
	"fmt"
	"strconv"
	"strings"

	"jash/internal/exec/faultinject"
	"jash/internal/pattern"
	"jash/internal/syntax"
	"jash/internal/vfs"
)

// ExpandError is an expansion failure (e.g. ${x:?msg} with x unset).
type ExpandError struct {
	Msg string
	// Fatal errors abort the whole script in a non-interactive shell.
	Fatal bool
}

func (e *ExpandError) Error() string { return e.Msg }

// Expander carries the shell state one expansion needs. Zero-value fields
// degrade gracefully: nil FS disables globbing, nil CmdSubst makes command
// substitution an error (the JIT uses this to refuse unsafe expansions).
// An Expander may be reused — its owner refreshes the exported fields
// between expansions — but not copied once used, and not shared by two
// expansions running at once.
type Expander struct {
	// Lookup resolves a variable; ok=false means unset.
	Lookup func(name string) (value string, ok bool)
	// Set assigns a variable, for ${x=word} and arithmetic assignment. Its
	// error (a readonly target) is fatal to the expansion.
	Set func(name, value string) error
	// Params are the positional parameters $1..$N.
	Params []string
	// Name0 is $0.
	Name0 string
	// Status is $?, PID is $$.
	Status int
	PID    int
	// FS and Dir support pathname expansion; NoGlob disables it (set -f).
	FS     *vfs.FS
	Dir    string
	NoGlob bool
	// NoUnset makes referencing an unset variable a fatal error (set -u).
	NoUnset bool
	// CmdSubst runs a command substitution body and returns its output.
	CmdSubst func(stmts []*syntax.Stmt) (string, error)
	// Faults, when non-nil, arms seeded fault injection at the expansion
	// layer: a tripped fault makes the expansion fail with a non-fatal
	// ExpandError (ModePanic faults are contained at this boundary), so
	// chaos soaks exercise the expansion error paths without crashing.
	Faults *faultinject.Set

	// frags is the scratch every expansion appends its fragments to, used
	// as a stack: a nested expansion (the operand of ${x#pat} or ${x=w},
	// the parts of a $((...))) appends after its caller's fragments and
	// truncates back to them when done.
	frags []frag
	// arith is what arithmetic evaluates against; its lookup is built on
	// first use.
	arith ArithEnv
	// pieces is the splitter's reused list of the pieces of the field
	// being built.
	pieces []piece
}

// ifs returns the active field separator set.
func (x *Expander) ifs() string {
	if x.Lookup != nil {
		if v, ok := x.Lookup("IFS"); ok {
			return v
		}
	}
	return " \t\n"
}

func (x *Expander) getvar(name string) (string, bool) {
	if x.Lookup == nil {
		return "", false
	}
	return x.Lookup(name)
}

// frag is one expansion fragment: a run of characters that are all quoted,
// all unquoted literal text (lit), or all the unquoted result of an
// expansion, or a hard field break (from "$@"). Only an expansion's
// unquoted result is field-split; unquoted text of either kind is globbed.
type frag struct {
	s          string
	quoted     bool
	lit        bool
	fieldBreak bool
}

// context is where appendParts expands parts: in a word's own text, inside
// double quotes, or in the unquoted operand of ${x op word}, whose literal
// text is part of the expansion's result.
type context uint8

const (
	wordText context = iota
	dquoted
	operand
)

// truncate pops the scratch back to mark, dropping the popped fragments'
// strings.
func (x *Expander) truncate(mark int) {
	clear(x.frags[mark:])
	x.frags = x.frags[:mark]
}

// ExpandWord expands a word to fields, applying all expansion stages.
func (x *Expander) ExpandWord(w *syntax.Word) ([]string, error) {
	mark := len(x.frags)
	defer x.truncate(mark)
	if err := x.appendParts(w.Parts, wordText); err != nil {
		return nil, err
	}
	return x.fields(x.tilde(x.frags[mark:], w)), nil
}

// ExpandWords expands a word list, concatenating the resulting fields.
func (x *Expander) ExpandWords(ws []*syntax.Word) ([]string, error) {
	var out []string
	for _, w := range ws {
		fields, err := x.ExpandWord(w)
		if err != nil {
			return nil, err
		}
		out = append(out, fields...)
	}
	return out, nil
}

// ExpandString expands a word to a single string with no field splitting
// or pathname expansion — the rule for assignments, redirection targets
// in scripts, and case words.
func (x *Expander) ExpandString(w *syntax.Word) (string, error) {
	if w == nil {
		return "", nil
	}
	mark := len(x.frags)
	defer x.truncate(mark)
	if err := x.appendParts(w.Parts, wordText); err != nil {
		return "", err
	}
	return joinFrags(x.tilde(x.frags[mark:], w)), nil
}

// joinFrags concatenates fragments into one string, with a space for each
// field break.
func joinFrags(frags []frag) string {
	if len(frags) == 1 && !frags[0].fieldBreak {
		return frags[0].s
	}
	var b strings.Builder
	for _, f := range frags {
		if f.fieldBreak {
			b.WriteByte(' ')
			continue
		}
		b.WriteString(f.s)
	}
	return b.String()
}

// ExpandPattern expands a word into a matching pattern: quoted characters
// are escaped so they match literally, unquoted metacharacters stay live.
// Used for case patterns and ${x#pat}-style trims.
func (x *Expander) ExpandPattern(w *syntax.Word) (string, error) {
	if w == nil {
		return "", nil
	}
	mark := len(x.frags)
	defer x.truncate(mark)
	if err := x.appendParts(w.Parts, wordText); err != nil {
		return "", err
	}
	var b strings.Builder
	for _, f := range x.frags[mark:] {
		if f.fieldBreak {
			b.WriteByte(' ')
			continue
		}
		if f.quoted {
			b.WriteString(escapeMeta(f.s))
		} else {
			b.WriteString(f.s)
		}
	}
	return b.String(), nil
}

// StaticPattern is the pattern ExpandPattern makes of w when w holds no
// expansion, and false when it does: unquoted literal text stays live as
// written, quoted text is escaped so it matches only itself.
func StaticPattern(w *syntax.Word) (string, bool) {
	if w == nil {
		return "", true
	}
	var b strings.Builder
	for _, part := range w.Parts {
		var s string
		switch p := part.(type) {
		case *syntax.Lit:
			s = p.Value
		case *syntax.SglQuoted:
			s = escapeMeta(p.Value)
		case *syntax.DblQuoted:
			for _, ip := range p.Parts {
				lit, ok := ip.(*syntax.Lit)
				if !ok {
					return "", false
				}
				s += escapeMeta(lit.Value)
			}
		default:
			return "", false
		}
		if len(w.Parts) == 1 {
			return s, true
		}
		b.WriteString(s)
	}
	return b.String(), true
}

// escapeMeta backslash-escapes the pattern characters of s, so that it
// matches only itself.
func escapeMeta(s string) string {
	if !strings.ContainsAny(s, `*?[]\`) {
		return s
	}
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '*', '?', '[', ']', '\\':
			b.WriteByte('\\')
		}
		b.WriteByte(s[i])
	}
	return b.String()
}

// appendParts expands word parts, in context c, onto the scratch.
func (x *Expander) appendParts(parts []syntax.WordPart, c context) error {
	if err := x.Faults.CheckContained("expand:parts", faultinject.OpRead); err != nil {
		return &ExpandError{Msg: "expansion fault: " + err.Error()}
	}
	for _, part := range parts {
		switch p := part.(type) {
		case *syntax.Lit:
			x.frags = append(x.frags, frag{s: p.Value, quoted: c == dquoted, lit: c == wordText})
		case *syntax.SglQuoted:
			x.frags = append(x.frags, frag{s: p.Value, quoted: true})
		case *syntax.DblQuoted:
			mark := len(x.frags)
			if err := x.appendParts(p.Parts, dquoted); err != nil {
				return err
			}
			// "" must produce an empty field; a quoted expansion of
			// nothing-but-$@ signals "no field" by producing no fragments.
			if len(x.frags) == mark && !onlyAt(p.Parts) {
				x.frags = append(x.frags, frag{s: "", quoted: true})
			}
		case *syntax.ParamExp:
			if err := x.appendParam(p, c); err != nil {
				return err
			}
		case *syntax.CmdSubst:
			if x.CmdSubst == nil {
				return &ExpandError{Msg: "command substitution not permitted in this context"}
			}
			out, err := x.CmdSubst(p.Stmts)
			if err != nil {
				return err
			}
			x.frags = append(x.frags, frag{s: strings.TrimRight(out, "\n"), quoted: c == dquoted})
		case *syntax.ArithExp:
			v, err := x.evalArith(p)
			if err != nil {
				return &ExpandError{Msg: err.Error(), Fatal: true}
			}
			x.frags = append(x.frags, frag{s: strconv.FormatInt(v, 10), quoted: c == dquoted})
		default:
			return fmt.Errorf("unknown word part %T", part)
		}
	}
	return nil
}

// onlyAt reports whether the quoted parts consist solely of $@/$* params.
func onlyAt(parts []syntax.WordPart) bool {
	for _, p := range parts {
		pe, ok := p.(*syntax.ParamExp)
		if !ok || (pe.Name != "@" && pe.Name != "*") {
			return false
		}
	}
	return len(parts) > 0
}

// evalArith evaluates a $((...)). POSIX expands parameters and command
// substitutions in the expression *before* the arithmetic grammar sees it,
// so `$(( ${N:-3} + 1 ))` works: the parser left those expansions in
// p.Parts, and the text they produce is what compiles. Bare names (N + 1)
// resolve as the expression runs.
func (x *Expander) evalArith(p *syntax.ArithExp) (int64, error) {
	expr := p.Expr
	if p.Parts != nil {
		mark := len(x.frags)
		if err := x.appendParts(p.Parts, dquoted); err != nil {
			return 0, err
		}
		expr = joinFrags(x.frags[mark:])
		x.truncate(mark)
	}
	// The text is compiled once and cached: loop counters re-evaluate the
	// same expression millions of times.
	a, err := CompileArithExpr(expr)
	if err != nil {
		return 0, err
	}
	if x.arith.Lookup == nil {
		x.arith.Lookup = func(name string) string {
			v, _ := x.paramValue(name)
			return v
		}
	}
	x.arith.Assign = x.Set
	return a.fn(&x.arith)
}

// paramValue resolves any parameter (variable, positional, or special).
// ok=false means unset.
func (x *Expander) paramValue(name string) (string, bool) {
	switch {
	case name == "":
		return "", false
	case name[0] == '0' && strings.Trim(name, "0") == "":
		return x.Name0, true
	}
	switch name {
	case "#":
		return strconv.Itoa(len(x.Params)), true
	case "?":
		return strconv.Itoa(x.Status), true
	case "$":
		return strconv.Itoa(x.PID), true
	case "!":
		return "", false
	case "-":
		return "", true
	case "@", "*":
		return strings.Join(x.Params, " "), true
	}
	return Param(name, x.Params, x.getvar)
}

// Param resolves a variable, through lookup, or a positional parameter
// ($1, ${10}, …), from params; set=false means unset. $0 and the special
// parameters are the expander's alone.
func Param(name string, params []string, lookup func(string) (string, bool)) (string, bool) {
	if c := name[0]; c < '0' || c > '9' {
		return lookup(name)
	}
	n, err := strconv.Atoi(name)
	if err != nil || n < 1 || n > len(params) {
		return "", false
	}
	return params[n-1], true
}

// appendParam expands one ${...} or $x occurrence, in context c, onto the
// scratch.
func (x *Expander) appendParam(pe *syntax.ParamExp, c context) error {
	inDquote := c == dquoted
	// $@ / $* first: they produce multiple fragments.
	if pe.Name == "@" || pe.Name == "*" {
		return x.appendAt(pe, inDquote)
	}
	val, set := x.paramValue(pe.Name)
	null := val == ""
	useWord := false
	if !set && x.NoUnset && !providesForUnset(pe.Op) {
		return &ExpandError{Msg: pe.Name + ": parameter not set", Fatal: true}
	}
	switch pe.Op {
	case syntax.ParamLength:
		val = strconv.Itoa(len(val))
	case syntax.ParamDefault:
		if !set || (pe.Colon && null) {
			useWord = true
		}
	case syntax.ParamAssign:
		if !set || (pe.Colon && null) {
			w, err := x.ExpandString(pe.Word)
			if err != nil {
				return err
			}
			if x.Set == nil {
				return &ExpandError{Msg: "cannot assign " + pe.Name + " in this context"}
			}
			if err := x.Set(pe.Name, w); err != nil {
				return &ExpandError{Msg: err.Error(), Fatal: true}
			}
			val = w
		}
	case syntax.ParamError:
		if !set || (pe.Colon && null) {
			msg, err := x.ExpandString(pe.Word)
			if err != nil {
				return err
			}
			if msg == "" {
				msg = "parameter not set"
			}
			return &ExpandError{Msg: pe.Name + ": " + msg, Fatal: true}
		}
	case syntax.ParamAlt:
		if !set || (pe.Colon && null) {
			return nil
		}
		useWord = true
	case syntax.ParamTrimSuffix, syntax.ParamTrimSuffixLong,
		syntax.ParamTrimPrefix, syntax.ParamTrimPrefixLong:
		pat, err := x.ExpandPattern(pe.Word)
		if err != nil {
			return err
		}
		val = Trim(val, pat, pe.Op)
	}
	if useWord {
		if pe.Word == nil {
			return nil
		}
		return x.appendParts(pe.Word.Parts, operandOf(inDquote))
	}
	x.frags = append(x.frags, frag{s: val, quoted: inDquote})
	return nil
}

// Trim applies a ${x#pat}-style trim operator to val; pat is a pattern as
// ExpandPattern returns it.
func Trim(val, pat string, op syntax.ParamOp) string {
	switch op {
	case syntax.ParamTrimSuffix:
		if short, _, ok := pattern.MatchSuffix(pat, val); ok {
			return val[:len(val)-short]
		}
	case syntax.ParamTrimSuffixLong:
		if _, long, ok := pattern.MatchSuffix(pat, val); ok {
			return val[:len(val)-long]
		}
	case syntax.ParamTrimPrefix:
		if short, _, ok := pattern.MatchPrefix(pat, val); ok {
			return val[short:]
		}
	case syntax.ParamTrimPrefixLong:
		if _, long, ok := pattern.MatchPrefix(pat, val); ok {
			return val[long:]
		}
	}
	return val
}

// operandOf is the context of a ${x op word} operand.
func operandOf(inDquote bool) context {
	if inDquote {
		return dquoted
	}
	return operand
}

// appendAt handles $@ and $* in both quoted and unquoted positions.
func (x *Expander) appendAt(pe *syntax.ParamExp, inDquote bool) error {
	params := x.Params
	set := len(params) > 0
	// Apply the subset of operators that make sense for $@.
	switch pe.Op {
	case syntax.ParamDefault:
		if !set {
			if pe.Word == nil {
				return nil
			}
			return x.appendParts(pe.Word.Parts, operandOf(inDquote))
		}
	case syntax.ParamAlt:
		if !set || pe.Word == nil {
			return nil
		}
		return x.appendParts(pe.Word.Parts, operandOf(inDquote))
	case syntax.ParamLength:
		x.frags = append(x.frags, frag{s: strconv.Itoa(len(params)), quoted: inDquote})
		return nil
	}
	if inDquote && pe.Name == "*" {
		sep := " "
		if ifs := x.ifs(); ifs == "" {
			sep = ""
		} else if len(ifs) > 0 {
			sep = ifs[:1]
		}
		x.frags = append(x.frags, frag{s: strings.Join(params, sep), quoted: true})
		return nil
	}
	for i, p := range params {
		if i > 0 {
			x.frags = append(x.frags, frag{fieldBreak: true})
		}
		x.frags = append(x.frags, frag{s: p, quoted: inDquote})
	}
	return nil
}

// tilde applies tilde expansion to the leading fragment when the original
// word begins with an unquoted literal '~'.
func (x *Expander) tilde(frags []frag, w *syntax.Word) []frag {
	if len(frags) == 0 || frags[0].quoted || !strings.HasPrefix(frags[0].s, "~") {
		return frags
	}
	if len(w.Parts) == 0 {
		return frags
	}
	if _, ok := w.Parts[0].(*syntax.Lit); !ok {
		return frags
	}
	rest := frags[0].s[1:]
	if rest != "" && !strings.HasPrefix(rest, "/") {
		return frags // ~user form: no user database, keep literal
	}
	home, ok := x.getvar("HOME")
	if !ok || home == "" {
		return frags
	}
	out := make([]frag, 0, len(frags)+1)
	out = append(out, frag{s: home, quoted: true}, frag{s: rest, lit: true})
	return append(out, frags[1:]...)
}

// piece is one run of a field's text: its bytes, whether they are quoted,
// and the length of the fragment it is cut from. An unquoted piece is
// pattern text as it stands; a quoted one adds its text with the
// metacharacters escaped, made only when the field is globbed.
type piece struct {
	text   string
	quoted bool
	of     int
}

// shareMax is the largest fragment a field may keep a substring of
// whatever its share of it: past it, a field holding less than half of
// its fragment is a copy, so that keeping the field (x=$1 after
// set -- $(cat big)) does not keep the whole expansion alive.
const shareMax = 1024

// fields performs IFS field splitting over the fragments and pathname
// expansion on each field, in one pass. A field that is one piece of one
// fragment is that substring (a copy when it is a small part of a large
// fragment: shareMax); a longer one is one allocation of its size.
// Literal text is never split, and a backslash in an expansion's result is
// data: it stays in the field, and escapes only in the glob pattern, which
// is built only for a field whose unquoted text holds a metacharacter or a
// backslash (a trailing one escapes the next piece's first pattern byte).
func (x *Expander) fields(frags []frag) []string {
	ifs := x.ifs()
	var out []string
	ps := x.pieces[:0]
	started, meta := false, false
	prevNonWS := true // a leading non-whitespace delimiter makes an empty field
	emit := func() {
		out = x.appendField(out, ps, meta)
		clear(ps)
		ps, started, meta = ps[:0], false, false
	}
	add := func(p piece) {
		ps = append(ps, p)
		started, prevNonWS = true, false
	}
	for _, f := range frags {
		switch {
		case f.fieldBreak:
			emit()
			started = true // "$@" fields exist even when empty
		case f.quoted:
			add(piece{text: f.s, quoted: true, of: len(f.s)})
		default:
			s, run, sep := f.s, 0, ifs
			if f.lit {
				sep = "" // literal text is never split
			}
			flush := func(end int) {
				if end > run {
					add(piece{text: s[run:end], of: len(s)})
					meta = meta || strings.ContainsAny(s[run:end], `*?[\`)
				}
			}
			for i := 0; sep != "" && i < len(s); i++ {
				c := s[i]
				if strings.IndexByte(sep, c) < 0 {
					continue
				}
				flush(i)
				run = i + 1
				if c == ' ' || c == '\t' || c == '\n' {
					if started {
						emit()
					}
					prevNonWS = false
					continue
				}
				if started || prevNonWS {
					emit() // adjacent non-whitespace delimiters make empty fields
				}
				prevNonWS = true
			}
			flush(len(s))
		}
	}
	if started {
		emit()
	}
	x.pieces = ps
	return out
}

// appendField appends one field's text, or the pathnames its pattern
// matches, to out.
func (x *Expander) appendField(out []string, ps []piece, meta bool) []string {
	text := ""
	if len(ps) == 1 {
		if text = ps[0].text; ps[0].of > shareMax && 2*len(text) < ps[0].of {
			text = strings.Clone(text)
		}
	} else if len(ps) > 1 {
		n := 0
		for _, p := range ps {
			n += len(p.text)
		}
		var b strings.Builder
		b.Grow(n)
		for _, p := range ps {
			b.WriteString(p.text)
		}
		text = b.String()
	}
	if meta && !x.NoGlob && x.FS != nil {
		var b strings.Builder
		for _, p := range ps {
			if p.quoted {
				b.WriteString(escapeMeta(p.text))
			} else {
				b.WriteString(p.text)
			}
		}
		if pat := b.String(); pattern.HasMeta(pat) {
			if matches := x.FS.Glob(x.Dir, pat); len(matches) > 0 {
				return append(out, matches...)
			}
		}
	}
	return append(out, text)
}
