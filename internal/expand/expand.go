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
	arith arithEnv
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

// frag is one expansion fragment: a run of characters that are all quoted
// or all unquoted, or a hard field break (from "$@").
type frag struct {
	s          string
	quoted     bool
	fieldBreak bool
}

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
	if err := x.appendParts(w.Parts, false); err != nil {
		return nil, err
	}
	fields := x.split(x.tilde(x.frags[mark:], w))
	return x.glob(fields), nil
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
	if err := x.appendParts(w.Parts, false); err != nil {
		return "", err
	}
	return joinFrags(x.tilde(x.frags[mark:], w)), nil
}

// joinFrags concatenates fragments into one string: quote removal, and a
// space for each field break.
func joinFrags(frags []frag) string {
	if len(frags) == 1 && !frags[0].fieldBreak {
		return unescapeUnquoted(frags[0])
	}
	var b strings.Builder
	for _, f := range frags {
		if f.fieldBreak {
			b.WriteByte(' ')
			continue
		}
		b.WriteString(unescapeUnquoted(f))
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
	if err := x.appendParts(w.Parts, false); err != nil {
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

// unescapeUnquoted removes backslash-quoting from an unquoted fragment.
func unescapeUnquoted(f frag) string {
	if f.quoted || !strings.ContainsRune(f.s, '\\') {
		return f.s
	}
	var b strings.Builder
	for i := 0; i < len(f.s); i++ {
		if f.s[i] == '\\' && i+1 < len(f.s) {
			i++
		}
		b.WriteByte(f.s[i])
	}
	return b.String()
}

// unescapeDquote resolves the four escapes double quotes honour.
func unescapeDquote(s string) string {
	if !strings.ContainsRune(s, '\\') {
		return s
	}
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		if s[i] == '\\' && i+1 < len(s) {
			switch s[i+1] {
			case '$', '`', '"', '\\':
				i++
			}
		}
		b.WriteByte(s[i])
	}
	return b.String()
}

func escapeMeta(s string) string {
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

// appendParts expands word parts onto the scratch. inDquote marks that the
// parts appear within double quotes.
func (x *Expander) appendParts(parts []syntax.WordPart, inDquote bool) error {
	if err := x.Faults.CheckContained("expand:parts", faultinject.OpRead); err != nil {
		return &ExpandError{Msg: "expansion fault: " + err.Error()}
	}
	for _, part := range parts {
		switch p := part.(type) {
		case *syntax.Lit:
			v := p.Value
			if inDquote {
				// Inside double quotes only \$ \` \" \\ are escapes; the
				// parser kept them verbatim for us to resolve here.
				v = unescapeDquote(v)
			}
			x.frags = append(x.frags, frag{s: v, quoted: inDquote})
		case *syntax.SglQuoted:
			x.frags = append(x.frags, frag{s: p.Value, quoted: true})
		case *syntax.DblQuoted:
			mark := len(x.frags)
			if err := x.appendParts(p.Parts, true); err != nil {
				return err
			}
			// "" must produce an empty field; a quoted expansion of
			// nothing-but-$@ signals "no field" by producing no fragments.
			if len(x.frags) == mark && !onlyAt(p.Parts) {
				x.frags = append(x.frags, frag{s: "", quoted: true})
			}
		case *syntax.ParamExp:
			if err := x.appendParam(p, inDquote); err != nil {
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
			x.frags = append(x.frags, frag{s: strings.TrimRight(out, "\n"), quoted: inDquote})
		case *syntax.ArithExp:
			v, err := x.evalArith(p)
			if err != nil {
				return &ExpandError{Msg: err.Error(), Fatal: true}
			}
			x.frags = append(x.frags, frag{s: strconv.FormatInt(v, 10), quoted: inDquote})
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
		if err := x.appendParts(p.Parts, true); err != nil {
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
	if x.arith.lookup == nil {
		x.arith.lookup = func(name string) string {
			v, _ := x.paramValue(name)
			return v
		}
	}
	x.arith.assign = x.Set
	return a.fn(&x.arith)
}

// paramValue resolves any parameter (variable, positional, or special).
// ok=false means unset.
func (x *Expander) paramValue(name string) (string, bool) {
	if name == "" {
		return "", false
	}
	if name[0] >= '0' && name[0] <= '9' {
		n, err := strconv.Atoi(name)
		if err != nil {
			return "", false
		}
		if n == 0 {
			return x.Name0, true
		}
		if n <= len(x.Params) {
			return x.Params[n-1], true
		}
		return "", false
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
	return x.getvar(name)
}

// appendParam expands one ${...} or $x occurrence onto the scratch.
func (x *Expander) appendParam(pe *syntax.ParamExp, inDquote bool) error {
	// $@ / $* first: they produce multiple fragments.
	if pe.Name == "@" || pe.Name == "*" {
		return x.appendAt(pe, inDquote)
	}
	val, set := x.paramValue(pe.Name)
	null := val == ""
	useWord := false
	switch pe.Op {
	case syntax.ParamPlain:
		if !set && x.NoUnset {
			return &ExpandError{Msg: pe.Name + ": parameter not set", Fatal: true}
		}
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
		return x.appendParts(pe.Word.Parts, inDquote)
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
			return x.appendParts(pe.Word.Parts, inDquote)
		}
	case syntax.ParamAlt:
		if !set || pe.Word == nil {
			return nil
		}
		return x.appendParts(pe.Word.Parts, inDquote)
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
	out = append(out, frag{s: home, quoted: true}, frag{s: rest, quoted: false})
	return append(out, frags[1:]...)
}

// field2 accumulates both the literal text and the glob pattern (where
// quoted characters are escaped) of one field.
type field2 struct {
	text string
	pat  string
}

// split performs IFS field splitting over the fragments.
func (x *Expander) split(frags []frag) []field2 {
	ifs := x.ifs()
	isWS := func(c byte) bool {
		return strings.IndexByte(ifs, c) >= 0 && (c == ' ' || c == '\t' || c == '\n')
	}
	isDelim := func(c byte) bool {
		return strings.IndexByte(ifs, c) >= 0
	}
	var fields []field2
	var cur field2
	started := false
	prevNonWS := true // leading non-ws delimiter produces an empty field
	emit := func() {
		fields = append(fields, cur)
		cur = field2{}
		started = false
	}
	for _, f := range frags {
		switch {
		case f.fieldBreak:
			emit()
			started = true // "$@" fields exist even when empty
		case f.quoted:
			cur.text += f.s
			cur.pat += escapeMeta(f.s)
			started = true
			prevNonWS = false
		default:
			i := 0
			for i < len(f.s) {
				c := f.s[i]
				if c == '\\' && i+1 < len(f.s) {
					// Backslash-quoted character: literal, never a delimiter.
					cur.text += f.s[i+1 : i+2]
					cur.pat += "\\" + f.s[i+1:i+2]
					started = true
					prevNonWS = false
					i += 2
					continue
				}
				switch {
				case ifs != "" && isWS(c):
					if started {
						emit()
					}
					prevNonWS = false
				case ifs != "" && isDelim(c):
					if started {
						emit()
					} else if prevNonWS {
						emit() // adjacent non-ws delimiters make empty fields
					}
					prevNonWS = true
				default:
					// Append the raw byte (string(c) would re-encode it as
					// a rune and corrupt multi-byte UTF-8 sequences).
					cur.text += f.s[i : i+1]
					cur.pat += f.s[i : i+1]
					started = true
					prevNonWS = false
				}
				i++
			}
		}
	}
	if started {
		emit()
	}
	return fields
}

// glob applies pathname expansion to each field's pattern.
func (x *Expander) glob(fields []field2) []string {
	out := make([]string, 0, len(fields))
	for _, f := range fields {
		if x.NoGlob || x.FS == nil || !pattern.HasMeta(f.pat) {
			out = append(out, f.text)
			continue
		}
		matches := x.FS.Glob(x.Dir, f.pat)
		if len(matches) == 0 {
			out = append(out, f.text)
			continue
		}
		out = append(out, matches...)
	}
	return out
}
