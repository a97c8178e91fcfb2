// Package expand implements POSIX word expansion — tilde, parameter,
// command substitution, arithmetic, field splitting, pathname expansion,
// and quote removal — in the order §2.6 of the standard prescribes. It is
// the Smoosh-semantics half of the Jash architecture: besides *performing*
// expansions for the interpreter, it *analyzes* them (see analyze.go) so
// the JIT can tell which words are safe to expand early and which shell
// state they depend on (the paper's B2).
package expand

import (
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
	// plan is the plan ExpandWords and its siblings compile into.
	plan *Plan
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

// truncate pops the scratch back to mark, dropping the popped fragments'
// strings.
func (x *Expander) truncate(mark int) {
	clear(x.frags[mark:])
	x.frags = x.frags[:mark]
}

// ExpandWord expands a word to fields: Compile and Run (into the
// expander's own plan, so the compile-and-run entry points allocate none).
func (x *Expander) ExpandWord(w *syntax.Word) ([]string, error) {
	return x.ExpandWords([]*syntax.Word{w})
}

// ExpandWords expands a word list, concatenating the resulting fields.
func (x *Expander) ExpandWords(ws []*syntax.Word) ([]string, error) {
	var out []string
	for _, w := range ws {
		var err error
		if out, err = x.Run(x.compile(w), Fields, out); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// ExpandString expands a word to a single string with no field splitting
// or pathname expansion — the rule for assignments, redirection targets
// in scripts, and case words.
func (x *Expander) ExpandString(w *syntax.Word) (string, error) {
	return x.RunString(x.compile(w), String)
}

// ExpandPattern expands a word into a matching pattern: quoted characters
// are escaped so they match literally, unquoted metacharacters stay live.
// Used for case patterns and ${x#pat}-style trims.
func (x *Expander) ExpandPattern(w *syntax.Word) (string, error) {
	return x.RunString(x.compile(w), Pattern)
}

// compile lowers w into the expander's plan, which holds until the next
// call.
func (x *Expander) compile(w *syntax.Word) *Plan {
	if x.plan == nil {
		x.plan = new(Plan)
	}
	x.plan.lower(w)
	return x.plan
}

// Run evaluates a plan in mode m and appends the result to out: the
// word's fields in Fields mode, its one string in String and Pattern mode.
// It is the one evaluator of a word. A static plan's result is read off
// the plan (its field is still globbed when its pattern has a live
// metacharacter).
func (x *Expander) Run(p *Plan, m Mode, out []string) ([]string, error) {
	if m != Fields {
		s, err := x.RunString(p, m)
		if err != nil {
			return out, err
		}
		return append(out, s), nil
	}
	if err := x.fault(); err != nil {
		return out, err
	}
	if fixed, ok := p.Fixed(out); ok {
		return fixed, nil
	}
	switch {
	case p.static && (x.NoGlob || x.FS == nil):
		return append(out, p.value), nil
	case p.static:
		return x.glob(out, p.value, p.pattern()), nil
	}
	mark := len(x.frags)
	defer x.truncate(mark)
	if err := x.eval(p.frags, m); err != nil {
		return out, err
	}
	return x.fields(x.frags[mark:], out), nil
}

// RunString is Run in String or Pattern mode, returning the one string.
func (x *Expander) RunString(p *Plan, m Mode) (string, error) {
	if err := x.fault(); err != nil {
		return "", err
	}
	switch {
	case p.static && (m == String || p.frags == nil):
		return p.value, nil
	case p.static:
		return p.pattern(), nil
	}
	return x.str(p.frags, m)
}

// fault trips the expansion layer's injected fault, if one is armed.
func (x *Expander) fault() error {
	if x.Faults == nil {
		return nil
	}
	if err := x.Faults.CheckContained("expand:parts", faultinject.OpRead); err != nil {
		return &ExpandError{Msg: "expansion fault: " + err.Error()}
	}
	return nil
}

// str expands fragments to one string: joined, or, in Pattern mode, with
// quoted characters escaped.
func (x *Expander) str(fs []Frag, m Mode) (string, error) {
	mark := len(x.frags)
	defer x.truncate(mark)
	if err := x.eval(fs, m); err != nil {
		return "", err
	}
	frags := x.frags[mark:]
	if len(frags) == 1 && !frags[0].fieldBreak && (m != Pattern || !frags[0].quoted) {
		return frags[0].s, nil
	}
	n := 0
	for _, f := range frags {
		n += len(f.s)
		if f.fieldBreak {
			n++
		}
	}
	var b strings.Builder
	b.Grow(n)
	for _, f := range frags {
		switch {
		case f.fieldBreak:
			b.WriteByte(' ')
		case f.quoted && m == Pattern:
			b.WriteString(escapeMeta(f.s))
		default:
			b.WriteString(f.s)
		}
	}
	return b.String(), nil
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

// eval expands fragments onto the scratch in mode m (which matters only to
// a tilde prefix: a pattern takes it as text).
func (x *Expander) eval(fs []Frag, m Mode) error {
	for i := 0; i < len(fs); i++ {
		f := &fs[i]
		sub := fs[i+1 : i+1+int(f.N)]
		i += int(f.N)
		switch f.Kind {
		case Text:
			x.frags = append(x.frags, frag{s: f.Text, quoted: f.Quoted, lit: f.Lit})
		case Tilde:
			if home, ok := x.getvar("HOME"); ok && m != Pattern {
				x.frags = append(x.frags, frag{s: home, quoted: true}, frag{s: f.Text[1:], lit: f.Lit})
			} else {
				x.frags = append(x.frags, frag{s: f.Text, lit: f.Lit})
			}
		case Group:
			mark := len(x.frags)
			if err := x.eval(sub, m); err != nil {
				return err
			}
			if len(x.frags) == mark {
				x.frags = append(x.frags, frag{quoted: true})
			}
		case Param:
			if err := x.param(f, sub, m); err != nil {
				return err
			}
		case Subst:
			if x.CmdSubst == nil {
				return &ExpandError{Msg: "command substitution not permitted in this context"}
			}
			out, err := x.CmdSubst(f.Subst.Stmts)
			if err != nil {
				return err
			}
			x.frags = append(x.frags, frag{s: strings.TrimRight(out, "\n"), quoted: f.Quoted})
		case Arith:
			v, err := x.evalArith(f, sub)
			if err != nil {
				return &ExpandError{Msg: err.Error(), Fatal: true}
			}
			x.frags = append(x.frags, frag{s: strconv.FormatInt(v, 10), quoted: f.Quoted})
		}
	}
	return nil
}

// evalArith evaluates a $((...)): its compiled expression, or the text its
// fragments expand to, compiled (and cached: loop counters re-evaluate the
// same text millions of times). Bare names (N + 1) resolve as the
// expression runs.
func (x *Expander) evalArith(f *Frag, text []Frag) (int64, error) {
	a, src := f.Expr, f.Arith.Expr
	if a == nil {
		if f.N > 0 {
			s, err := x.str(text, String)
			if err != nil {
				return 0, err
			}
			src = s
		}
		var err error
		if a, err = CompileArithExpr(src); err != nil {
			return 0, err
		}
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
	case name[0] >= 'A': // a variable (letters and _ sort above digits and specials)
		return x.getvar(name)
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
	if c := name[0]; c < '0' || c > '9' {
		return x.getvar(name)
	}
	n, err := strconv.Atoi(name)
	if err != nil || n < 1 || n > len(x.Params) {
		return "", false
	}
	return x.Params[n-1], true
}

// param expands one ${...} or $x, whose operand is the fragments opd,
// onto the scratch.
func (x *Expander) param(f *Frag, opd []Frag, m Mode) error {
	pe := f.Param
	if pe.Name == "@" || pe.Name == "*" {
		return x.at(f, opd, m)
	}
	val, set := x.paramValue(pe.Name)
	if !set && x.NoUnset && !providesForUnset(pe) {
		return &ExpandError{Msg: pe.Name + ": parameter not set", Fatal: true}
	}
	switch Choose(pe, set, val == "") {
	case UseOperand:
		return x.eval(opd, m)
	case UseNothing:
		return nil
	case UseAssign:
		w, err := x.str(opd, String)
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
	case UseAbort:
		msg, err := x.str(opd, String)
		if err != nil {
			return err
		}
		if msg == "" {
			msg = "parameter not set"
		}
		return &ExpandError{Msg: pe.Name + ": " + msg, Fatal: true}
	case UseLength:
		val = strconv.Itoa(len(val))
	case UseTrim:
		pat := f.Text
		if !f.Static {
			var err error
			if pat, err = x.str(opd, Pattern); err != nil {
				return err
			}
		}
		val = Trim(val, pat, pe.Op)
	}
	x.frags = append(x.frags, frag{s: val, quoted: f.Quoted})
	return nil
}

// Trim applies a ${x#pat}-style trim operator to val; pat is a pattern as
// ExpandPattern returns it. Each operator searches in its own direction for
// the one match it uses.
func Trim(val, pat string, op syntax.ParamOp) string {
	switch op {
	case syntax.ParamTrimSuffix, syntax.ParamTrimSuffixLong:
		if n, ok := pattern.Suffix(pat, val, op == syntax.ParamTrimSuffixLong); ok {
			return val[:len(val)-n]
		}
	case syntax.ParamTrimPrefix, syntax.ParamTrimPrefixLong:
		if n, ok := pattern.Prefix(pat, val, op == syntax.ParamTrimPrefixLong); ok {
			return val[n:]
		}
	}
	return val
}

// at expands $@ and $*, whose operand is the fragments opd, in both quoted
// and unquoted positions.
func (x *Expander) at(f *Frag, opd []Frag, m Mode) error {
	params := x.Params
	// Apply the subset of operators that make sense for $@.
	switch f.Param.Op {
	case syntax.ParamDefault:
		if len(params) == 0 {
			return x.eval(opd, m)
		}
	case syntax.ParamAlt:
		if len(params) == 0 {
			return nil
		}
		return x.eval(opd, m)
	case syntax.ParamLength:
		x.frags = append(x.frags, frag{s: strconv.Itoa(len(params)), quoted: f.Quoted})
		return nil
	}
	if f.Quoted && f.Param.Name == "*" {
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
		x.frags = append(x.frags, frag{s: p, quoted: f.Quoted})
	}
	return nil
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
func (x *Expander) fields(frags []frag, out []string) []string {
	ifs := x.ifs()
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
	if !meta || x.NoGlob || x.FS == nil {
		return append(out, text)
	}
	var b strings.Builder
	for _, p := range ps {
		if p.quoted {
			b.WriteString(escapeMeta(p.text))
		} else {
			b.WriteString(p.text)
		}
	}
	return x.glob(out, text, b.String())
}

// glob appends the pathnames pat matches to out, or text when pat has no
// live metacharacter or matches nothing.
func (x *Expander) glob(out []string, text, pat string) []string {
	if pattern.HasMeta(pat) {
		if matches := x.FS.Glob(x.Dir, pat); len(matches) > 0 {
			return append(out, matches...)
		}
	}
	return append(out, text)
}
