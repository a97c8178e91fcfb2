package spec

import (
	"errors"
	"fmt"
	"regexp"
	"strconv"
	"strings"
)

// AwkProgram is an awk command line as awk runs it: the -F separator, the
// -v presets and the program's rules. ParseAwk is the only reader of awk's
// grammar: the utility evaluates its rules, and refineAwk classifies them.
type AwkProgram struct {
	FS      string      // -F's value, "" without one
	Presets [][2]string // -v name=value, in argv order
	Rules   []*AwkRule
	// assigns and readsNR record, as the parser builds the rules, an
	// assignment and a read of NR or FNR anywhere in them.
	assigns, readsNR bool
}

// AwkRule is `pattern { action }`: BEGIN, END, or a main rule whose
// Pattern (nil = every record) selects the records Action runs on.
type AwkRule struct {
	Begin, End bool
	Pattern    AwkExpr
	Action     []AwkStmt
}

// AwkStmt is a statement: *AwkPrint, *AwkPrintf, *AwkAssign, *AwkIf or
// *AwkNext.
type AwkStmt interface{ awkStmt() }

// AwkExpr is an expression: *AwkField, *AwkVar, *AwkString, *AwkNumber,
// *AwkBinary, *AwkUnary, *AwkMatch or *AwkCall.
type AwkExpr interface{ awkExpr() }

type (
	// AwkPrint prints Args joined by OFS, or the record when there are none.
	AwkPrint struct{ Args []AwkExpr }
	// AwkPrintf prints Args by Format.
	AwkPrintf struct {
		Format AwkExpr
		Args   []AwkExpr
	}
	// AwkAssign is `Name Op Value`, Op one of = += -= *= /=.
	AwkAssign struct {
		Name, Op string
		Value    AwkExpr
	}
	// AwkIf runs Then when Cond holds, and Else otherwise.
	AwkIf struct {
		Cond       AwkExpr
		Then, Else []AwkStmt
	}
	// AwkNext ends the rules for the current record.
	AwkNext struct{}

	// AwkField is $Index.
	AwkField  struct{ Index AwkExpr }
	AwkVar    struct{ Name string }
	AwkString struct{ Value string }
	AwkNumber struct{ Value float64 }
	// AwkBinary is `L Op R`, Op one of + - * / % < <= > >= == != && || and
	// "concat" for juxtaposition.
	AwkBinary struct {
		Op   string
		L, R AwkExpr
	}
	// AwkUnary is `Op X`, Op '!' or '-'.
	AwkUnary struct {
		Op byte
		X  AwkExpr
	}
	// AwkMatch is `X ~ /Re/`, or `X !~ /Re/` when Negate; a bare /Re/ is
	// `$0 ~ /Re/`.
	AwkMatch struct {
		X      AwkExpr
		Re     *regexp.Regexp
		Negate bool
	}
	// AwkCall calls one of awkBuiltins.
	AwkCall struct {
		Func string
		Args []AwkExpr
	}
)

func (*AwkPrint) awkStmt()  {}
func (*AwkPrintf) awkStmt() {}
func (*AwkAssign) awkStmt() {}
func (*AwkIf) awkStmt()     {}
func (*AwkNext) awkStmt()   {}

func (*AwkField) awkExpr()  {}
func (*AwkVar) awkExpr()    {}
func (*AwkString) awkExpr() {}
func (*AwkNumber) awkExpr() {}
func (*AwkBinary) awkExpr() {}
func (*AwkUnary) awkExpr()  {}
func (*AwkMatch) awkExpr()  {}
func (*AwkCall) awkExpr()   {}

// awkBuiltins are the functions the subset calls, each with the least
// and the most arguments it takes.
var awkBuiltins = map[string][2]int{
	"length": {0, 1}, "substr": {2, 3}, "toupper": {1, 1}, "tolower": {1, 1}, "int": {1, 1},
}

const (
	awkNoFuncs  = "user functions are not supported"
	awkNoArrays = "arrays are not supported"
	awkNoLoops  = "loops are not supported"
)

// awkRefusals name the parts of awk's grammar outside the subset by the
// word that starts them, so a program that uses one fails with what it
// used, not a generic parse error.
var awkRefusals = map[string]string{
	"function": awkNoFuncs, "func": awkNoFuncs, "return": awkNoFuncs,
	"delete": awkNoArrays, "in": awkNoArrays, "getline": "getline is not supported",
	"while": awkNoLoops, "for": awkNoLoops, "do": awkNoLoops, "break": awkNoLoops, "continue": awkNoLoops,
	"exit": "exit is not supported",
}

var errAwkIncDec = errors.New("++ and -- are not supported")

// ParseAwk reads awk's command line, scanned by its grammar: the -F
// separator, the -v presets and the program.
func ParseAwk(p *Parsed) (*AwkProgram, error) {
	prog := &AwkProgram{}
	prog.FS, _ = p.Value('F')
	for _, kv := range p.Values('v') {
		name, value, ok := strings.Cut(kv, "=")
		if !ok {
			return nil, errors.New("-v needs name=value")
		}
		prog.Presets = append(prog.Presets, [2]string{name, value})
	}
	ap := &awkParser{src: p.Scripts()[0], prog: prog}
	for {
		for ap.skipSpace(); ap.peek(';'); ap.skipSpace() {
			ap.pos++
		}
		if ap.pos >= len(ap.src) {
			return prog, nil
		}
		rule, err := ap.rule()
		if err != nil {
			return nil, err
		}
		prog.Rules = append(prog.Rules, rule)
	}
}

// crossRecord reports whether one record's output may depend on another
// record: the program has a BEGIN or END rule, reads NR or FNR, or
// assigns a variable in a main rule, which a later record may read.
func (prog *AwkProgram) crossRecord() bool {
	for _, r := range prog.Rules {
		if r.Begin || r.End {
			return true
		}
	}
	return prog.assigns || prog.readsNR
}

type awkParser struct {
	src  string
	pos  int
	prog *AwkProgram
	// inPrint is set while a print's arguments are read, where an
	// unparenthesised > is output redirection, not a comparison.
	inPrint bool
}

func (p *awkParser) peek(c byte) bool { return p.pos < len(p.src) && p.src[p.pos] == c }

func (p *awkParser) skipSpace() {
	for p.pos < len(p.src) {
		c := p.src[p.pos]
		if c == ' ' || c == '\t' || c == '\n' || c == '\r' {
			p.pos++
			continue
		}
		if c == '#' {
			for p.pos < len(p.src) && p.src[p.pos] != '\n' {
				p.pos++
			}
			continue
		}
		return
	}
}

func (p *awkParser) skipSpaceNotNewline() {
	for p.pos < len(p.src) && (p.src[p.pos] == ' ' || p.src[p.pos] == '\t') {
		p.pos++
	}
}

func (p *awkParser) rule() (*AwkRule, error) {
	rule := &AwkRule{}
	switch rest := p.src[p.pos:]; {
	case hasKeyword(rest, "BEGIN"):
		rule.Begin = true
		p.pos += 5
	case hasKeyword(rest, "END"):
		rule.End = true
		p.pos += 3
	case !p.peek('{'):
		expr, err := p.expr()
		if err != nil {
			return nil, err
		}
		rule.Pattern = expr
	}
	p.skipSpace()
	if p.peek(',') {
		return nil, errors.New("range patterns are not supported")
	}
	if !p.peek('{') {
		if rule.Begin || rule.End {
			return nil, errors.New("BEGIN and END need an action")
		}
		// Pattern with no action: print the record.
		rule.Action = []AwkStmt{&AwkPrint{}}
		return rule, nil
	}
	stmts, err := p.block()
	if err != nil {
		return nil, err
	}
	rule.Action = stmts
	return rule, nil
}

func (p *awkParser) regex() (*regexp.Regexp, error) {
	p.pos++ // consume /
	start := p.pos
	for p.pos < len(p.src) && p.src[p.pos] != '/' {
		if p.src[p.pos] == '\\' {
			p.pos++
		}
		p.pos++
	}
	if p.pos >= len(p.src) {
		return nil, fmt.Errorf("unterminated /regex/")
	}
	pat := p.src[start:p.pos]
	p.pos++ // consume /
	return regexp.Compile(pat)
}

func (p *awkParser) block() ([]AwkStmt, error) {
	p.pos++ // consume {
	var stmts []AwkStmt
	for {
		for p.skipSpace(); p.peek(';'); p.skipSpace() {
			p.pos++
		}
		if p.pos >= len(p.src) {
			return nil, fmt.Errorf("unterminated block")
		}
		if p.peek('}') {
			p.pos++
			return stmts, nil
		}
		st, err := p.stmt()
		if err != nil {
			return nil, err
		}
		stmts = append(stmts, st)
	}
}

func (p *awkParser) stmt() (AwkStmt, error) {
	p.skipSpace()
	rest := p.src[p.pos:]
	switch {
	case hasKeyword(rest, "printf"):
		p.pos += 6
		args, err := p.printArgs()
		if err != nil {
			return nil, err
		}
		if len(args) == 0 {
			return nil, fmt.Errorf("printf needs a format")
		}
		if f, ok := args[0].(*AwkString); ok {
			if err := CheckAwkFormat(f.Value); err != nil {
				return nil, err
			}
		}
		return &AwkPrintf{Format: args[0], Args: args[1:]}, nil
	case hasKeyword(rest, "print"):
		p.pos += 5
		args, err := p.printArgs()
		if err != nil {
			return nil, err
		}
		return &AwkPrint{Args: args}, nil
	case hasKeyword(rest, "next"):
		p.pos += 4
		return &AwkNext{}, nil
	case hasKeyword(rest, "if"):
		p.pos += 2
		return p.ifStmt()
	}
	// Assignment: IDENT op expr.
	save := p.pos
	if name := p.ident(); name != "" && awkRefusals[name] == "" {
		p.skipSpace()
		for _, op := range []string{"+=", "-=", "*=", "/=", "="} {
			if strings.HasPrefix(p.src[p.pos:], op) &&
				!(op == "=" && strings.HasPrefix(p.src[p.pos:], "==")) {
				p.pos += len(op)
				e, err := p.expr()
				if err != nil {
					return nil, err
				}
				p.prog.assigns = true
				return &AwkAssign{Name: name, Op: op, Value: e}, nil
			}
		}
	}
	// Not a statement of the subset: reading it as an expression names
	// the construct that stopped it, if the subset refuses one.
	p.pos = save
	if _, err := p.expr(); err != nil {
		return nil, err
	}
	return nil, fmt.Errorf("cannot parse statement at %q", clip(p.src[save:]))
}

func hasKeyword(s, kw string) bool {
	if !strings.HasPrefix(s, kw) {
		return false
	}
	if len(s) == len(kw) {
		return true
	}
	c := s[len(kw)]
	return !(c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9'))
}

func clip(s string) string {
	if len(s) > 20 {
		return s[:20] + "..."
	}
	return s
}

// printArgs reads print's or printf's argument list.
func (p *awkParser) printArgs() ([]AwkExpr, error) {
	var args []AwkExpr
	p.inPrint = true
	defer func() { p.inPrint = false }()
	for {
		p.skipSpaceNotNewline()
		if p.pos >= len(p.src) || strings.IndexByte(";}\n", p.src[p.pos]) >= 0 {
			return args, nil
		}
		if p.peek('>') || p.peek('|') {
			return nil, errors.New("output redirection is not supported")
		}
		if len(args) > 0 {
			if !p.peek(',') {
				return args, nil
			}
			p.pos++
		}
		e, err := p.expr()
		if err != nil {
			return nil, err
		}
		args = append(args, e)
	}
}

func (p *awkParser) ifStmt() (AwkStmt, error) {
	p.skipSpace()
	if !p.peek('(') {
		return nil, fmt.Errorf("if: expected (")
	}
	p.pos++
	cond, err := p.expr()
	if err != nil {
		return nil, err
	}
	p.skipSpace()
	if !p.peek(')') {
		return nil, fmt.Errorf("if: expected )")
	}
	p.pos++
	then, err := p.body()
	if err != nil {
		return nil, err
	}
	save := p.pos
	for p.skipSpace(); p.peek(';'); p.skipSpace() {
		p.pos++
	}
	if !hasKeyword(p.src[p.pos:], "else") {
		p.pos = save
		return &AwkIf{Cond: cond, Then: then}, nil
	}
	p.pos += 4
	alt, err := p.body()
	if err != nil {
		return nil, err
	}
	return &AwkIf{Cond: cond, Then: then, Else: alt}, nil
}

// body reads an if's or else's branch: a block or one statement.
func (p *awkParser) body() ([]AwkStmt, error) {
	if p.skipSpace(); p.peek('{') {
		return p.block()
	}
	st, err := p.stmt()
	if err != nil {
		return nil, err
	}
	return []AwkStmt{st}, nil
}

func (p *awkParser) ident() string {
	p.skipSpace()
	start := p.pos
	for p.pos < len(p.src) {
		c := p.src[p.pos]
		if c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(p.pos > start && c >= '0' && c <= '9') {
			p.pos++
			continue
		}
		break
	}
	return p.src[start:p.pos]
}

// expr parses with precedence: || < && < match < comparison < concat <
// additive < multiplicative < unary.
func (p *awkParser) expr() (AwkExpr, error) { return p.orExpr() }

func (p *awkParser) orExpr() (AwkExpr, error) {
	return p.binaryLevel(p.andExpr, "||")
}

func (p *awkParser) andExpr() (AwkExpr, error) {
	return p.binaryLevel(p.matchExpr, "&&")
}

// binaryLevel parses a left-associative chain of next-level operands
// joined by one of ops.
func (p *awkParser) binaryLevel(next func() (AwkExpr, error), ops ...string) (AwkExpr, error) {
	l, err := next()
	if err != nil {
		return nil, err
	}
	for {
		p.skipSpaceNotNewline()
		op := ""
		for _, o := range ops {
			// *= and friends belong to assignments, not expressions.
			if strings.HasPrefix(p.src[p.pos:], o) && (len(o) == 2 || !strings.HasPrefix(p.src[p.pos+1:], "=")) {
				op = o
				break
			}
		}
		if op == "" {
			return l, nil
		}
		p.pos += len(op)
		r, err := next()
		if err != nil {
			return nil, err
		}
		l = &AwkBinary{Op: op, L: l, R: r}
	}
}

func (p *awkParser) matchExpr() (AwkExpr, error) {
	l, err := p.cmpExpr()
	if err != nil {
		return nil, err
	}
	p.skipSpaceNotNewline()
	negate := false
	if strings.HasPrefix(p.src[p.pos:], "!~") {
		negate = true
		p.pos += 2
	} else if p.peek('~') {
		p.pos++
	} else {
		return l, nil
	}
	if p.skipSpace(); !p.peek('/') {
		return nil, fmt.Errorf("~ expects /regex/")
	}
	re, err := p.regex()
	if err != nil {
		return nil, err
	}
	return &AwkMatch{X: l, Re: re, Negate: negate}, nil
}

func (p *awkParser) cmpExpr() (AwkExpr, error) {
	l, err := p.concatExpr()
	if err != nil {
		return nil, err
	}
	p.skipSpaceNotNewline()
	for _, op := range []string{"<=", ">=", "==", "!=", "<", ">"} {
		if strings.HasPrefix(p.src[p.pos:], op) {
			if op == ">" && p.inPrint {
				return l, nil // output redirection, which printArgs refuses
			}
			p.pos += len(op)
			r, err := p.concatExpr()
			if err != nil {
				return nil, err
			}
			return &AwkBinary{Op: op, L: l, R: r}, nil
		}
	}
	return l, nil
}

// concatExpr handles awk's implicit string concatenation: adjacent
// primaries concatenate.
func (p *awkParser) concatExpr() (AwkExpr, error) {
	l, err := p.addExpr()
	if err != nil {
		return nil, err
	}
	for {
		p.skipSpaceNotNewline()
		if p.pos >= len(p.src) {
			return l, nil
		}
		c := p.src[p.pos]
		if c == '"' || c == '$' || c == '(' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_' {
			// Keywords terminate expressions rather than concatenating.
			for _, kw := range []string{"else", "print", "next", "if"} {
				if hasKeyword(p.src[p.pos:], kw) {
					return l, nil
				}
			}
			r, err := p.addExpr()
			if err != nil {
				return nil, err
			}
			l = &AwkBinary{Op: "concat", L: l, R: r}
			continue
		}
		return l, nil
	}
}

func (p *awkParser) addExpr() (AwkExpr, error) {
	return p.binaryLevel(p.mulExpr, "+", "-")
}

func (p *awkParser) mulExpr() (AwkExpr, error) {
	return p.binaryLevel(p.unary, "*", "/", "%")
}

func (p *awkParser) unary() (AwkExpr, error) {
	p.skipSpace()
	rest := p.src[p.pos:]
	if strings.HasPrefix(rest, "++") || strings.HasPrefix(rest, "--") {
		return nil, errAwkIncDec
	}
	if rest != "" && (rest[0] == '-' || rest[0] == '!' && !strings.HasPrefix(rest, "!=")) {
		p.pos++
		e, err := p.unary()
		if err != nil {
			return nil, err
		}
		return &AwkUnary{Op: rest[0], X: e}, nil
	}
	return p.primary()
}

func (p *awkParser) primary() (AwkExpr, error) {
	p.skipSpace()
	if p.pos >= len(p.src) {
		return nil, fmt.Errorf("unexpected end of program")
	}
	c := p.src[p.pos]
	switch {
	case c == '$':
		p.pos++
		idx, err := p.primary()
		if err != nil {
			return nil, err
		}
		return p.noIncDec(&AwkField{Index: idx})
	case c == '(':
		p.pos++
		defer func(v bool) { p.inPrint = v }(p.inPrint)
		p.inPrint = false // a parenthesised > compares
		e, err := p.expr()
		if err != nil {
			return nil, err
		}
		if p.skipSpace(); !p.peek(')') {
			return nil, fmt.Errorf("missing )")
		}
		p.pos++
		return e, nil
	case c == '/':
		re, err := p.regex()
		if err != nil {
			return nil, err
		}
		return &AwkMatch{X: &AwkField{Index: &AwkNumber{}}, Re: re}, nil
	case c == '"':
		p.pos++
		var b strings.Builder
		for p.pos < len(p.src) && p.src[p.pos] != '"' {
			if p.src[p.pos] == '\\' && p.pos+1 < len(p.src) {
				p.pos++
				switch p.src[p.pos] {
				case 'n':
					b.WriteByte('\n')
				case 't':
					b.WriteByte('\t')
				default:
					b.WriteByte(p.src[p.pos])
				}
			} else {
				b.WriteByte(p.src[p.pos])
			}
			p.pos++
		}
		if p.pos >= len(p.src) {
			return nil, fmt.Errorf("unterminated string")
		}
		p.pos++
		return &AwkString{Value: b.String()}, nil
	case c >= '0' && c <= '9' || c == '.':
		start := p.pos
		for p.pos < len(p.src) && (p.src[p.pos] >= '0' && p.src[p.pos] <= '9' || p.src[p.pos] == '.') {
			p.pos++
		}
		f, err := strconv.ParseFloat(p.src[start:p.pos], 64)
		if err != nil {
			return nil, err
		}
		return &AwkNumber{Value: f}, nil
	case c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z'):
		name := p.ident()
		if why := awkRefusals[name]; why != "" {
			return nil, errors.New(why)
		}
		p.skipSpaceNotNewline()
		switch {
		case p.peek('['):
			return nil, errors.New(awkNoArrays)
		case p.peek('('):
			return p.call(name)
		}
		p.prog.readsNR = p.prog.readsNR || name == "NR" || name == "FNR"
		return p.noIncDec(&AwkVar{Name: name})
	}
	return nil, fmt.Errorf("cannot parse expression at %q", clip(p.src[p.pos:]))
}

// noIncDec returns the variable or field e unless ++ or -- follows it.
func (p *awkParser) noIncDec(e AwkExpr) (AwkExpr, error) {
	if rest := p.src[p.pos:]; strings.HasPrefix(rest, "++") || strings.HasPrefix(rest, "--") {
		return nil, errAwkIncDec
	}
	return e, nil
}

// call reads the argument list of a call to name, which must be one of
// awkBuiltins.
func (p *awkParser) call(name string) (AwkExpr, error) {
	arity, ok := awkBuiltins[name]
	if !ok {
		return nil, fmt.Errorf("%s (%s)", awkNoFuncs, name)
	}
	p.pos++ // consume (
	defer func(v bool) { p.inPrint = v }(p.inPrint)
	p.inPrint = false
	call := &AwkCall{Func: name}
	for p.skipSpace(); !p.peek(')'); {
		if len(call.Args) > 0 {
			if !p.peek(',') {
				return nil, fmt.Errorf("missing ) in call to %s", name)
			}
			p.pos++
		}
		a, err := p.expr()
		if err != nil {
			return nil, err
		}
		call.Args = append(call.Args, a)
		p.skipSpace()
	}
	p.pos++
	if n := len(call.Args); n < arity[0] || n > arity[1] {
		return nil, fmt.Errorf("%s takes %d to %d arguments, not %d", name, arity[0], arity[1], n)
	}
	return call, nil
}

// CheckAwkFormat refuses a printf format with a conversion awk does not
// implement: a constant format is refused at parse time, a computed one
// when it runs.
func CheckAwkFormat(format string) error {
	for i := 0; i < len(format); i++ {
		if format[i] != '%' {
			continue
		}
		for i++; i < len(format) && strings.IndexByte("-+ 0123456789.*", format[i]) >= 0; i++ {
		}
		if i < len(format) && strings.IndexByte("%scdioxfeg", format[i]) < 0 {
			return fmt.Errorf("printf: unsupported conversion %%%c", format[i])
		}
	}
	return nil
}
