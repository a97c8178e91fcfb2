package coreutils

import (
	"fmt"
	"regexp"
	"strconv"
	"strings"

	"jash/internal/spec"
)

func init() {
	Register("awk", awkCmd)
}

// awkCmd implements the working core of awk(1): BEGIN/END blocks, /regex/
// and expression patterns, print and printf statements, if/else, next,
// -v presets, variables with awk's string/number duality, fields
// ($0..$NF), NR/NF/FS/OFS, and the usual operators. `awk -F: '{print
// $1}'`-class programs — the kind that appear in shell pipelines — run
// unmodified. User functions, arrays, and getline are out of scope
// (documented in DESIGN.md).
func awkCmd(c *Context, args []string) int {
	cl, err := spec.Parse(args)
	if err != nil {
		return c.Errorf(2, "awk: %v", err)
	}
	fs, _ := cl.Value('F')
	presets := map[string]string{}
	for _, kv := range cl.Values('v') {
		name, value, ok := strings.Cut(kv, "=")
		if !ok {
			return c.Errorf(2, "awk: -v needs name=value")
		}
		presets[name] = value
	}
	prog, err := parseAwk(cl.Scripts()[0])
	if err != nil {
		return c.Errorf(2, "awk: %v", err)
	}
	rs, st := openInputs(c, cl.Operands)
	if rs == nil {
		return st
	}
	env := &awkEnv{
		vars: map[string]awkValue{"OFS": awkStr(" "), "FS": awkStr(" ")},
		out:  newLineWriter(c.Stdout),
	}
	defer env.out.Release()
	if fs != "" {
		env.vars["FS"] = awkStr(fs)
	}
	for name, value := range presets {
		env.vars[name] = awkStr(value)
	}
	for _, rule := range prog {
		if rule.begin {
			if err := runAwkStmts(env, rule.action); err != nil && err != errAwkNext {
				return c.Errorf(2, "awk: %v", err)
			}
		}
	}
	lineErr := c.forEachLine(concatReaders(rs), func(line []byte) error {
		env.setRecord(string(line))
		env.vars["NR"] = awkNum(float64(env.nr + 1))
		env.nr++
		for _, rule := range prog {
			if rule.begin || rule.end {
				continue
			}
			ok, err := rule.matches(env)
			if err != nil {
				return err
			}
			if !ok {
				continue
			}
			if err := runAwkStmts(env, rule.action); err != nil {
				if err == errAwkNext {
					break
				}
				return err
			}
		}
		return nil
	})
	if lineErr != nil {
		return c.Errorf(2, "awk: %v", lineErr)
	}
	for _, rule := range prog {
		if rule.end {
			if err := runAwkStmts(env, rule.action); err != nil && err != errAwkNext {
				return c.Errorf(2, "awk: %v", err)
			}
		}
	}
	env.out.Flush()
	return 0
}

var errAwkNext = errLine("next")

// --- values ---

type awkValue struct {
	s     string
	n     float64
	isNum bool
}

func awkStr(s string) awkValue  { return awkValue{s: s} }
func awkNum(n float64) awkValue { return awkValue{n: n, isNum: true} }

func (v awkValue) num() float64 {
	if v.isNum {
		return v.n
	}
	f, _ := strconv.ParseFloat(strings.TrimSpace(numericPrefix(v.s)), 64)
	return f
}

func numericPrefix(s string) string {
	s = strings.TrimSpace(s)
	end := 0
	if end < len(s) && (s[end] == '-' || s[end] == '+') {
		end++
	}
	for end < len(s) && (s[end] >= '0' && s[end] <= '9') {
		end++
	}
	if end < len(s) && s[end] == '.' {
		end++
		for end < len(s) && s[end] >= '0' && s[end] <= '9' {
			end++
		}
	}
	return s[:end]
}

func (v awkValue) str() string {
	if !v.isNum {
		return v.s
	}
	if v.n == float64(int64(v.n)) {
		return strconv.FormatInt(int64(v.n), 10)
	}
	return strconv.FormatFloat(v.n, 'g', 6, 64)
}

func (v awkValue) truthy() bool {
	if v.isNum {
		return v.n != 0
	}
	return v.s != ""
}

// looksNumeric reports whether a string compares numerically, per awk.
func looksNumeric(s string) bool {
	s = strings.TrimSpace(s)
	if s == "" {
		return false
	}
	_, err := strconv.ParseFloat(s, 64)
	return err == nil
}

// --- runtime environment ---

type awkEnv struct {
	vars   map[string]awkValue
	record string
	fields []string
	nr     int
	out    *lineWriter
}

func (e *awkEnv) setRecord(line string) {
	e.record = line
	fs := e.vars["FS"].str()
	if fs == " " {
		e.fields = strings.Fields(line)
	} else {
		e.fields = strings.Split(line, fs)
	}
	e.vars["NF"] = awkNum(float64(len(e.fields)))
}

func (e *awkEnv) field(i int) awkValue {
	if i == 0 {
		return awkStr(e.record)
	}
	if i >= 1 && i <= len(e.fields) {
		f := e.fields[i-1]
		if looksNumeric(f) {
			return awkValue{s: f, n: mustFloat(f), isNum: true}
		}
		return awkStr(f)
	}
	return awkStr("")
}

func mustFloat(s string) float64 {
	f, _ := strconv.ParseFloat(strings.TrimSpace(s), 64)
	return f
}

// --- program representation ---

type awkRule struct {
	begin, end bool
	pattern    awkExpr // nil = always
	patternRe  *regexp.Regexp
	action     []awkStmt
}

func (r *awkRule) matches(env *awkEnv) (bool, error) {
	if r.patternRe != nil {
		return r.patternRe.MatchString(env.record), nil
	}
	if r.pattern == nil {
		return true, nil
	}
	v, err := r.pattern.eval(env)
	if err != nil {
		return false, err
	}
	return v.truthy(), nil
}

type awkStmt interface{ exec(*awkEnv) error }

type awkPrint struct{ exprs []awkExpr }

func (s *awkPrint) exec(env *awkEnv) error {
	if len(s.exprs) == 0 {
		env.out.WriteLine([]byte(env.record))
		return nil
	}
	ofs := env.vars["OFS"].str()
	parts := make([]string, len(s.exprs))
	for i, e := range s.exprs {
		v, err := e.eval(env)
		if err != nil {
			return err
		}
		parts[i] = v.str()
	}
	env.out.WriteLine([]byte(strings.Join(parts, ofs)))
	return nil
}

type awkAssign struct {
	name string
	op   string // "=", "+=", "-=", "*=", "/="
	expr awkExpr
}

func (s *awkAssign) exec(env *awkEnv) error {
	v, err := s.expr.eval(env)
	if err != nil {
		return err
	}
	if s.op == "=" {
		env.vars[s.name] = v
		return nil
	}
	cur := env.vars[s.name].num()
	switch s.op {
	case "+=":
		cur += v.num()
	case "-=":
		cur -= v.num()
	case "*=":
		cur *= v.num()
	case "/=":
		cur /= v.num()
	}
	env.vars[s.name] = awkNum(cur)
	return nil
}

type awkIf struct {
	cond      awkExpr
	then, alt []awkStmt
}

func (s *awkIf) exec(env *awkEnv) error {
	v, err := s.cond.eval(env)
	if err != nil {
		return err
	}
	if v.truthy() {
		return runAwkStmts(env, s.then)
	}
	return runAwkStmts(env, s.alt)
}

// awkPrintf implements the printf statement with the common conversions.
type awkPrintf struct {
	format awkExpr
	args   []awkExpr
}

func (s *awkPrintf) exec(env *awkEnv) error {
	fv, err := s.format.eval(env)
	if err != nil {
		return err
	}
	vals := make([]awkValue, len(s.args))
	for i, a := range s.args {
		v, err := a.eval(env)
		if err != nil {
			return err
		}
		vals[i] = v
	}
	out, err := awkFormat(fv.str(), vals)
	if err != nil {
		return err
	}
	env.out.WriteString(out)
	return nil
}

// awkFormat renders an awk printf format: %s %d %i %f %e %g %x %o %c %%
// with flags/width/precision passed through to fmt.
func awkFormat(format string, vals []awkValue) (string, error) {
	var b strings.Builder
	vi := 0
	next := func() awkValue {
		if vi < len(vals) {
			v := vals[vi]
			vi++
			return v
		}
		return awkStr("")
	}
	for i := 0; i < len(format); i++ {
		ch := format[i]
		if ch != '%' {
			b.WriteByte(ch)
			continue
		}
		i++
		if i >= len(format) {
			b.WriteByte('%')
			break
		}
		spec := "%"
		for i < len(format) {
			c := format[i]
			if c == '*' {
				// POSIX: * takes the width (or precision, after '.') from
				// the next argument. A negative precision counts as
				// omitted, per C; a negative width reads as the '-' flag.
				n := int64(next().num())
				if strings.HasSuffix(spec, ".") && n < 0 {
					spec = spec[:len(spec)-1]
				} else {
					spec += strconv.FormatInt(n, 10)
				}
				i++
				continue
			}
			if strings.IndexByte("-+ 0123456789.", c) < 0 {
				break
			}
			spec += string(c)
			i++
		}
		if i >= len(format) {
			b.WriteString(spec)
			break
		}
		switch verb := format[i]; verb {
		case '%':
			b.WriteByte('%')
		case 's':
			fmt.Fprintf(&b, spec+"s", next().str())
		case 'c':
			sv := next().str()
			if sv != "" {
				b.WriteByte(sv[0])
			}
		case 'd', 'i':
			fmt.Fprintf(&b, spec+"d", int64(next().num()))
		case 'x', 'o':
			fmt.Fprintf(&b, spec+string(verb), int64(next().num()))
		case 'f', 'e', 'g':
			fmt.Fprintf(&b, spec+string(verb), next().num())
		default:
			return "", fmt.Errorf("printf: unsupported conversion %%%c", verb)
		}
	}
	return b.String(), nil
}

type awkNext struct{}

func (awkNext) exec(*awkEnv) error { return errAwkNext }

func runAwkStmts(env *awkEnv, stmts []awkStmt) error {
	for _, s := range stmts {
		if err := s.exec(env); err != nil {
			return err
		}
	}
	return nil
}

// --- expressions ---

type awkExpr interface {
	eval(*awkEnv) (awkValue, error)
}

type awkFieldRef struct{ idx awkExpr }

func (e *awkFieldRef) eval(env *awkEnv) (awkValue, error) {
	v, err := e.idx.eval(env)
	if err != nil {
		return awkValue{}, err
	}
	return env.field(int(v.num())), nil
}

type awkVar struct{ name string }

func (e *awkVar) eval(env *awkEnv) (awkValue, error) { return env.vars[e.name], nil }

type awkConst struct{ v awkValue }

func (e *awkConst) eval(*awkEnv) (awkValue, error) { return e.v, nil }

type awkBinop struct {
	op   string
	l, r awkExpr
}

func (e *awkBinop) eval(env *awkEnv) (awkValue, error) {
	l, err := e.l.eval(env)
	if err != nil {
		return awkValue{}, err
	}
	// Short-circuit logical operators.
	switch e.op {
	case "&&":
		if !l.truthy() {
			return awkNum(0), nil
		}
		r, err := e.r.eval(env)
		if err != nil {
			return awkValue{}, err
		}
		if r.truthy() {
			return awkNum(1), nil
		}
		return awkNum(0), nil
	case "||":
		if l.truthy() {
			return awkNum(1), nil
		}
		r, err := e.r.eval(env)
		if err != nil {
			return awkValue{}, err
		}
		if r.truthy() {
			return awkNum(1), nil
		}
		return awkNum(0), nil
	}
	r, err := e.r.eval(env)
	if err != nil {
		return awkValue{}, err
	}
	switch e.op {
	case "+":
		return awkNum(l.num() + r.num()), nil
	case "-":
		return awkNum(l.num() - r.num()), nil
	case "*":
		return awkNum(l.num() * r.num()), nil
	case "/":
		return awkNum(l.num() / r.num()), nil
	case "%":
		li, ri := int64(l.num()), int64(r.num())
		if ri == 0 {
			return awkValue{}, fmt.Errorf("division by zero")
		}
		return awkNum(float64(li % ri)), nil
	case "concat":
		return awkStr(l.str() + r.str()), nil
	}
	// Comparisons: numeric when both sides are numeric, else string.
	var cmp int
	if (l.isNum || looksNumeric(l.s)) && (r.isNum || looksNumeric(r.s)) {
		ln, rn := l.num(), r.num()
		switch {
		case ln < rn:
			cmp = -1
		case ln > rn:
			cmp = 1
		}
	} else {
		cmp = strings.Compare(l.str(), r.str())
	}
	var ok bool
	switch e.op {
	case "<":
		ok = cmp < 0
	case "<=":
		ok = cmp <= 0
	case ">":
		ok = cmp > 0
	case ">=":
		ok = cmp >= 0
	case "==":
		ok = cmp == 0
	case "!=":
		ok = cmp != 0
	default:
		return awkValue{}, fmt.Errorf("unknown operator %q", e.op)
	}
	if ok {
		return awkNum(1), nil
	}
	return awkNum(0), nil
}

type awkNot struct{ e awkExpr }

func (e *awkNot) eval(env *awkEnv) (awkValue, error) {
	v, err := e.e.eval(env)
	if err != nil {
		return awkValue{}, err
	}
	if v.truthy() {
		return awkNum(0), nil
	}
	return awkNum(1), nil
}

type awkNeg struct{ e awkExpr }

func (e *awkNeg) eval(env *awkEnv) (awkValue, error) {
	v, err := e.e.eval(env)
	if err != nil {
		return awkValue{}, err
	}
	return awkNum(-v.num()), nil
}

type awkMatch struct {
	e      awkExpr
	re     *regexp.Regexp
	negate bool
}

func (e *awkMatch) eval(env *awkEnv) (awkValue, error) {
	v, err := e.e.eval(env)
	if err != nil {
		return awkValue{}, err
	}
	m := e.re.MatchString(v.str())
	if e.negate {
		m = !m
	}
	if m {
		return awkNum(1), nil
	}
	return awkNum(0), nil
}

type awkCall struct {
	name string
	args []awkExpr
}

func (e *awkCall) eval(env *awkEnv) (awkValue, error) {
	vals := make([]awkValue, len(e.args))
	for i, a := range e.args {
		v, err := a.eval(env)
		if err != nil {
			return awkValue{}, err
		}
		vals[i] = v
	}
	switch e.name {
	case "length":
		if len(vals) == 0 {
			return awkNum(float64(len(env.record))), nil
		}
		return awkNum(float64(len(vals[0].str()))), nil
	case "substr":
		if len(vals) < 2 {
			return awkValue{}, fmt.Errorf("substr needs 2 or 3 arguments")
		}
		s := vals[0].str()
		start := int(vals[1].num()) - 1
		if start < 0 {
			start = 0
		}
		if start > len(s) {
			return awkStr(""), nil
		}
		end := len(s)
		if len(vals) >= 3 {
			end = start + int(vals[2].num())
			if end > len(s) {
				end = len(s)
			}
		}
		return awkStr(s[start:end]), nil
	case "toupper":
		if len(vals) < 1 {
			return awkValue{}, fmt.Errorf("toupper needs an argument")
		}
		return awkStr(strings.ToUpper(vals[0].str())), nil
	case "tolower":
		if len(vals) < 1 {
			return awkValue{}, fmt.Errorf("tolower needs an argument")
		}
		return awkStr(strings.ToLower(vals[0].str())), nil
	case "int":
		if len(vals) < 1 {
			return awkValue{}, fmt.Errorf("int needs an argument")
		}
		return awkNum(float64(int64(vals[0].num()))), nil
	}
	return awkValue{}, fmt.Errorf("unknown function %q", e.name)
}

// --- parser ---

type awkParser struct {
	src string
	pos int
}

func parseAwk(src string) ([]*awkRule, error) {
	p := &awkParser{src: src}
	var rules []*awkRule
	for {
		p.skipSpace()
		if p.pos >= len(p.src) {
			return rules, nil
		}
		rule, err := p.rule()
		if err != nil {
			return nil, err
		}
		rules = append(rules, rule)
	}
}

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

func (p *awkParser) rule() (*awkRule, error) {
	rule := &awkRule{}
	p.skipSpace()
	if strings.HasPrefix(p.src[p.pos:], "BEGIN") {
		rule.begin = true
		p.pos += 5
	} else if strings.HasPrefix(p.src[p.pos:], "END") {
		rule.end = true
		p.pos += 3
	} else if p.pos < len(p.src) && p.src[p.pos] == '/' {
		re, err := p.regex()
		if err != nil {
			return nil, err
		}
		rule.patternRe = re
	} else if p.pos < len(p.src) && p.src[p.pos] != '{' {
		expr, err := p.expr()
		if err != nil {
			return nil, err
		}
		rule.pattern = expr
	}
	p.skipSpace()
	if p.pos >= len(p.src) || p.src[p.pos] != '{' {
		// Pattern with no action: print the record.
		rule.action = []awkStmt{&awkPrint{}}
		return rule, nil
	}
	stmts, err := p.block()
	if err != nil {
		return nil, err
	}
	rule.action = stmts
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

func (p *awkParser) block() ([]awkStmt, error) {
	p.pos++ // consume {
	var stmts []awkStmt
	for {
		p.skipSpace()
		for p.pos < len(p.src) && p.src[p.pos] == ';' {
			p.pos++
			p.skipSpace()
		}
		if p.pos >= len(p.src) {
			return nil, fmt.Errorf("unterminated block")
		}
		if p.src[p.pos] == '}' {
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

func (p *awkParser) stmt() (awkStmt, error) {
	p.skipSpace()
	rest := p.src[p.pos:]
	switch {
	case hasKeyword(rest, "printf"):
		p.pos += 6
		st, err := p.printStmt()
		if err != nil {
			return nil, err
		}
		ps := st.(*awkPrint)
		if len(ps.exprs) == 0 {
			return nil, fmt.Errorf("printf needs a format")
		}
		return &awkPrintf{format: ps.exprs[0], args: ps.exprs[1:]}, nil
	case hasKeyword(rest, "print"):
		p.pos += 5
		return p.printStmt()
	case hasKeyword(rest, "next"):
		p.pos += 4
		return awkNext{}, nil
	case hasKeyword(rest, "if"):
		p.pos += 2
		return p.ifStmt()
	}
	// Assignment: IDENT op expr.
	save := p.pos
	name := p.ident()
	if name != "" {
		p.skipSpace()
		for _, op := range []string{"+=", "-=", "*=", "/=", "="} {
			if strings.HasPrefix(p.src[p.pos:], op) &&
				!(op == "=" && strings.HasPrefix(p.src[p.pos:], "==")) {
				p.pos += len(op)
				e, err := p.expr()
				if err != nil {
					return nil, err
				}
				return &awkAssign{name: name, op: op, expr: e}, nil
			}
		}
	}
	p.pos = save
	return nil, fmt.Errorf("cannot parse statement at %q", clip(p.src[p.pos:]))
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

func (p *awkParser) printStmt() (awkStmt, error) {
	var exprs []awkExpr
	for {
		p.skipSpace()
		if p.pos >= len(p.src) || p.src[p.pos] == ';' || p.src[p.pos] == '}' || p.src[p.pos] == '\n' {
			return &awkPrint{exprs: exprs}, nil
		}
		e, err := p.expr()
		if err != nil {
			return nil, err
		}
		exprs = append(exprs, e)
		p.skipSpaceNotNewline()
		if p.pos < len(p.src) && p.src[p.pos] == ',' {
			p.pos++
			continue
		}
		return &awkPrint{exprs: exprs}, nil
	}
}

func (p *awkParser) skipSpaceNotNewline() {
	for p.pos < len(p.src) && (p.src[p.pos] == ' ' || p.src[p.pos] == '\t') {
		p.pos++
	}
}

func (p *awkParser) ifStmt() (awkStmt, error) {
	p.skipSpace()
	if p.pos >= len(p.src) || p.src[p.pos] != '(' {
		return nil, fmt.Errorf("if: expected (")
	}
	p.pos++
	cond, err := p.expr()
	if err != nil {
		return nil, err
	}
	p.skipSpace()
	if p.pos >= len(p.src) || p.src[p.pos] != ')' {
		return nil, fmt.Errorf("if: expected )")
	}
	p.pos++
	p.skipSpace()
	var then []awkStmt
	if p.pos < len(p.src) && p.src[p.pos] == '{' {
		then, err = p.block()
	} else {
		var st awkStmt
		st, err = p.stmt()
		then = []awkStmt{st}
	}
	if err != nil {
		return nil, err
	}
	save := p.pos
	p.skipSpace()
	for p.pos < len(p.src) && p.src[p.pos] == ';' {
		p.pos++
		p.skipSpace()
	}
	if hasKeyword(p.src[p.pos:], "else") {
		p.pos += 4
		p.skipSpace()
		var alt []awkStmt
		if p.pos < len(p.src) && p.src[p.pos] == '{' {
			alt, err = p.block()
		} else {
			var st awkStmt
			st, err = p.stmt()
			alt = []awkStmt{st}
		}
		if err != nil {
			return nil, err
		}
		return &awkIf{cond: cond, then: then, alt: alt}, nil
	}
	p.pos = save
	return &awkIf{cond: cond, then: then}, nil
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
func (p *awkParser) expr() (awkExpr, error) { return p.orExpr() }

func (p *awkParser) orExpr() (awkExpr, error) {
	l, err := p.andExpr()
	if err != nil {
		return nil, err
	}
	for {
		p.skipSpaceNotNewline()
		if !strings.HasPrefix(p.src[p.pos:], "||") {
			return l, nil
		}
		p.pos += 2
		r, err := p.andExpr()
		if err != nil {
			return nil, err
		}
		l = &awkBinop{op: "||", l: l, r: r}
	}
}

func (p *awkParser) andExpr() (awkExpr, error) {
	l, err := p.matchExpr()
	if err != nil {
		return nil, err
	}
	for {
		p.skipSpaceNotNewline()
		if !strings.HasPrefix(p.src[p.pos:], "&&") {
			return l, nil
		}
		p.pos += 2
		r, err := p.matchExpr()
		if err != nil {
			return nil, err
		}
		l = &awkBinop{op: "&&", l: l, r: r}
	}
}

func (p *awkParser) matchExpr() (awkExpr, error) {
	l, err := p.cmpExpr()
	if err != nil {
		return nil, err
	}
	p.skipSpaceNotNewline()
	negate := false
	if strings.HasPrefix(p.src[p.pos:], "!~") {
		negate = true
		p.pos += 2
	} else if p.pos < len(p.src) && p.src[p.pos] == '~' {
		p.pos++
	} else {
		return l, nil
	}
	p.skipSpace()
	if p.pos >= len(p.src) || p.src[p.pos] != '/' {
		return nil, fmt.Errorf("~ expects /regex/")
	}
	re, err := p.regex()
	if err != nil {
		return nil, err
	}
	return &awkMatch{e: l, re: re, negate: negate}, nil
}

func (p *awkParser) cmpExpr() (awkExpr, error) {
	l, err := p.concatExpr()
	if err != nil {
		return nil, err
	}
	p.skipSpaceNotNewline()
	for _, op := range []string{"<=", ">=", "==", "!=", "<", ">"} {
		if strings.HasPrefix(p.src[p.pos:], op) {
			p.pos += len(op)
			r, err := p.concatExpr()
			if err != nil {
				return nil, err
			}
			return &awkBinop{op: op, l: l, r: r}, nil
		}
	}
	return l, nil
}

// concatExpr handles awk's implicit string concatenation: adjacent
// primaries concatenate.
func (p *awkParser) concatExpr() (awkExpr, error) {
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
			if hasKeyword(p.src[p.pos:], "else") || hasKeyword(p.src[p.pos:], "print") ||
				hasKeyword(p.src[p.pos:], "next") || hasKeyword(p.src[p.pos:], "if") {
				return l, nil
			}
			r, err := p.addExpr()
			if err != nil {
				return nil, err
			}
			l = &awkBinop{op: "concat", l: l, r: r}
			continue
		}
		return l, nil
	}
}

func (p *awkParser) addExpr() (awkExpr, error) {
	l, err := p.mulExpr()
	if err != nil {
		return nil, err
	}
	for {
		p.skipSpaceNotNewline()
		if p.pos >= len(p.src) {
			return l, nil
		}
		c := p.src[p.pos]
		if c != '+' && c != '-' {
			return l, nil
		}
		// += / -= belong to assignments, not expressions.
		if p.pos+1 < len(p.src) && p.src[p.pos+1] == '=' {
			return l, nil
		}
		p.pos++
		r, err := p.mulExpr()
		if err != nil {
			return nil, err
		}
		l = &awkBinop{op: string(c), l: l, r: r}
	}
}

func (p *awkParser) mulExpr() (awkExpr, error) {
	l, err := p.unary()
	if err != nil {
		return nil, err
	}
	for {
		p.skipSpaceNotNewline()
		if p.pos >= len(p.src) {
			return l, nil
		}
		c := p.src[p.pos]
		if c != '*' && c != '/' && c != '%' {
			return l, nil
		}
		if p.pos+1 < len(p.src) && p.src[p.pos+1] == '=' {
			return l, nil
		}
		p.pos++
		r, err := p.unary()
		if err != nil {
			return nil, err
		}
		l = &awkBinop{op: string(c), l: l, r: r}
	}
}

func (p *awkParser) unary() (awkExpr, error) {
	p.skipSpace()
	if p.pos < len(p.src) {
		switch p.src[p.pos] {
		case '!':
			if !strings.HasPrefix(p.src[p.pos:], "!=") {
				p.pos++
				e, err := p.unary()
				if err != nil {
					return nil, err
				}
				return &awkNot{e: e}, nil
			}
		case '-':
			p.pos++
			e, err := p.unary()
			if err != nil {
				return nil, err
			}
			return &awkNeg{e: e}, nil
		}
	}
	return p.primary()
}

func (p *awkParser) primary() (awkExpr, error) {
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
		return &awkFieldRef{idx: idx}, nil
	case c == '(':
		p.pos++
		e, err := p.expr()
		if err != nil {
			return nil, err
		}
		p.skipSpace()
		if p.pos >= len(p.src) || p.src[p.pos] != ')' {
			return nil, fmt.Errorf("missing )")
		}
		p.pos++
		return e, nil
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
		return &awkConst{v: awkStr(b.String())}, nil
	case c >= '0' && c <= '9' || c == '.':
		start := p.pos
		for p.pos < len(p.src) && (p.src[p.pos] >= '0' && p.src[p.pos] <= '9' || p.src[p.pos] == '.') {
			p.pos++
		}
		f, err := strconv.ParseFloat(p.src[start:p.pos], 64)
		if err != nil {
			return nil, err
		}
		return &awkConst{v: awkNum(f)}, nil
	case c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z'):
		name := p.ident()
		p.skipSpaceNotNewline()
		if p.pos < len(p.src) && p.src[p.pos] == '(' {
			p.pos++
			var args []awkExpr
			p.skipSpace()
			if p.pos < len(p.src) && p.src[p.pos] == ')' {
				p.pos++
				return &awkCall{name: name}, nil
			}
			for {
				a, err := p.expr()
				if err != nil {
					return nil, err
				}
				args = append(args, a)
				p.skipSpace()
				if p.pos < len(p.src) && p.src[p.pos] == ',' {
					p.pos++
					continue
				}
				break
			}
			if p.pos >= len(p.src) || p.src[p.pos] != ')' {
				return nil, fmt.Errorf("missing ) in call to %s", name)
			}
			p.pos++
			return &awkCall{name: name, args: args}, nil
		}
		return &awkVar{name: name}, nil
	}
	return nil, fmt.Errorf("cannot parse expression at %q", clip(p.src[p.pos:]))
}
