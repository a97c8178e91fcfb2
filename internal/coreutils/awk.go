package coreutils

import (
	"fmt"
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
// unmodified. spec.ParseAwk reads the program, and refuses the rest
// (arrays, user functions, getline, ++/--, loops) by name, as DESIGN.md's
// "The sed and awk subset" lists; this file evaluates what it read.
func awkCmd(c *Context, args []string) int {
	cl, err := spec.Parse(args)
	if err != nil {
		return c.Errorf(2, "awk: %v", err)
	}
	prog, err := spec.ParseAwk(&cl)
	if err != nil {
		return c.Errorf(2, "awk: %v", err)
	}
	rs, st := openInputs(c, cl.Operands)
	if rs == nil {
		return st
	}
	env := &awkEnv{
		vars: map[string]awkValue{"OFS": awkStr(" "), "FS": awkStr(" ")},
		out:  &c.out,
	}
	if prog.FS != "" {
		env.vars["FS"] = awkStr(prog.FS)
	}
	for _, kv := range prog.Presets {
		env.vars[kv[0]] = awkStrnum(kv[1])
	}
	for _, rule := range prog.Rules {
		if rule.Begin && env.exec(rule.Action) && env.err != nil {
			return c.Errorf(2, "awk: %v", env.err)
		}
	}
	lineErr := c.forEachLine(concatReaders(rs), func(line []byte) error {
		env.setRecord(string(line))
		env.vars["NR"] = awkNum(env.vars["NR"].num() + 1)
		for _, rule := range prog.Rules {
			if env.err != nil {
				break
			}
			mainRule := !rule.Begin && !rule.End
			if mainRule && (rule.Pattern == nil || env.eval(rule.Pattern).truthy()) && env.exec(rule.Action) {
				break // next, or a run-time error
			}
		}
		return env.err
	})
	if lineErr != nil {
		return c.Errorf(2, "awk: %v", lineErr)
	}
	for _, rule := range prog.Rules {
		if rule.End && env.exec(rule.Action) && env.err != nil {
			return c.Errorf(2, "awk: %v", env.err)
		}
	}
	return 0
}

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
	f, _ := strconv.ParseFloat(numericPrefix(v.s), 64)
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

// str is the value as a string: a field or preset that looks numeric
// keeps its text (007 prints 007), a computed number is formatted.
func (v awkValue) str() string {
	if !v.isNum || v.s != "" {
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

// awkStrnum is input text, a field or a -v preset: a number that keeps
// its text when it looks like one, else a string.
func awkStrnum(s string) awkValue {
	if n, err := strconv.ParseFloat(strings.TrimSpace(s), 64); err == nil {
		return awkValue{s: s, n: n, isNum: true}
	}
	return awkStr(s)
}

// --- runtime environment ---

type awkEnv struct {
	vars   map[string]awkValue
	record string
	fields []string
	out    *stdout
	err    error // the first run-time error; it ends the run
}

func (env *awkEnv) setRecord(line string) {
	env.record = line
	fs := env.vars["FS"].str()
	if fs == " " {
		env.fields = strings.Fields(line)
	} else {
		env.fields = strings.Split(line, fs)
	}
	env.vars["NF"] = awkNum(float64(len(env.fields)))
}

func (env *awkEnv) field(i int) awkValue {
	if i == 0 {
		return awkStr(env.record)
	}
	if i >= 1 && i <= len(env.fields) {
		return awkStrnum(env.fields[i-1])
	}
	return awkStr("")
}

// exec runs statements. It reports whether the rules for this record
// end here: at next, or at a run-time error, which it leaves in env.err.
func (env *awkEnv) exec(stmts []spec.AwkStmt) bool {
	for _, s := range stmts {
		switch s := s.(type) {
		case *spec.AwkPrint:
			env.print(s)
		case *spec.AwkPrintf:
			out, err := awkFormat(env.eval(s.Format).str(), env.evalAll(s.Args))
			if err == nil && env.err == nil {
				env.out.WriteString(out)
			}
			env.fail(err)
		case *spec.AwkAssign:
			env.assign(s)
		case *spec.AwkIf:
			branch := s.Else
			if env.eval(s.Cond).truthy() {
				branch = s.Then
			}
			if env.exec(branch) {
				return true
			}
		case *spec.AwkNext:
			return true
		}
		if env.err != nil {
			return true
		}
	}
	return false
}

// fail keeps the first run-time error.
func (env *awkEnv) fail(err error) {
	if env.err == nil {
		env.err = err
	}
}

func (env *awkEnv) print(s *spec.AwkPrint) {
	line := env.record
	if len(s.Args) > 0 {
		parts := make([]string, len(s.Args))
		for i, v := range env.evalAll(s.Args) {
			parts[i] = v.str()
		}
		line = strings.Join(parts, env.vars["OFS"].str())
	}
	if env.err == nil {
		env.out.writeLine([]byte(line))
	}
}

func (env *awkEnv) assign(s *spec.AwkAssign) {
	v := env.eval(s.Value)
	if s.Op != "=" {
		cur := env.vars[s.Name].num()
		switch s.Op {
		case "+=":
			cur += v.num()
		case "-=":
			cur -= v.num()
		case "*=":
			cur *= v.num()
		case "/=":
			cur /= v.num()
		}
		v = awkNum(cur)
	}
	env.vars[s.Name] = v
}

func (env *awkEnv) evalAll(es []spec.AwkExpr) []awkValue {
	vals := make([]awkValue, len(es))
	for i, e := range es {
		vals[i] = env.eval(e)
	}
	return vals
}

func awkBool(b bool) awkValue {
	if b {
		return awkNum(1)
	}
	return awkNum(0)
}

// eval evaluates an expression.
func (env *awkEnv) eval(e spec.AwkExpr) awkValue {
	switch e := e.(type) {
	case *spec.AwkField:
		return env.field(int(env.eval(e.Index).num()))
	case *spec.AwkVar:
		return env.vars[e.Name]
	case *spec.AwkString:
		return awkStr(e.Value)
	case *spec.AwkNumber:
		return awkNum(e.Value)
	case *spec.AwkBinary:
		return env.binary(e)
	case *spec.AwkUnary:
		if e.Op == '-' {
			return awkNum(-env.eval(e.X).num())
		}
		return awkBool(!env.eval(e.X).truthy())
	case *spec.AwkMatch:
		return awkBool(e.Re.MatchString(env.eval(e.X).str()) != e.Negate)
	case *spec.AwkCall:
		return env.call(e.Func, env.evalAll(e.Args))
	}
	panic(fmt.Sprintf("awk: unknown expression %T", e))
}

func (env *awkEnv) binary(e *spec.AwkBinary) awkValue {
	l := env.eval(e.L)
	switch e.Op { // short-circuit logical operators
	case "&&", "||":
		if l.truthy() == (e.Op == "||") {
			return awkBool(l.truthy())
		}
		return awkBool(env.eval(e.R).truthy())
	}
	r := env.eval(e.R)
	switch e.Op {
	case "+":
		return awkNum(l.num() + r.num())
	case "-":
		return awkNum(l.num() - r.num())
	case "*":
		return awkNum(l.num() * r.num())
	case "/":
		return awkNum(l.num() / r.num())
	case "%":
		li, ri := int64(l.num()), int64(r.num())
		if ri == 0 {
			env.fail(fmt.Errorf("division by zero"))
			return awkNum(0)
		}
		return awkNum(float64(li % ri))
	case "concat":
		return awkStr(l.str() + r.str())
	}
	// Comparisons: numeric when both sides are numeric, else string.
	var cmp int
	if (l.isNum || awkStrnum(l.s).isNum) && (r.isNum || awkStrnum(r.s).isNum) {
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
	switch e.Op {
	case "<":
		return awkBool(cmp < 0)
	case "<=":
		return awkBool(cmp <= 0)
	case ">":
		return awkBool(cmp > 0)
	case ">=":
		return awkBool(cmp >= 0)
	case "==":
		return awkBool(cmp == 0)
	}
	return awkBool(cmp != 0) // !=
}

// call runs a builtin function, whose arity the parser checked.
func (env *awkEnv) call(name string, vals []awkValue) awkValue {
	switch name {
	case "length":
		if len(vals) == 0 {
			return awkNum(float64(len(env.record)))
		}
		return awkNum(float64(len(vals[0].str())))
	case "substr":
		s := vals[0].str()
		start := max(int(vals[1].num())-1, 0)
		if start > len(s) {
			return awkStr("")
		}
		end := len(s)
		if len(vals) == 3 {
			end = min(max(start+int(vals[2].num()), start), len(s))
		}
		return awkStr(s[start:end])
	case "toupper":
		return awkStr(strings.ToUpper(vals[0].str()))
	case "tolower":
		return awkStr(strings.ToLower(vals[0].str()))
	}
	return awkNum(float64(int64(vals[0].num()))) // int
}

// awkFormat renders an awk printf format: %s %d %i %f %e %g %x %o %c %%
// with flags/width/precision passed through to fmt. spec.CheckAwkFormat
// decides which conversions exist.
func awkFormat(format string, vals []awkValue) (string, error) {
	if err := spec.CheckAwkFormat(format); err != nil {
		return "", err
	}
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
		}
	}
	return b.String(), nil
}
