package expand

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"
)

// Arithmetic expansion. compileArith is the only reader of $((...)) text
// in the module: it parses the POSIX grammar once into a closure tree
// (an ArithExpr), which the expander and the interpreter's word plans
// evaluate and whose Names the analyses read. The grammar is dash's:
//
//	assignment: NAME (= | op=) assignment | cond
//	cond:       binary [ ? assignment : cond ]
//	binary:     unary { op binary }      precedence from arithOps
//	unary:      (+ | - | ! | ~) unary | primary
//	primary:    NUMBER | NAME | $NAME | ( assignment )
//
// ||, && and ?: evaluate only the operands they need, as C and POSIX
// require: an assignment or a division by zero in the untaken operand
// does not happen.

// arithOp is one binary operator: its spelling, its precedence (higher
// binds tighter), what it computes, and whether spelling+"=" is a compound
// assignment. fn is nil for the two short-circuit operators, whose right
// operand may not run.
type arithOp struct {
	sym    string
	prec   int
	fn     func(a, b int64) int64
	assign bool
}

var arithOps = []arithOp{
	{"||", 1, nil, false},
	{"&&", 2, nil, false},
	{"|", 3, func(a, b int64) int64 { return a | b }, true},
	{"^", 4, func(a, b int64) int64 { return a ^ b }, true},
	{"&", 5, func(a, b int64) int64 { return a & b }, true},
	{"==", 6, func(a, b int64) int64 { return boolToInt(a == b) }, false},
	{"!=", 6, func(a, b int64) int64 { return boolToInt(a != b) }, false},
	{"<", 7, func(a, b int64) int64 { return boolToInt(a < b) }, false},
	{"<=", 7, func(a, b int64) int64 { return boolToInt(a <= b) }, false},
	{">", 7, func(a, b int64) int64 { return boolToInt(a > b) }, false},
	{">=", 7, func(a, b int64) int64 { return boolToInt(a >= b) }, false},
	{"<<", 8, func(a, b int64) int64 { return a << uint(b) }, true},
	{">>", 8, func(a, b int64) int64 { return a >> uint(b) }, true},
	{"+", 9, func(a, b int64) int64 { return a + b }, true},
	{"-", 9, func(a, b int64) int64 { return a - b }, true},
	{"*", 10, func(a, b int64) int64 { return a * b }, true},
	{"/", 10, func(a, b int64) int64 { return a / b }, true},
	{"%", 10, func(a, b int64) int64 { return a % b }, true},
}

// apply computes a op b; the two dividing operators refuse a zero divisor.
func (op *arithOp) apply(a, b int64) (int64, error) {
	if b == 0 && (op.sym == "/" || op.sym == "%") {
		return 0, errors.New("arithmetic: division by zero")
	}
	return op.fn(a, b), nil
}

func boolToInt(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// arithEnv carries the variable bindings one evaluation runs against.
type arithEnv struct {
	lookup func(string) string
	assign func(string, string) error
}

// varValue reads a variable as an integer; unset and non-numeric values
// read as 0.
func (e *arithEnv) varValue(name string) int64 {
	if e.lookup == nil {
		return 0
	}
	v, err := strconv.ParseInt(strings.TrimSpace(e.lookup(name)), 0, 64)
	if err != nil {
		return 0
	}
	return v
}

// arithFn is one compiled (sub)expression.
type arithFn func(*arithEnv) (int64, error)

// ArithExpr is a compiled arithmetic expression, safe for repeated and
// concurrent evaluation against different variable bindings.
type ArithExpr struct {
	fn             arithFn
	reads, assigns []string
	// spliced are the reads written $NAME: by the time the expression is
	// compiled for evaluation, expansion has pasted the value in as text.
	spliced []string
}

// Eval runs the expression. Variables resolve through lookup (nil, unset
// or non-numeric reads as 0); assignments call assign (nil discards them),
// whose error — a readonly target — aborts the evaluation.
func (a *ArithExpr) Eval(lookup func(string) string, assign func(string, string) error) (int64, error) {
	return a.fn(&arithEnv{lookup: lookup, assign: assign})
}

// Names lists the variables the expression can read and the ones it can
// assign, each once, in order of appearance — whether or not a given
// evaluation reaches them. `x=1` assigns x without reading it; `x+=1`
// does both; `$x` reads x (its value is spliced in before evaluation). The
// slices belong to the shared compiled expression: read, do not modify.
func (a *ArithExpr) Names() (reads, assigns []string) { return a.reads, a.assigns }

// The compiled-expression cache is keyed by expression text and bounded by
// epoch eviction: the whole map resets when full, which a shell workload —
// a small set of hot loop expressions — never hits in practice.
const maxArithCache = 4096

type arithCacheEntry struct {
	expr *ArithExpr
	err  error
}

var (
	arithCacheMu sync.Mutex
	arithCache   = map[string]arithCacheEntry{}
)

// CompileArithExpr compiles (or fetches from the shared cache) the given
// expression text. An error means the text is not an arithmetic expression
// as it stands — a syntax error, or `${...}`, `$(...)` or a backquote that
// expansion has yet to replace.
func CompileArithExpr(expr string) (*ArithExpr, error) {
	arithCacheMu.Lock()
	e, ok := arithCache[expr]
	arithCacheMu.Unlock()
	if ok {
		return e.expr, e.err
	}
	e.expr, e.err = compileArith(expr)
	arithCacheMu.Lock()
	if len(arithCache) >= maxArithCache {
		arithCache = map[string]arithCacheEntry{}
	}
	arithCache[expr] = e
	arithCacheMu.Unlock()
	return e.expr, e.err
}

func compileArith(src string) (*ArithExpr, error) {
	c := &arithCompiler{src: src}
	fn, err := c.assignment()
	if err != nil {
		return nil, err
	}
	if c.skip(); c.pos != len(c.src) {
		return nil, fmt.Errorf("arithmetic: unexpected %q", c.src[c.pos:])
	}
	return &ArithExpr{fn: fn, reads: c.reads, assigns: c.assigns, spliced: c.spliced}, nil
}

type arithCompiler struct {
	src                     string
	pos                     int
	reads, assigns, spliced []string
}

func addName(names []string, name string) []string {
	for _, n := range names {
		if n == name {
			return names
		}
	}
	return append(names, name)
}

func (c *arithCompiler) skip() {
	for c.pos < len(c.src) && strings.IndexByte(" \t\n", c.src[c.pos]) >= 0 {
		c.pos++
	}
}

// eat consumes ch if it is the next non-blank character.
func (c *arithCompiler) eat(ch byte) bool {
	if c.skip(); c.pos < len(c.src) && c.src[c.pos] == ch {
		c.pos++
		return true
	}
	return false
}

// name consumes an identifier, or returns "" and consumes nothing.
func (c *arithCompiler) name() string {
	start := c.pos
	for c.pos < len(c.src) {
		b := c.src[c.pos]
		if b == '_' || (b >= 'a' && b <= 'z') || (b >= 'A' && b <= 'Z') ||
			(c.pos > start && b >= '0' && b <= '9') {
			c.pos++
			continue
		}
		break
	}
	return c.src[start:c.pos]
}

// binaryOp returns the longest operator spelled at the cursor, or nil.
func (c *arithCompiler) binaryOp() *arithOp {
	c.skip()
	var best *arithOp
	for i := range arithOps {
		op := &arithOps[i]
		if strings.HasPrefix(c.src[c.pos:], op.sym) && (best == nil || len(op.sym) > len(best.sym)) {
			best = op
		}
	}
	return best
}

// assignOp recognizes `=` (op nil) or a compound `op=` at the cursor and
// returns its length, 0 when there is neither (`==` is a comparison).
func (c *arithCompiler) assignOp() (op *arithOp, n int) {
	c.skip()
	rest := c.src[c.pos:]
	if strings.HasPrefix(rest, "=") && !strings.HasPrefix(rest, "==") {
		return nil, 1
	}
	if op := c.binaryOp(); op != nil && op.assign && strings.HasPrefix(rest[len(op.sym):], "=") {
		return op, len(op.sym) + 1
	}
	return nil, 0
}

func (c *arithCompiler) assignment() (arithFn, error) {
	c.skip()
	start := c.pos
	name := c.name()
	op, n := c.assignOp()
	if name == "" || n == 0 {
		c.pos = start
		return c.cond()
	}
	c.pos += n
	c.assigns = addName(c.assigns, name)
	if op != nil {
		c.reads = addName(c.reads, name)
	}
	rhs, err := c.assignment()
	if err != nil {
		return nil, err
	}
	return func(e *arithEnv) (int64, error) {
		// The right-hand side runs before the current value is read.
		v, err := rhs(e)
		if err != nil {
			return 0, err
		}
		if op != nil {
			if v, err = op.apply(e.varValue(name), v); err != nil {
				return 0, err
			}
		}
		if e.assign != nil {
			err = e.assign(name, strconv.FormatInt(v, 10))
		}
		return v, err
	}, nil
}

func (c *arithCompiler) cond() (arithFn, error) {
	test, err := c.binary(1)
	if err != nil || !c.eat('?') {
		return test, err
	}
	then, err := c.assignment()
	if err != nil {
		return nil, err
	}
	if !c.eat(':') {
		return nil, fmt.Errorf("arithmetic: missing ':' in ?:")
	}
	els, err := c.cond()
	if err != nil {
		return nil, err
	}
	return func(e *arithEnv) (int64, error) {
		v, err := test(e)
		if err != nil {
			return 0, err
		}
		if v != 0 {
			return then(e)
		}
		return els(e)
	}, nil
}

// binary parses a left-associative chain of operators of at least minPrec.
func (c *arithCompiler) binary(minPrec int) (arithFn, error) {
	l, err := c.unary()
	if err != nil {
		return nil, err
	}
	for {
		op := c.binaryOp()
		if op == nil || op.prec < minPrec {
			return l, nil
		}
		c.pos += len(op.sym)
		r, err := c.binary(op.prec + 1)
		if err != nil {
			return nil, err
		}
		lf := l
		if op.fn != nil {
			l = func(e *arithEnv) (int64, error) {
				lv, err := lf(e)
				if err != nil {
					return 0, err
				}
				rv, err := r(e)
				if err != nil {
					return 0, err
				}
				return op.apply(lv, rv)
			}
			continue
		}
		isOr := op.sym == "||"
		l = func(e *arithEnv) (int64, error) {
			lv, err := lf(e)
			if err != nil {
				return 0, err
			}
			if (lv != 0) == isOr {
				return boolToInt(isOr), nil // decided: r does not run
			}
			rv, err := r(e)
			return boolToInt(rv != 0), err
		}
	}
}

func (c *arithCompiler) unary() (arithFn, error) {
	c.skip()
	var fn func(int64) int64
	switch rest := c.src[c.pos:]; {
	case strings.HasPrefix(rest, "+"):
		fn = func(v int64) int64 { return v }
	case strings.HasPrefix(rest, "-"):
		fn = func(v int64) int64 { return -v }
	case strings.HasPrefix(rest, "~"):
		fn = func(v int64) int64 { return ^v }
	case strings.HasPrefix(rest, "!") && !strings.HasPrefix(rest, "!="):
		fn = func(v int64) int64 { return boolToInt(v == 0) }
	default:
		return c.primary()
	}
	c.pos++
	operand, err := c.unary()
	if err != nil {
		return nil, err
	}
	return func(e *arithEnv) (int64, error) {
		v, err := operand(e)
		return fn(v), err
	}, nil
}

func (c *arithCompiler) primary() (arithFn, error) {
	if c.pos >= len(c.src) {
		return nil, fmt.Errorf("arithmetic: unexpected end of expression")
	}
	ch := c.src[c.pos]
	switch {
	case ch == '(':
		c.pos++
		v, err := c.assignment()
		if err != nil {
			return nil, err
		}
		if !c.eat(')') {
			return nil, fmt.Errorf("arithmetic: missing )")
		}
		return v, nil
	case ch >= '0' && ch <= '9':
		// Decimal, octal (leading 0) or hex (0x); out of range saturates.
		start, digits := c.pos, "0123456789"
		if rest := c.src[c.pos:]; strings.HasPrefix(rest, "0x") || strings.HasPrefix(rest, "0X") {
			c.pos, digits = c.pos+2, "0123456789abcdefABCDEF"
		}
		for c.pos < len(c.src) && strings.IndexByte(digits, c.src[c.pos]) >= 0 {
			c.pos++
		}
		v, err := strconv.ParseUint(c.src[start:c.pos], 0, 63)
		if err != nil && !errors.Is(err, strconv.ErrRange) {
			return nil, fmt.Errorf("arithmetic: bad number %q", c.src[start:c.pos])
		}
		return func(*arithEnv) (int64, error) { return int64(v), nil }, nil
	}
	if ch == '$' {
		c.pos++ // $name: expansion splices the value in; it is a read
	}
	name := c.name()
	if name == "" {
		return nil, fmt.Errorf("arithmetic: unexpected character %q", string(ch))
	}
	c.reads = addName(c.reads, name)
	if ch == '$' {
		c.spliced = addName(c.spliced, name)
	}
	return func(e *arithEnv) (int64, error) { return e.varValue(name), nil }, nil
}
