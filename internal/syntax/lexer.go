package syntax

import "strings"

// isWordEnd reports whether c terminates an unquoted word.
func isWordEnd(c byte) bool {
	switch c {
	case 0, ' ', '\t', '\n', ';', '&', '|', '(', ')', '<', '>':
		return true
	}
	return false
}

// quoting is the text readParts reads: an unquoted word; the operand of
// ${x op word}, read as a word is, or under double-quote rules when the
// expansion is itself double-quoted and op is not a trim; or text under
// double-quote rules — a "..." string, an unquoted here-document body,
// where `"` is an ordinary character, or the text of $((...)), where `\`
// is one too.
type quoting uint8

const (
	qWord quoting = iota
	qOperand
	qDquoteOperand
	qDquote
	qHeredoc
	qArith
)

// dquoted reports whether q reads under double-quote rules: `'` is text,
// and `\` quotes only the characters special reports.
func (q quoting) dquoted() bool { return q >= qDquoteOperand }

// special reports whether c, under double-quote rules, needs a backslash
// to be text: a `\c` of any other c is those two characters.
func (q quoting) special(c byte) bool {
	switch c {
	case '$', '`', '\\':
		return q != qArith
	case '"':
		return q == qDquote || q == qDquoteOperand
	case '}':
		return q == qDquoteOperand
	}
	return false
}

// readWord reads one word token: a maximal sequence of literal characters,
// quoted strings, and expansions.
func (p *parser) readWord() *Word {
	w := &Word{Position: p.here()}
	w.Parts = p.readParts(qWord, w.Position)
	if len(w.Parts) == 0 {
		p.errf(w.Position, "empty word")
	}
	return w
}

// readParts reads word parts under q, resolving each backslash where it
// reads it: an unquoted `\c` is the escaped SglQuoted c, and a Lit holds
// its value (`"\$"` is `$`), so no later layer takes a backslash for
// quoting. open is where an unterminated string or operand began; a
// "..." string or an operand consumes its closing `"` or `}`.
func (p *parser) readParts(q quoting, open Pos) []WordPart {
	var parts []WordPart
	var lit strings.Builder
	litPos := p.here()
	flush := func() {
		if lit.Len() > 0 {
			parts = append(parts, &Lit{Value: lit.String(), Position: litPos})
			lit.Reset()
		}
	}
	add := func(part WordPart) {
		flush()
		parts = append(parts, part)
		litPos = p.here()
	}
	operand := q == qOperand || q == qDquoteOperand
	depth := 0
	for p.pos < len(p.src) {
		c := p.peekByte()
		switch {
		case q == qWord && isWordEnd(c):
			flush()
			return parts
		case q == qDquote && c == '"', operand && c == '}' && depth == 0:
			p.advance()
			flush()
			return parts
		case c == '\\' && q != qArith:
			pos := p.here()
			p.advance()
			switch {
			case p.pos >= len(p.src):
				// A backslash at the end of the text quotes nothing: it
				// is text, and prints back as `\\`.
				if q.dquoted() {
					lit.WriteByte('\\')
				} else {
					add(&SglQuoted{Value: `\`, Escaped: true, Position: pos})
				}
			case p.peekByte() == '\n':
				p.advance() // line continuation disappears
			case !q.dquoted():
				p.advance()
				add(&SglQuoted{Value: p.src[p.pos-1 : p.pos], Escaped: true, Position: pos})
			case q.special(p.peekByte()):
				lit.WriteByte(p.advance())
			default:
				lit.WriteByte('\\')
				lit.WriteByte(p.advance())
			}
		case c == '\'' && !q.dquoted():
			pos := p.here()
			p.advance()
			start := p.pos
			for p.pos < len(p.src) && p.peekByte() != '\'' {
				p.advance()
			}
			if p.pos >= len(p.src) {
				p.errf(pos, "unterminated single-quoted string")
			}
			val := p.src[start:p.pos]
			p.advance()
			add(&SglQuoted{Value: val, Position: pos})
		case c == '"' && q != qHeredoc && q != qArith:
			pos := p.here()
			p.advance()
			add(&DblQuoted{Parts: p.readParts(qDquote, pos), Position: pos})
		case c == '$':
			pos := p.here()
			if part := p.readDollar(q.dquoted()); part != nil {
				add(part)
				continue
			}
			p.advance()
			if q.dquoted() {
				lit.WriteByte('$')
			} else {
				// Unquoted, a dollar that starts no expansion is kept
				// escaped, so printing cannot fuse it with a following
				// part into `$$` or `$(`.
				add(&SglQuoted{Value: "$", Escaped: true, Position: pos})
			}
		case c == '`':
			add(p.readBackquote())
		default:
			if operand && c == '{' {
				depth++
			} else if operand && c == '}' {
				depth--
			}
			p.advance()
			lit.WriteByte(c)
		}
	}
	switch q {
	case qDquote:
		p.errf(open, "unterminated double-quoted string")
	case qOperand, qDquoteOperand:
		p.errf(open, "unterminated ${...} expansion")
	}
	flush()
	return parts
}

// isSpecialParam reports single-character special parameters.
func isSpecialParam(c byte) bool {
	switch c {
	case '@', '*', '#', '?', '-', '$', '!':
		return true
	}
	return c >= '0' && c <= '9'
}

// readDollar reads a $-introduced expansion. Returns nil when the dollar is
// literal (e.g. `$` at end of word, `$,`). The caller has NOT consumed '$'.
func (p *parser) readDollar(inDquote bool) WordPart {
	pos := p.here()
	next := p.byteAt(1)
	switch {
	case next == '(':
		if p.byteAt(2) == '(' {
			return p.readArith(pos)
		}
		return p.readCmdSubst(pos)
	case next == '{':
		return p.readBracedParam(pos, inDquote)
	case next == '_' || (next >= 'a' && next <= 'z') || (next >= 'A' && next <= 'Z'):
		p.advance() // $
		start := p.pos
		for p.pos < len(p.src) {
			c := p.peekByte()
			if c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') {
				p.advance()
				continue
			}
			break
		}
		return &ParamExp{Name: p.src[start:p.pos], Position: pos}
	case isSpecialParam(next):
		p.advance() // $
		c := p.advance()
		return &ParamExp{Name: string(c), Position: pos}
	}
	return nil
}

// readArith reads $((expr)) with the cursor on '$'.
func (p *parser) readArith(pos Pos) WordPart {
	p.advance() // $
	p.advance() // (
	p.advance() // (
	depth := 0
	start, startPos := p.pos, p.here()
	for {
		if p.pos >= len(p.src) {
			p.errf(pos, "unterminated arithmetic expansion")
		}
		c := p.peekByte()
		if c == '(' {
			depth++
		} else if c == ')' {
			if depth == 0 {
				if p.byteAt(1) == ')' {
					a := arithExp(p.src[start:p.pos], startPos)
					a.Position = pos
					p.advance()
					p.advance()
					return a
				}
				p.errf(pos, "expected '))' to close arithmetic expansion")
			}
			depth--
		}
		p.advance()
	}
}

// arithExp builds the node for the text of a $((...)) whose first byte is at
// start, parsing the text once when it has expansions to run.
func arithExp(expr string, start Pos) *ArithExp {
	a := &ArithExp{Expr: expr}
	if strings.ContainsAny(expr, "$`") {
		sub := &parser{src: expr, line: start.Line, col: start.Col, base: start.Offset}
		a.Parts = sub.readParts(qArith, start)
	}
	return a
}

// NewArithExp returns the node the parser builds for `$((expr))`, or the
// syntax error it reports: how code outside the parser makes one.
func NewArithExp(expr string) (a *ArithExp, err error) {
	err = newParser("").catch(func() { a = arithExp(expr, Pos{Line: 1, Col: 1}) })
	return a, err
}

// readCmdSubst reads $( stmts ) with the cursor on '$', parsing the body
// recursively with the full grammar (so nested quotes, cases, and further
// substitutions all work).
func (p *parser) readCmdSubst(pos Pos) WordPart {
	p.advance() // $
	p.advance() // (
	// Recursive parse: share the cursor, parse until tRParen.
	saveTok := p.tok
	saveTokPos := p.tokPos
	p.next()
	stmts := p.stmtList(tRParen)
	if p.tok.kind != tRParen {
		p.errf(pos, "unterminated command substitution")
	}
	// Restore: cursor now sits right after ')' thanks to how the token was
	// scanned; the parser's token must be rewound for the caller, which is
	// still mid-word. The ')' token has been scanned but not consumed, so
	// the cursor is already positioned after it.
	p.tok = saveTok
	p.tokPos = saveTokPos
	return &CmdSubst{Stmts: stmts, Position: pos}
}

// readBackquote reads `...` command substitution with the cursor on '`'.
// The body is collected textually (processing \`, \\, \$ per POSIX) and
// parsed recursively.
func (p *parser) readBackquote() WordPart {
	pos := p.here()
	p.advance() // `
	var body strings.Builder
	for {
		if p.pos >= len(p.src) {
			p.errf(pos, "unterminated backquoted command substitution")
		}
		c := p.advance()
		if c == '`' {
			break
		}
		if c == '\\' && p.pos < len(p.src) {
			n := p.peekByte()
			if n == '`' || n == '\\' || n == '$' {
				p.advance()
				body.WriteByte(n)
				continue
			}
		}
		body.WriteByte(c)
	}
	sub, err := Parse(body.String())
	if err != nil {
		p.errf(pos, "in backquoted substitution: %v", err)
	}
	return &CmdSubst{Stmts: sub.Stmts, Backquote: true, Position: pos}
}

// readBracedParam reads ${...} with the cursor on '$'. In a double-quoted
// ${x-w}, ${x=w}, ${x?w} or ${x+w}, the operand w is read under
// double-quote rules; a trim's pattern is read as a word is.
func (p *parser) readBracedParam(pos Pos, inDquote bool) WordPart {
	p.advance() // $
	p.advance() // {
	pe := &ParamExp{Brace: true, Position: pos}
	if p.peekByte() == '#' && p.byteAt(1) != '}' && !isParamOpStart(p.byteAt(1)) {
		// ${#name} length operator (but ${#} is $# and ${#-...} is on '#').
		p.advance()
		pe.Op = ParamLength
	}
	// Parameter name: NAME, digits, or special char.
	nameStart := p.pos
	c := p.peekByte()
	switch {
	case c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z'):
		for p.pos < len(p.src) {
			c := p.peekByte()
			if c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') {
				p.advance()
				continue
			}
			break
		}
	case c >= '0' && c <= '9':
		for p.pos < len(p.src) && p.peekByte() >= '0' && p.peekByte() <= '9' {
			p.advance()
		}
	case c == '@' || c == '*' || c == '#' || c == '?' || c == '-' || c == '$' || c == '!':
		p.advance()
	default:
		p.errf(pos, "bad parameter name in ${...}")
	}
	pe.Name = p.src[nameStart:p.pos]
	if p.peekByte() == '}' {
		p.advance()
		return pe
	}
	if pe.Op == ParamLength {
		p.errf(pos, "unexpected text after ${#%s", pe.Name)
	}
	// Operator.
	if p.peekByte() == ':' {
		pe.Colon = true
		p.advance()
	}
	switch p.peekByte() {
	case '-':
		pe.Op = ParamDefault
	case '=':
		pe.Op = ParamAssign
	case '?':
		pe.Op = ParamError
	case '+':
		pe.Op = ParamAlt
	case '%':
		if pe.Colon {
			p.errf(pos, "':' not allowed before '%%' in ${...}")
		}
		if p.byteAt(1) == '%' {
			p.advance()
			pe.Op = ParamTrimSuffixLong
		} else {
			pe.Op = ParamTrimSuffix
		}
	case '#':
		if pe.Colon {
			p.errf(pos, "':' not allowed before '#' in ${...}")
		}
		if p.byteAt(1) == '#' {
			p.advance()
			pe.Op = ParamTrimPrefixLong
		} else {
			pe.Op = ParamTrimPrefix
		}
	default:
		p.errf(pos, "bad substitution operator in ${%s...}", pe.Name)
	}
	p.advance()
	pe.Word = &Word{Position: p.here()}
	pe.Word.Parts = p.readParts(operandQuoting(pe.Op, inDquote), pos)
	return pe
}

// operandQuoting is how the operand of op is read.
func operandQuoting(op ParamOp, inDquote bool) quoting {
	if inDquote && op < ParamTrimSuffix {
		return qDquoteOperand
	}
	return qOperand
}

func isParamOpStart(c byte) bool {
	switch c {
	case '-', '=', '?', '+', '%', '#', ':':
		return true
	}
	return false
}
