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

// readWord reads one word token: a maximal sequence of literal characters,
// quoted strings, and expansions.
func (p *parser) readWord() *Word {
	w := &Word{Position: p.here()}
	var lit strings.Builder
	litPos := p.here()
	flushLit := func() {
		if lit.Len() > 0 {
			w.Parts = append(w.Parts, &Lit{Value: lit.String(), Position: litPos})
			lit.Reset()
		}
	}
	for p.pos < len(p.src) {
		c := p.peekByte()
		if isWordEnd(c) {
			break
		}
		switch c {
		case '\\':
			p.advance()
			if p.pos >= len(p.src) {
				// A backslash at EOF quotes itself, so the word holds a
				// literal backslash and printing round-trips.
				lit.WriteString(`\\`)
				break
			}
			esc := p.advance()
			if esc == '\n' {
				continue // line continuation disappears
			}
			// Keep the backslash so expansion/pattern layers see quoting.
			lit.WriteByte('\\')
			lit.WriteByte(esc)
		case '\'':
			flushLit()
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
			w.Parts = append(w.Parts, &SglQuoted{Value: val, Position: pos})
			litPos = p.here()
		case '"':
			flushLit()
			w.Parts = append(w.Parts, p.readDblQuoted(dqString))
			litPos = p.here()
		case '$':
			part := p.readDollar(false)
			if part == nil {
				p.advance()
				// Store the non-expansion dollar escaped so printing cannot
				// fuse it with a following part into `$$` or `$(`.
				lit.WriteString(`\$`)
			} else {
				flushLit()
				w.Parts = append(w.Parts, part)
				litPos = p.here()
			}
		case '`':
			flushLit()
			w.Parts = append(w.Parts, p.readBackquote())
			litPos = p.here()
		default:
			p.advance()
			lit.WriteByte(c)
		}
	}
	flushLit()
	if len(w.Parts) == 0 {
		p.errf(w.Position, "empty word")
	}
	return w
}

// dqMode is what readDblQuoted reads: a "..." string, or the whole of p.src
// under the same rules — an unquoted here-document body, where `"` is an
// ordinary character (so `\"` keeps its backslash), or the text of $((...)),
// where `\` is one too.
type dqMode uint8

const (
	dqString dqMode = iota
	dqHeredoc
	dqArith
)

// readDblQuoted reads double-quoted parts in the given mode, starting at the
// opening quote of a dqString.
func (p *parser) readDblQuoted(mode dqMode) *DblQuoted {
	pos := p.here()
	if mode == dqString {
		p.advance() // consume "
	}
	dq := &DblQuoted{Position: pos}
	var lit strings.Builder
	litPos := p.here()
	flushLit := func() {
		if lit.Len() > 0 {
			dq.Parts = append(dq.Parts, &Lit{Value: lit.String(), Position: litPos})
			lit.Reset()
		}
	}
	for {
		if p.pos >= len(p.src) {
			if mode != dqString {
				flushLit()
				return dq
			}
			p.errf(pos, "unterminated double-quoted string")
		}
		c := p.peekByte()
		switch {
		case c == '"' && mode == dqString:
			p.advance()
			flushLit()
			return dq
		case c == '\\' && mode == dqArith:
			p.advance()
			// Escaped for the expansion layer, which resolves it to one
			// backslash of text.
			lit.WriteString(`\\`)
		case c == '\\' && p.pos+1 < len(p.src):
			p.advance()
			esc := p.advance()
			switch {
			case esc == '\n':
				// line continuation
			case esc == '"' && mode == dqHeredoc:
				// The expansion layer unescapes \" too; here the backslash
				// is text.
				lit.WriteString(`\\"`)
			default:
				// The escape survives for the expansion layer to interpret.
				lit.WriteByte('\\')
				lit.WriteByte(esc)
			}
		case c == '$':
			part := p.readDollar(true)
			if part == nil {
				p.advance()
				// Store the non-expansion dollar escaped so printing cannot
				// fuse it with a following part into `$$` or `$(`.
				lit.WriteString(`\$`)
			} else {
				flushLit()
				dq.Parts = append(dq.Parts, part)
				litPos = p.here()
			}
		case c == '`':
			flushLit()
			dq.Parts = append(dq.Parts, p.readBackquote())
			litPos = p.here()
		default:
			p.advance()
			lit.WriteByte(c)
		}
	}
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
		return p.readBracedParam(pos)
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
		a.Parts = sub.readDblQuoted(dqArith).Parts
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

// readBracedParam reads ${...} with the cursor on '$'.
func (p *parser) readBracedParam(pos Pos) WordPart {
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
	pe.Word = p.readBracedWord(pos)
	return pe
}

func isParamOpStart(c byte) bool {
	switch c {
	case '-', '=', '?', '+', '%', '#', ':':
		return true
	}
	return false
}

// readBracedWord reads the operand word of a ${name op word} expansion up to
// the closing '}'. The operand may itself contain quotes and expansions.
func (p *parser) readBracedWord(open Pos) *Word {
	w := &Word{Position: p.here()}
	var lit strings.Builder
	litPos := p.here()
	flushLit := func() {
		if lit.Len() > 0 {
			w.Parts = append(w.Parts, &Lit{Value: lit.String(), Position: litPos})
			lit.Reset()
		}
	}
	depth := 0
	for {
		if p.pos >= len(p.src) {
			p.errf(open, "unterminated ${...} expansion")
		}
		c := p.peekByte()
		switch c {
		case '}':
			if depth == 0 {
				p.advance()
				flushLit()
				return w
			}
			depth--
			p.advance()
			lit.WriteByte(c)
		case '{':
			depth++
			p.advance()
			lit.WriteByte(c)
		case '\\':
			p.advance()
			if p.pos < len(p.src) {
				esc := p.advance()
				if esc != '\n' {
					lit.WriteByte('\\')
					lit.WriteByte(esc)
				}
			}
		case '\'':
			flushLit()
			pos := p.here()
			p.advance()
			start := p.pos
			for p.pos < len(p.src) && p.peekByte() != '\'' {
				p.advance()
			}
			if p.pos >= len(p.src) {
				p.errf(pos, "unterminated single-quoted string")
			}
			w.Parts = append(w.Parts, &SglQuoted{Value: p.src[start:p.pos], Position: pos})
			p.advance()
			litPos = p.here()
		case '"':
			flushLit()
			w.Parts = append(w.Parts, p.readDblQuoted(dqString))
			litPos = p.here()
		case '$':
			part := p.readDollar(false)
			if part == nil {
				p.advance()
				// Store the non-expansion dollar escaped so printing cannot
				// fuse it with a following part into `$$` or `$(`.
				lit.WriteString(`\$`)
			} else {
				flushLit()
				w.Parts = append(w.Parts, part)
				litPos = p.here()
			}
		case '`':
			flushLit()
			w.Parts = append(w.Parts, p.readBackquote())
			litPos = p.here()
		default:
			p.advance()
			lit.WriteByte(c)
		}
	}
}
