package syntax

import (
	"fmt"
	"strings"
)

// ParseError describes a syntax error with its source position.
type ParseError struct {
	Position Pos
	Msg      string
}

func (e *ParseError) Error() string {
	return fmt.Sprintf("syntax error at %s: %s", e.Position, e.Msg)
}

// Parse parses a complete shell program.
func Parse(src string) (*Script, error) {
	p := newParser(src)
	var script *Script
	err := p.catch(func() {
		p.next()
		script = &Script{Stmts: p.stmtList(tEOF)}
		p.expect(tEOF)
	})
	if err != nil {
		return nil, err
	}
	return script, nil
}

// ParseCommand parses a single complete command (one "line" in the JIT's
// line-oriented sense): statements up to the first unescaped newline that
// ends a complete command. It returns the parsed statements and the number
// of input bytes consumed, so callers can feed a stream incrementally.
func ParseCommand(src string) (stmts []*Stmt, consumed int, err error) {
	p := newParser(src)
	err = p.catch(func() {
		p.next()
		for p.tok.kind == tNewline {
			p.next()
		}
		if p.tok.kind == tEOF {
			consumed = p.pos
			return
		}
		for p.tok.kind != tEOF && p.tok.kind != tNewline {
			stmts = append(stmts, p.stmt())
		}
		// Consume the terminating newline (gathers heredocs).
		if p.tok.kind == tNewline {
			p.next()
		}
		consumed = p.tokPos.Offset
	})
	return stmts, consumed, err
}

type tokKind int

const (
	tEOF tokKind = iota
	tNewline
	tWord
	tAnd       // &
	tAndAnd    // &&
	tOr        // |
	tOrOr      // ||
	tSemi      // ;
	tDSemi     // ;;
	tLParen    // (
	tRParen    // )
	tLess      // <
	tGreat     // >
	tDGreat    // >>
	tClobber   // >|
	tDLess     // <<
	tDLessDash // <<-
	tLessAnd   // <&
	tGreatAnd  // >&
	tLessGreat // <>
)

var tokNames = map[tokKind]string{
	tEOF: "end of input", tNewline: "newline", tWord: "word", tAnd: "&",
	tAndAnd: "&&", tOr: "|", tOrOr: "||", tSemi: ";", tDSemi: ";;",
	tLParen: "(", tRParen: ")", tLess: "<", tGreat: ">", tDGreat: ">>",
	tClobber: ">|", tDLess: "<<", tDLessDash: "<<-", tLessAnd: "<&",
	tGreatAnd: ">&", tLessGreat: "<>",
}

type token struct {
	kind tokKind
	word *Word // for tWord
	io   int   // IO number preceding a redirection op, or -1
	pos  Pos
}

type parser struct {
	src  string
	pos  int
	line int
	col  int
	// base is src's offset in the text positions are reported against: a
	// here-document body is lexed by a parser of its own.
	base int

	tok    token
	tokPos Pos // position where the current token started

	pendingHeredocs []*Redirect
}

func newParser(src string) *parser {
	return &parser{src: src, line: 1, col: 1}
}

type parseBail struct{ err *ParseError }

func (p *parser) catch(f func()) (err error) {
	defer func() {
		if r := recover(); r != nil {
			if b, ok := r.(parseBail); ok {
				err = b.err
				return
			}
			panic(r)
		}
	}()
	f()
	return nil
}

func (p *parser) errf(pos Pos, format string, args ...any) {
	panic(parseBail{&ParseError{Position: pos, Msg: fmt.Sprintf(format, args...)}})
}

func (p *parser) here() Pos { return Pos{Offset: p.base + p.pos, Line: p.line, Col: p.col} }

func (p *parser) peekByte() byte {
	if p.pos >= len(p.src) {
		return 0
	}
	return p.src[p.pos]
}

func (p *parser) byteAt(off int) byte {
	if p.pos+off >= len(p.src) {
		return 0
	}
	return p.src[p.pos+off]
}

func (p *parser) advance() byte {
	c := p.src[p.pos]
	p.pos++
	if c == '\n' {
		p.line++
		p.col = 1
	} else {
		p.col++
	}
	return c
}

func (p *parser) skipBlanksAndComments() {
	for p.pos < len(p.src) {
		c := p.src[p.pos]
		switch {
		case c == ' ' || c == '\t':
			p.advance()
		case c == '\\' && p.byteAt(1) == '\n':
			p.advance()
			p.advance()
		case c == '#':
			for p.pos < len(p.src) && p.src[p.pos] != '\n' {
				p.advance()
			}
			return
		default:
			return
		}
	}
}

// next scans the next token into p.tok.
func (p *parser) next() {
	p.skipBlanksAndComments()
	p.tokPos = p.here()
	if p.pos >= len(p.src) {
		if len(p.pendingHeredocs) > 0 {
			r := p.pendingHeredocs[0]
			p.errf(r.Position, "unterminated here-document %q", heredocDelimText(r.Target))
		}
		p.tok = token{kind: tEOF, io: -1, pos: p.tokPos}
		return
	}
	c := p.peekByte()
	switch c {
	case '\n':
		p.advance()
		p.gatherHeredocs()
		p.tok = token{kind: tNewline, io: -1, pos: p.tokPos}
		return
	case '&':
		p.advance()
		if p.peekByte() == '&' {
			p.advance()
			p.tok = token{kind: tAndAnd, io: -1, pos: p.tokPos}
		} else {
			p.tok = token{kind: tAnd, io: -1, pos: p.tokPos}
		}
		return
	case '|':
		p.advance()
		if p.peekByte() == '|' {
			p.advance()
			p.tok = token{kind: tOrOr, io: -1, pos: p.tokPos}
		} else {
			p.tok = token{kind: tOr, io: -1, pos: p.tokPos}
		}
		return
	case ';':
		p.advance()
		if p.peekByte() == ';' {
			p.advance()
			p.tok = token{kind: tDSemi, io: -1, pos: p.tokPos}
		} else {
			p.tok = token{kind: tSemi, io: -1, pos: p.tokPos}
		}
		return
	case '(':
		p.advance()
		p.tok = token{kind: tLParen, io: -1, pos: p.tokPos}
		return
	case ')':
		p.advance()
		p.tok = token{kind: tRParen, io: -1, pos: p.tokPos}
		return
	case '<', '>':
		p.tok = p.redirToken(-1)
		return
	}
	// IO number? digits immediately followed by < or >.
	if c >= '0' && c <= '9' {
		i := p.pos
		for i < len(p.src) && p.src[i] >= '0' && p.src[i] <= '9' {
			i++
		}
		if i < len(p.src) && (p.src[i] == '<' || p.src[i] == '>') {
			if i-p.pos > 9 {
				p.errf(p.tokPos, "file descriptor out of range")
			}
			n := 0
			for p.pos < i {
				n = n*10 + int(p.advance()-'0')
			}
			p.tok = p.redirToken(n)
			return
		}
	}
	w := p.readWord()
	p.tok = token{kind: tWord, word: w, io: -1, pos: p.tokPos}
}

func (p *parser) redirToken(ioNum int) token {
	pos := p.here()
	c := p.advance()
	var k tokKind
	if c == '<' {
		switch p.peekByte() {
		case '<':
			p.advance()
			if p.peekByte() == '-' {
				p.advance()
				k = tDLessDash
			} else {
				k = tDLess
			}
		case '&':
			p.advance()
			k = tLessAnd
		case '>':
			p.advance()
			k = tLessGreat
		default:
			k = tLess
		}
	} else {
		switch p.peekByte() {
		case '>':
			p.advance()
			k = tDGreat
		case '&':
			p.advance()
			k = tGreatAnd
		case '|':
			p.advance()
			k = tClobber
		default:
			k = tGreat
		}
	}
	return token{kind: k, io: ioNum, pos: pos}
}

func (p *parser) expect(k tokKind) {
	if p.tok.kind != k {
		p.errf(p.tok.pos, "expected %s, found %s", tokNames[k], p.describeTok())
	}
	if k != tEOF {
		p.next()
	}
}

func (p *parser) describeTok() string {
	if p.tok.kind == tWord {
		return fmt.Sprintf("%q", wordText(p.tok.word))
	}
	return tokNames[p.tok.kind]
}

// wordText approximates the source text of a word for error messages.
func wordText(w *Word) string {
	var b strings.Builder
	for _, part := range w.Parts {
		switch q := part.(type) {
		case *Lit:
			b.WriteString(q.Value)
		case *SglQuoted:
			b.WriteString("'" + q.Value + "'")
		case *DblQuoted:
			b.WriteString(`"..."`)
		case *ParamExp:
			b.WriteString("$" + q.Name)
		case *CmdSubst:
			b.WriteString("$(...)")
		case *ArithExp:
			b.WriteString("$((...))")
		}
	}
	return b.String()
}

// litTok returns the reserved-word text of the current token if it is a
// purely literal word, else "".
func (p *parser) litTok() string {
	if p.tok.kind != tWord {
		return ""
	}
	if len(p.tok.word.Parts) != 1 {
		return ""
	}
	l, ok := p.tok.word.Parts[0].(*Lit)
	if !ok || strings.ContainsAny(l.Value, "\\") {
		return ""
	}
	return l.Value
}

// --- grammar ---

func (p *parser) skipNewlines() {
	for p.tok.kind == tNewline {
		p.next()
	}
}

// stmtList parses statements until one of the terminator words/tokens.
// Terminators are not consumed.
func (p *parser) stmtList(end tokKind, stopWords ...string) []*Stmt {
	var stmts []*Stmt
	for {
		p.skipNewlines()
		if p.tok.kind == end || p.tok.kind == tEOF {
			return stmts
		}
		if p.tok.kind == tRParen || p.tok.kind == tDSemi {
			return stmts
		}
		if lit := p.litTok(); lit != "" {
			for _, sw := range stopWords {
				if lit == sw {
					return stmts
				}
			}
		}
		stmts = append(stmts, p.stmt())
	}
}

// compoundList parses a statement list that the grammar requires to be
// non-empty: if/while/for bodies and conditions, brace groups, subshells.
// POSIX shells reject e.g. `if then fi` and `{ }`.
func (p *parser) compoundList(what string, end tokKind, stopWords ...string) []*Stmt {
	stmts := p.stmtList(end, stopWords...)
	if len(stmts) == 0 {
		p.errf(p.tok.pos, "empty %s: expected a command, found %s", what, p.describeTok())
	}
	return stmts
}

// stmt parses one and-or list with its trailing separator (if any).
func (p *parser) stmt() *Stmt {
	pos := p.tok.pos
	ao := p.andOr()
	st := &Stmt{AndOr: ao, Position: pos}
	switch p.tok.kind {
	case tAnd:
		st.Background = true
		p.next()
	case tSemi:
		p.next()
	}
	return st
}

func (p *parser) andOr() *AndOr {
	ao := &AndOr{First: p.pipeline()}
	for {
		var op AndOrOp
		switch p.tok.kind {
		case tAndAnd:
			op = AndOp
		case tOrOr:
			op = OrOp
		default:
			return ao
		}
		p.next()
		p.skipNewlines()
		ao.Rest = append(ao.Rest, AndOrPart{Op: op, Pipe: p.pipeline()})
	}
}

func (p *parser) pipeline() *Pipeline {
	pos := p.tok.pos
	pl := &Pipeline{Position: pos}
	if p.litTok() == "!" {
		pl.Negated = true
		p.next()
	}
	pl.Cmds = append(pl.Cmds, p.command())
	for p.tok.kind == tOr {
		p.next()
		p.skipNewlines()
		pl.Cmds = append(pl.Cmds, p.command())
	}
	return pl
}

func (p *parser) command() Command {
	switch p.tok.kind {
	case tLParen:
		return p.subshell()
	case tWord:
		switch p.litTok() {
		case "if":
			return p.ifClause()
		case "while":
			return p.whileClause(false)
		case "until":
			return p.whileClause(true)
		case "for":
			return p.forClause()
		case "case":
			return p.caseClause()
		case "{":
			return p.braceGroup()
		case "then", "else", "elif", "fi", "do", "done", "esac", "in", "}":
			p.errf(p.tok.pos, "unexpected reserved word %q", p.litTok())
		}
		// Function definition? NAME ( ) compound
		if name := p.litTok(); name != "" && isName(name) {
			if fd := p.tryFuncDecl(name); fd != nil {
				return fd
			}
		}
		return p.simpleCommand()
	case tLess, tGreat, tDGreat, tClobber, tDLess, tDLessDash, tLessAnd, tGreatAnd, tLessGreat:
		return p.simpleCommand()
	}
	p.errf(p.tok.pos, "expected a command, found %s", p.describeTok())
	return nil
}

// tryFuncDecl checks for `name ( ) body` using bounded lookahead; returns
// nil (with parser state unchanged) if this is not a function definition.
func (p *parser) tryFuncDecl(name string) *FuncDecl {
	// Lookahead without consuming: after the current word token the source
	// must contain optional blanks, '(', optional blanks, ')'.
	i := p.pos
	for i < len(p.src) && (p.src[i] == ' ' || p.src[i] == '\t') {
		i++
	}
	if i >= len(p.src) || p.src[i] != '(' {
		return nil
	}
	i++
	for i < len(p.src) && (p.src[i] == ' ' || p.src[i] == '\t') {
		i++
	}
	if i >= len(p.src) || p.src[i] != ')' {
		return nil
	}
	pos := p.tok.pos
	p.next() // consume name word -> '('
	p.expect(tLParen)
	p.expect(tRParen)
	p.skipNewlines()
	body := p.command()
	return &FuncDecl{Name: name, Body: body, Position: pos}
}

func isName(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		switch {
		case r == '_' || (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z'):
		case r >= '0' && r <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

func (p *parser) simpleCommand() Command {
	pos := p.tok.pos
	cmd := &SimpleCommand{Position: pos}
	seenWord := false
	for {
		switch p.tok.kind {
		case tWord:
			w := p.tok.word
			if !seenWord {
				if name, val, ok := splitAssign(w); ok {
					cmd.Assigns = append(cmd.Assigns, &Assign{Name: name, Value: val, Position: w.Position})
					p.next()
					continue
				}
			}
			seenWord = true
			cmd.Args = append(cmd.Args, w)
			p.next()
		case tLess, tGreat, tDGreat, tClobber, tDLess, tDLessDash, tLessAnd, tGreatAnd, tLessGreat:
			cmd.Redirections = append(cmd.Redirections, p.redirect())
		default:
			if len(cmd.Assigns) == 0 && len(cmd.Args) == 0 && len(cmd.Redirections) == 0 {
				p.errf(p.tok.pos, "expected a command, found %s", p.describeTok())
			}
			return cmd
		}
	}
}

// splitAssign splits a word of the form NAME=rest into the name and the
// value word, when the leading part is a literal containing `=` after a
// valid name.
func splitAssign(w *Word) (string, *Word, bool) {
	if len(w.Parts) == 0 {
		return "", nil, false
	}
	first, ok := w.Parts[0].(*Lit)
	if !ok {
		return "", nil, false
	}
	eq := strings.IndexByte(first.Value, '=')
	if eq <= 0 || !isName(first.Value[:eq]) {
		return "", nil, false
	}
	name := first.Value[:eq]
	val := &Word{Position: w.Position}
	if rest := first.Value[eq+1:]; rest != "" {
		val.Parts = append(val.Parts, &Lit{Value: rest, Position: first.Position})
	}
	val.Parts = append(val.Parts, w.Parts[1:]...)
	return name, val, true
}

func (p *parser) redirect() *Redirect {
	r := &Redirect{N: p.tok.io, Position: p.tok.pos}
	switch p.tok.kind {
	case tLess:
		r.Op = RedirIn
	case tGreat:
		r.Op = RedirOut
	case tDGreat:
		r.Op = RedirAppend
	case tClobber:
		r.Op = RedirClobber
	case tLessGreat:
		r.Op = RedirInOut
	case tLessAnd:
		r.Op = RedirDupIn
	case tGreatAnd:
		r.Op = RedirDupOut
	case tDLess:
		r.Op = RedirHeredoc
	case tDLessDash:
		r.Op = RedirHeredocDash
	}
	p.next()
	if p.tok.kind != tWord {
		p.errf(p.tok.pos, "expected redirection target, found %s", p.describeTok())
	}
	r.Target = p.tok.word
	if r.Op == RedirHeredoc || r.Op == RedirHeredocDash {
		r.Quoted = heredocDelimQuoted(r.Target)
		p.pendingHeredocs = append(p.pendingHeredocs, r)
	}
	p.next()
	return r
}

func heredocDelimQuoted(w *Word) bool {
	for _, part := range w.Parts {
		switch part.(type) {
		case *SglQuoted, *DblQuoted:
			return true
		case *Lit:
			if strings.Contains(part.(*Lit).Value, "\\") {
				return true
			}
		}
	}
	return false
}

// heredocDelimText returns the delimiter with quoting removed.
func heredocDelimText(w *Word) string {
	var b strings.Builder
	for _, part := range w.Parts {
		switch q := part.(type) {
		case *Lit:
			v := q.Value
			for i := 0; i < len(v); i++ {
				if v[i] == '\\' && i+1 < len(v) {
					i++
				}
				if i < len(v) {
					b.WriteByte(v[i])
				}
			}
		case *SglQuoted:
			b.WriteString(q.Value)
		case *DblQuoted:
			for _, ip := range q.Parts {
				if l, ok := ip.(*Lit); ok {
					b.WriteString(l.Value)
				}
			}
		}
	}
	return b.String()
}

// gatherHeredocs reads pending here-document bodies, called right after a
// newline has been consumed.
func (p *parser) gatherHeredocs() {
	for _, r := range p.pendingHeredocs {
		delim := heredocDelimText(r.Target)
		start := p.here()
		var body strings.Builder
		for {
			if p.pos >= len(p.src) {
				p.errf(r.Position, "unterminated here-document %q", delim)
			}
			lineStart := p.pos
			for p.pos < len(p.src) && p.src[p.pos] != '\n' {
				p.advance()
			}
			line := p.src[lineStart:p.pos]
			if p.pos < len(p.src) {
				p.advance() // consume newline
			}
			check := line
			if r.Op == RedirHeredocDash {
				check = strings.TrimLeft(line, "\t")
			}
			if check == delim {
				break
			}
			if r.Op == RedirHeredocDash {
				line = strings.TrimLeft(line, "\t")
			}
			body.WriteString(line)
			body.WriteByte('\n')
		}
		r.Heredoc = body.String()
		if r.Quoted {
			r.Body = &Word{Parts: []WordPart{&SglQuoted{Value: r.Heredoc, Position: start}}, Position: start}
			continue
		}
		// (<<- strips tabs, so offsets inside such a body run a little early.)
		sub := &parser{src: r.Heredoc, line: start.Line, col: 1, base: start.Offset}
		r.Body = &Word{Parts: []WordPart{sub.readDblQuoted(true)}, Position: start}
	}
	p.pendingHeredocs = nil
}

func (p *parser) subshell() Command {
	pos := p.tok.pos
	p.expect(tLParen)
	body := p.compoundList("subshell", tRParen)
	p.expect(tRParen)
	c := &Subshell{Body: body, Position: pos}
	c.Redirections = p.trailingRedirs()
	return c
}

func (p *parser) braceGroup() Command {
	pos := p.tok.pos
	p.next() // consume "{"
	body := p.compoundList("brace group", tEOF, "}")
	p.expectWord("}")
	c := &BraceGroup{Body: body, Position: pos}
	c.Redirections = p.trailingRedirs()
	return c
}

func (p *parser) expectWord(lit string) {
	if p.litTok() != lit {
		p.errf(p.tok.pos, "expected %q, found %s", lit, p.describeTok())
	}
	p.next()
}

func (p *parser) trailingRedirs() []*Redirect {
	var rs []*Redirect
	for {
		switch p.tok.kind {
		case tLess, tGreat, tDGreat, tClobber, tDLess, tDLessDash, tLessAnd, tGreatAnd, tLessGreat:
			rs = append(rs, p.redirect())
		default:
			return rs
		}
	}
}

func (p *parser) ifClause() Command {
	pos := p.tok.pos
	p.expectWord("if")
	cond := p.compoundList("if condition", tEOF, "then")
	p.expectWord("then")
	then := p.compoundList("then branch", tEOF, "elif", "else", "fi")
	ic := &IfClause{Cond: cond, Then: then, Position: pos}
	switch p.litTok() {
	case "elif":
		// Treat as a nested if in the else branch; elifClause reuses the
		// elif token as its "if".
		nested := p.elifClause()
		ic.Else = []*Stmt{{
			AndOr:    &AndOr{First: &Pipeline{Cmds: []Command{nested}, Position: nested.Pos()}},
			Position: nested.Pos(),
		}}
		return ic
	case "else":
		p.next()
		ic.Else = p.compoundList("else branch", tEOF, "fi")
	}
	p.expectWord("fi")
	ic.Redirections = p.trailingRedirs()
	return ic
}

func (p *parser) elifClause() Command {
	pos := p.tok.pos
	p.expectWord("elif")
	cond := p.compoundList("if condition", tEOF, "then")
	p.expectWord("then")
	then := p.compoundList("then branch", tEOF, "elif", "else", "fi")
	ic := &IfClause{Cond: cond, Then: then, Position: pos}
	switch p.litTok() {
	case "elif":
		nested := p.elifClause()
		ic.Else = []*Stmt{{
			AndOr:    &AndOr{First: &Pipeline{Cmds: []Command{nested}, Position: nested.Pos()}},
			Position: nested.Pos(),
		}}
		return ic
	case "else":
		p.next()
		ic.Else = p.compoundList("else branch", tEOF, "fi")
	}
	p.expectWord("fi")
	return ic
}

func (p *parser) whileClause(until bool) Command {
	pos := p.tok.pos
	p.next() // while/until
	cond := p.compoundList("loop condition", tEOF, "do")
	p.expectWord("do")
	body := p.compoundList("loop body", tEOF, "done")
	p.expectWord("done")
	c := &WhileClause{Until: until, Cond: cond, Body: body, Position: pos}
	c.Redirections = p.trailingRedirs()
	return c
}

func (p *parser) forClause() Command {
	pos := p.tok.pos
	p.expectWord("for")
	name := p.litTok()
	if name == "" || !isName(name) {
		p.errf(p.tok.pos, "expected variable name after 'for'")
	}
	p.next()
	fc := &ForClause{Name: name, Position: pos}
	p.skipNewlines()
	if p.litTok() == "in" {
		fc.InPresent = true
		p.next()
		for p.tok.kind == tWord {
			fc.Words = append(fc.Words, p.tok.word)
			p.next()
		}
	}
	if p.tok.kind == tSemi || p.tok.kind == tNewline {
		p.next()
	}
	p.skipNewlines()
	p.expectWord("do")
	fc.Body = p.compoundList("loop body", tEOF, "done")
	p.expectWord("done")
	fc.Redirections = p.trailingRedirs()
	return fc
}

func (p *parser) caseClause() Command {
	pos := p.tok.pos
	p.expectWord("case")
	if p.tok.kind != tWord {
		p.errf(p.tok.pos, "expected word after 'case'")
	}
	cc := &CaseClause{Word: p.tok.word, Position: pos}
	p.next()
	p.skipNewlines()
	p.expectWord("in")
	p.skipNewlines()
	for p.litTok() != "esac" {
		if p.tok.kind == tEOF {
			p.errf(pos, "unterminated case statement")
		}
		item := &CaseItem{Position: p.tok.pos}
		if p.tok.kind == tLParen {
			p.next()
		}
		for {
			if p.tok.kind != tWord {
				p.errf(p.tok.pos, "expected case pattern, found %s", p.describeTok())
			}
			item.Patterns = append(item.Patterns, p.tok.word)
			p.next()
			if p.tok.kind == tOr {
				p.next()
				continue
			}
			break
		}
		p.expect(tRParen)
		item.Body = p.stmtListCase()
		cc.Items = append(cc.Items, item)
		if p.tok.kind == tDSemi {
			p.next()
		}
		p.skipNewlines()
	}
	p.expectWord("esac")
	cc.Redirections = p.trailingRedirs()
	return cc
}

// stmtListCase parses a case-arm body: statements until `;;` or `esac`.
func (p *parser) stmtListCase() []*Stmt {
	var stmts []*Stmt
	for {
		p.skipNewlines()
		if p.tok.kind == tDSemi || p.tok.kind == tEOF || p.litTok() == "esac" {
			return stmts
		}
		stmts = append(stmts, p.stmt())
	}
}
