// Package syntax implements a lexer, parser, and printer for the POSIX
// shell command language (POSIX.1-2017 §2), playing the role libdash plays
// for Smoosh and PaSh: scripts parse to an AST, and ASTs print back to
// scripts that parse to the same AST.
//
// The grammar covered includes simple commands, pipelines, and-or lists,
// background/sequential lists, redirections (including here-documents),
// subshells, brace groups, if/while/until/for/case, function definitions,
// and the full word sublanguage: single and double quotes, backslash
// escaping, parameter expansion with operators, command substitution (both
// forms), and arithmetic expansion.
package syntax

import (
	"fmt"
	"strings"
)

// Pos is a byte offset plus human-friendly line/column, all 1-based for
// line and column and 0-based for the offset.
type Pos struct {
	Offset int
	Line   int
	Col    int
}

// String renders the position as "line:col".
func (p Pos) String() string { return fmt.Sprintf("%d:%d", p.Line, p.Col) }

// Node is implemented by every syntax tree node.
type Node interface {
	Pos() Pos
}

// Script is a parsed shell program: a sequence of statements.
type Script struct {
	Stmts []*Stmt
}

// Pos returns the position of the first statement, or the zero Pos.
func (s *Script) Pos() Pos {
	if len(s.Stmts) == 0 {
		return Pos{}
	}
	return s.Stmts[0].Pos()
}

// Stmt is one and-or list together with its separator: `cmd &` runs in the
// background, `cmd ;` (or newline) runs sequentially.
type Stmt struct {
	AndOr      *AndOr
	Background bool
	Position   Pos
}

func (s *Stmt) Pos() Pos { return s.Position }

// AndOrOp is the operator joining pipelines in an and-or list.
type AndOrOp int

const (
	// AndOp is `&&`: run right only if left succeeded.
	AndOp AndOrOp = iota
	// OrOp is `||`: run right only if left failed.
	OrOp
)

func (op AndOrOp) String() string {
	if op == AndOp {
		return "&&"
	}
	return "||"
}

// AndOr is a pipeline followed by zero or more `&& pipeline` / `|| pipeline`
// continuations, evaluated left to right.
type AndOr struct {
	First *Pipeline
	Rest  []AndOrPart
}

func (a *AndOr) Pos() Pos { return a.First.Pos() }

// AndOrPart is one `&&` or `||` continuation.
type AndOrPart struct {
	Op   AndOrOp
	Pipe *Pipeline
}

// Pipeline is `[!] command (| command)*`.
type Pipeline struct {
	Negated bool
	Cmds    []Command
	// Position covers the `!` if present, else the first command.
	Position Pos
}

func (p *Pipeline) Pos() Pos { return p.Position }

// Command is any simple or compound command.
type Command interface {
	Node
	commandNode()
	// Redirs returns the redirections attached to the command.
	Redirs() []*Redirect
}

// SimpleCommand is assignments, words, and redirections:
// `FOO=1 BAR=2 grep -v x <in >out`.
type SimpleCommand struct {
	Assigns      []*Assign
	Args         []*Word
	Redirections []*Redirect
	Position     Pos
}

func (c *SimpleCommand) Pos() Pos            { return c.Position }
func (c *SimpleCommand) commandNode()        {}
func (c *SimpleCommand) Redirs() []*Redirect { return c.Redirections }

// Name returns the literal command name if the first argument is a plain
// literal, and "" otherwise (e.g. `$CMD args`).
func (c *SimpleCommand) Name() string {
	if len(c.Args) == 0 {
		return ""
	}
	return c.Args[0].Lit()
}

// Assign is `Name=Value`. A nil Value means `Name=`.
type Assign struct {
	Name     string
	Value    *Word
	Position Pos
}

func (a *Assign) Pos() Pos { return a.Position }

// RedirOp enumerates redirection operators.
type RedirOp int

const (
	RedirIn          RedirOp = iota // <
	RedirOut                        // >
	RedirAppend                     // >>
	RedirClobber                    // >|
	RedirInOut                      // <>
	RedirHeredoc                    // <<
	RedirHeredocDash                // <<-
	RedirDupIn                      // <&
	RedirDupOut                     // >&
)

var redirOpStrings = [...]string{"<", ">", ">>", ">|", "<>", "<<", "<<-", "<&", ">&"}

func (op RedirOp) String() string { return redirOpStrings[op] }

// Redirect is one redirection. N is the explicit file descriptor, or -1 when
// none was given (defaulting to 0 for input ops and 1 for output ops).
// For here-documents, Target holds the delimiter word, Heredoc the body as
// written (what the printer emits) and Body the same text as the word the
// shell expands: parsed under double-quote rules with `"` literal, or — when
// the delimiter was quoted, which Quoted reports — one single-quoted part.
type Redirect struct {
	N        int
	Op       RedirOp
	Target   *Word
	Heredoc  string
	Body     *Word
	Quoted   bool
	Position Pos
}

func (r *Redirect) Pos() Pos { return r.Position }

// DefaultFD returns the file descriptor the redirection applies to, using
// POSIX defaults when none was written.
func (r *Redirect) DefaultFD() int {
	if r.N >= 0 {
		return r.N
	}
	switch r.Op {
	case RedirIn, RedirInOut, RedirHeredoc, RedirHeredocDash, RedirDupIn:
		return 0
	default:
		return 1
	}
}

// Subshell is `( body )`.
type Subshell struct {
	Body         []*Stmt
	Redirections []*Redirect
	Position     Pos
}

func (c *Subshell) Pos() Pos            { return c.Position }
func (c *Subshell) commandNode()        {}
func (c *Subshell) Redirs() []*Redirect { return c.Redirections }

// BraceGroup is `{ body ; }`.
type BraceGroup struct {
	Body         []*Stmt
	Redirections []*Redirect
	Position     Pos
}

func (c *BraceGroup) Pos() Pos            { return c.Position }
func (c *BraceGroup) commandNode()        {}
func (c *BraceGroup) Redirs() []*Redirect { return c.Redirections }

// IfClause is `if cond; then body; [elif ...;] [else ...;] fi`.
// Elif chains are represented by nesting another IfClause in Else.
type IfClause struct {
	Cond         []*Stmt
	Then         []*Stmt
	Else         []*Stmt // nil, or a single nested *IfClause stmt for elif
	Redirections []*Redirect
	Position     Pos
}

func (c *IfClause) Pos() Pos            { return c.Position }
func (c *IfClause) commandNode()        {}
func (c *IfClause) Redirs() []*Redirect { return c.Redirections }

// WhileClause is `while cond; do body; done`, or `until` when Until is set.
type WhileClause struct {
	Until        bool
	Cond         []*Stmt
	Body         []*Stmt
	Redirections []*Redirect
	Position     Pos
}

func (c *WhileClause) Pos() Pos            { return c.Position }
func (c *WhileClause) commandNode()        {}
func (c *WhileClause) Redirs() []*Redirect { return c.Redirections }

// ForClause is `for Name [in words]; do body; done`. InPresent distinguishes
// `for x` and `for x in` (the former iterates "$@").
type ForClause struct {
	Name         string
	InPresent    bool
	Words        []*Word
	Body         []*Stmt
	Redirections []*Redirect
	Position     Pos
}

func (c *ForClause) Pos() Pos            { return c.Position }
func (c *ForClause) commandNode()        {}
func (c *ForClause) Redirs() []*Redirect { return c.Redirections }

// CaseItem is one `pattern[|pattern...]) body ;;` arm.
type CaseItem struct {
	Patterns []*Word
	Body     []*Stmt
	Position Pos
}

func (c *CaseItem) Pos() Pos { return c.Position }

// CaseClause is `case word in items... esac`.
type CaseClause struct {
	Word         *Word
	Items        []*CaseItem
	Redirections []*Redirect
	Position     Pos
}

func (c *CaseClause) Pos() Pos            { return c.Position }
func (c *CaseClause) commandNode()        {}
func (c *CaseClause) Redirs() []*Redirect { return c.Redirections }

// FuncDecl is `name() body`.
type FuncDecl struct {
	Name     string
	Body     Command
	Position Pos
}

func (c *FuncDecl) Pos() Pos            { return c.Position }
func (c *FuncDecl) commandNode()        {}
func (c *FuncDecl) Redirs() []*Redirect { return nil }

// Word is a sequence of parts that concatenate after expansion.
type Word struct {
	Parts    []WordPart
	Position Pos
}

func (w *Word) Pos() Pos { return w.Position }

// Lit returns the word's literal text if it consists solely of Lit parts,
// and "" otherwise. Use for command names and assignment targets.
func (w *Word) Lit() string {
	s := ""
	for _, p := range w.Parts {
		l, ok := p.(*Lit)
		if !ok {
			return ""
		}
		s += l.Value
	}
	return s
}

// IsStatic reports whether the word expands to the same single field
// regardless of shell state: only literals and quoted literals, and no
// leading `~` (tilde expansion reads HOME).
func (w *Word) IsStatic() bool {
	if len(w.Parts) > 0 {
		if l, ok := w.Parts[0].(*Lit); ok && strings.HasPrefix(l.Value, "~") {
			return false
		}
	}
	for _, p := range w.Parts {
		switch q := p.(type) {
		case *Lit, *SglQuoted:
		case *DblQuoted:
			for _, ip := range q.Parts {
				if _, ok := ip.(*Lit); !ok {
					return false
				}
			}
		default:
			return false
		}
	}
	return true
}

// StaticValue returns the expansion of a static word. Meaningful only when
// IsStatic is true; dynamic parts contribute nothing.
func (w *Word) StaticValue() string {
	s := ""
	for _, p := range w.Parts {
		switch q := p.(type) {
		case *Lit:
			s += q.Value
		case *SglQuoted:
			s += q.Value
		case *DblQuoted:
			for _, ip := range q.Parts {
				if l, ok := ip.(*Lit); ok {
					s += l.Value
				}
			}
		}
	}
	return s
}

// WordPart is one syntactic constituent of a word.
type WordPart interface {
	Node
	wordPartNode()
}

// Lit is literal text: unquoted, or inside double quotes, a here-document
// or a ${x op word} operand. Value is the text's value, every backslash
// resolved by the parser: an unquoted `\c` is an escaped SglQuoted, so an
// unquoted Lit holds no quoted character, and `"\$"` holds `$` while
// `"\q"` holds `\q`. The printer writes the escapes back.
type Lit struct {
	Value    string
	Position Pos
}

func (p *Lit) Pos() Pos      { return p.Position }
func (p *Lit) wordPartNode() {}

// SglQuoted is 'text', or, when Escaped, the one character c of an
// unquoted `\c` (a dollar that starts no expansion is kept as `\$`).
type SglQuoted struct {
	Value    string
	Escaped  bool
	Position Pos
}

func (p *SglQuoted) Pos() Pos      { return p.Position }
func (p *SglQuoted) wordPartNode() {}

// DblQuoted is "parts...", which may nest parameter expansions, command
// substitutions, and arithmetic.
type DblQuoted struct {
	Parts    []WordPart
	Position Pos
}

func (p *DblQuoted) Pos() Pos      { return p.Position }
func (p *DblQuoted) wordPartNode() {}

// ParamOp enumerates ${...} operators.
type ParamOp int

const (
	ParamPlain          ParamOp = iota // $x or ${x}
	ParamLength                        // ${#x}
	ParamDefault                       // ${x-w} / ${x:-w}
	ParamAssign                        // ${x=w} / ${x:=w}
	ParamError                         // ${x?w} / ${x:?w}
	ParamAlt                           // ${x+w} / ${x:+w}
	ParamTrimSuffix                    // ${x%w}
	ParamTrimSuffixLong                // ${x%%w}
	ParamTrimPrefix                    // ${x#w}
	ParamTrimPrefixLong                // ${x##w}
)

var paramOpStrings = [...]string{"", "#", "-", "=", "?", "+", "%", "%%", "#", "##"}

// String returns the operator's source spelling (without the colon).
func (op ParamOp) String() string { return paramOpStrings[op] }

// ParamExp is a parameter expansion: $name, ${name}, ${name[:]op word},
// ${#name}. Colon marks the `:`-variants that also treat set-but-null as
// unset.
type ParamExp struct {
	Name     string
	Op       ParamOp
	Colon    bool
	Word     *Word // operand for Default/Assign/Error/Alt/Trim ops
	Brace    bool  // written with braces
	Position Pos
}

func (p *ParamExp) Pos() Pos      { return p.Position }
func (p *ParamExp) wordPartNode() {}

// CmdSubst is `$(stmts)` or, when Backquote, "`stmts`".
type CmdSubst struct {
	Stmts     []*Stmt
	Backquote bool
	Position  Pos
}

func (p *CmdSubst) Pos() Pos      { return p.Position }
func (p *CmdSubst) wordPartNode() {}

// ArithExp is `$((expr))`. Expr is the text as written: what the printer
// emits and what package expand compiles under the POSIX arithmetic
// grammar. When the text contains `$` or a backquote, Parts is that text
// parsed once, here, under double-quote rules with `"` and `\` literal;
// expansion runs them and compiles the text they produce. Build one with
// NewArithExp, so no node whose Expr holds `$` lacks its Parts.
type ArithExp struct {
	Expr     string
	Parts    []WordPart
	Position Pos
}

func (p *ArithExp) Pos() Pos      { return p.Position }
func (p *ArithExp) wordPartNode() {}
