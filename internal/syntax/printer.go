package syntax

import (
	"strings"
)

// Print renders a script back to shell source. The output is canonical
// (single spaces, `;` separators inside compounds, heredocs re-emitted) and
// is guaranteed to re-parse to an equivalent AST; see the round-trip tests.
// Top-level statements that start on one source line print as one line, as
// PrintStmts prints them — a line is the unit the JIT plans.
func Print(s *Script) string {
	var pr printer
	for i, j := 0, 0; i < len(s.Stmts); i = j {
		line := s.Stmts[i].Position.Line
		for j = i + 1; line != 0 && j < len(s.Stmts) && s.Stmts[j].Position.Line == line; j++ {
		}
		if i > 0 {
			pr.b.WriteByte('\n')
		}
		pr.stmtsInline(s.Stmts[i:j])
		pr.flushHeredocs()
	}
	pr.b.WriteByte('\n')
	return pr.b.String()
}

// PrintStmts renders a statement list (one JIT "command") on one line,
// here-document bodies after it.
func PrintStmts(stmts []*Stmt) string {
	var pr printer
	pr.stmtsInline(stmts)
	out := pr.b.String()
	if len(pr.heredocs) > 0 {
		pr.b.Reset()
		pr.b.WriteString(out)
		pr.flushHeredocs()
		out = pr.b.String()
	}
	return out
}

// PrintCommand renders a single command.
func PrintCommand(c Command) string {
	var pr printer
	pr.command(c)
	out := pr.b.String()
	if len(pr.heredocs) > 0 {
		pr.b.Reset()
		pr.b.WriteString(out)
		pr.flushHeredocs()
		out = pr.b.String()
	}
	return out
}

// PrintWord renders a single word.
func PrintWord(w *Word) string {
	var pr printer
	pr.word(w)
	return pr.b.String()
}

type printer struct {
	b        strings.Builder
	heredocs []*Redirect
}

// flushHeredocs writes pending here-document bodies after a newline, as the
// shell grammar requires.
func (pr *printer) flushHeredocs() {
	if len(pr.heredocs) == 0 {
		return
	}
	hds := pr.heredocs
	pr.heredocs = nil
	for _, r := range hds {
		pr.b.WriteByte('\n')
		pr.b.WriteString(r.Heredoc)
		pr.b.WriteString(heredocDelimText(r.Target))
	}
}

func (pr *printer) stmt(st *Stmt) {
	pr.andOr(st.AndOr)
	if st.Background {
		pr.b.WriteString(" &")
	}
}

func (pr *printer) andOr(ao *AndOr) {
	pr.pipeline(ao.First)
	for _, part := range ao.Rest {
		pr.b.WriteString(" " + part.Op.String() + " ")
		pr.pipeline(part.Pipe)
	}
}

func (pr *printer) pipeline(pl *Pipeline) {
	if pl.Negated {
		pr.b.WriteString("! ")
	}
	for i, c := range pl.Cmds {
		if i > 0 {
			pr.b.WriteString(" | ")
		}
		pr.command(c)
	}
}

// stmtsInline renders a statement list separated by `;`, with the required
// trailing separator context handled by callers. A background statement's
// `&` is itself a separator, so no `;` follows it — `a & b`, never `a &; b`.
func (pr *printer) stmtsInline(stmts []*Stmt) {
	for i, st := range stmts {
		if i > 0 {
			if stmts[i-1].Background {
				pr.b.WriteByte(' ')
			} else {
				pr.b.WriteString("; ")
			}
		}
		pr.stmt(st)
	}
}

// endsBackground reports whether the list's final statement is backgrounded,
// in which case closers must not add a `;` after the `&`.
func endsBackground(stmts []*Stmt) bool {
	return len(stmts) > 0 && stmts[len(stmts)-1].Background
}

// listClose writes the separator-plus-keyword that terminates an inline
// statement list (`; done`, `; fi`, ...), dropping the `;` when the list
// already ends with `&`.
func (pr *printer) listClose(stmts []*Stmt, kw string) {
	if endsBackground(stmts) {
		pr.b.WriteByte(' ')
	} else {
		pr.b.WriteString("; ")
	}
	pr.b.WriteString(kw)
}

func (pr *printer) redirs(rs []*Redirect) {
	for _, r := range rs {
		pr.b.WriteByte(' ')
		pr.redirect(r)
	}
}

func (pr *printer) redirect(r *Redirect) {
	if r.N >= 0 {
		pr.b.WriteString(itoa(r.N))
	}
	pr.b.WriteString(r.Op.String())
	pr.word(r.Target)
	if r.Op == RedirHeredoc || r.Op == RedirHeredocDash {
		pr.heredocs = append(pr.heredocs, r)
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

func (pr *printer) command(c Command) {
	switch x := c.(type) {
	case *SimpleCommand:
		first := true
		for _, a := range x.Assigns {
			if !first {
				pr.b.WriteByte(' ')
			}
			first = false
			pr.b.WriteString(a.Name)
			pr.b.WriteByte('=')
			if a.Value != nil {
				pr.word(a.Value)
			}
		}
		redirs := x.Redirections
		if first && len(x.Args) > 0 && len(redirs) > 0 && reservedLeadWord(x.Args[0]) {
			// A reserved word became a command name only because a
			// redirection preceded it in the source; keep one in front so
			// the printed form re-lexes the same way.
			pr.redirect(redirs[0])
			redirs = redirs[1:]
			first = false
		}
		for _, w := range x.Args {
			if !first {
				pr.b.WriteByte(' ')
			}
			first = false
			pr.word(w)
		}
		for _, r := range redirs {
			if !first {
				pr.b.WriteByte(' ')
			}
			first = false
			pr.redirect(r)
		}
	case *Subshell:
		pr.b.WriteByte('(')
		pr.stmtsInline(x.Body)
		pr.b.WriteByte(')')
		pr.redirs(x.Redirections)
	case *BraceGroup:
		pr.b.WriteString("{ ")
		pr.stmtsInline(x.Body)
		pr.listClose(x.Body, "}")
		pr.redirs(x.Redirections)
	case *IfClause:
		pr.ifClause(x, false)
		pr.redirs(x.Redirections)
	case *WhileClause:
		if x.Until {
			pr.b.WriteString("until ")
		} else {
			pr.b.WriteString("while ")
		}
		pr.stmtsInline(x.Cond)
		pr.listClose(x.Cond, "do ")
		pr.stmtsInline(x.Body)
		pr.listClose(x.Body, "done")
		pr.redirs(x.Redirections)
	case *ForClause:
		pr.b.WriteString("for " + x.Name)
		if x.InPresent {
			pr.b.WriteString(" in")
			for _, w := range x.Words {
				pr.b.WriteByte(' ')
				pr.word(w)
			}
		}
		pr.b.WriteString("; do ")
		pr.stmtsInline(x.Body)
		pr.listClose(x.Body, "done")
		pr.redirs(x.Redirections)
	case *CaseClause:
		pr.b.WriteString("case ")
		pr.word(x.Word)
		pr.b.WriteString(" in ")
		for _, item := range x.Items {
			for i, pat := range item.Patterns {
				if i > 0 {
					pr.b.WriteString(" | ")
				}
				pr.word(pat)
			}
			pr.b.WriteString(") ")
			pr.stmtsInline(item.Body)
			pr.b.WriteString(" ;; ")
		}
		pr.b.WriteString("esac")
		pr.redirs(x.Redirections)
	case *FuncDecl:
		pr.b.WriteString(x.Name + "() ")
		pr.command(x.Body)
	}
}

// ifClause prints if/elif chains; elif is the single nested-IfClause form.
func (pr *printer) ifClause(x *IfClause, asElif bool) {
	if asElif {
		pr.b.WriteString("elif ")
	} else {
		pr.b.WriteString("if ")
	}
	pr.stmtsInline(x.Cond)
	pr.listClose(x.Cond, "then ")
	pr.stmtsInline(x.Then)
	if len(x.Else) > 0 {
		if nested := elseAsElif(x.Else); nested != nil {
			pr.listClose(x.Then, "")
			pr.ifClause(nested, true)
			return
		}
		pr.listClose(x.Then, "else ")
		pr.stmtsInline(x.Else)
		pr.listClose(x.Else, "fi")
		return
	}
	pr.listClose(x.Then, "fi")
}

// elseAsElif returns the nested IfClause when the else branch is exactly the
// elif-encoding produced by the parser.
func elseAsElif(stmts []*Stmt) *IfClause {
	if len(stmts) != 1 {
		return nil
	}
	st := stmts[0]
	if st.Background || len(st.AndOr.Rest) > 0 {
		return nil
	}
	pl := st.AndOr.First
	if pl.Negated || len(pl.Cmds) != 1 {
		return nil
	}
	ic, ok := pl.Cmds[0].(*IfClause)
	if !ok || len(ic.Redirections) > 0 {
		return nil
	}
	return ic
}

// startsWithSubshell reports whether the first printed byte of stmts
// would be an opening parenthesis.
func startsWithSubshell(stmts []*Stmt) bool {
	if len(stmts) == 0 {
		return false
	}
	pl := stmts[0].AndOr.First
	if pl.Negated || len(pl.Cmds) == 0 {
		return false
	}
	_, ok := pl.Cmds[0].(*Subshell)
	return ok
}

// reservedLeadWord reports whether w, printed first in a command, would
// re-lex as a reserved word or pipeline negation instead of a command name.
func reservedLeadWord(w *Word) bool {
	if len(w.Parts) != 1 {
		return false
	}
	l, ok := w.Parts[0].(*Lit)
	if !ok {
		return false
	}
	switch l.Value {
	case "if", "then", "else", "elif", "fi", "while", "until", "for",
		"do", "done", "case", "esac", "in", "{", "}", "!":
		return true
	}
	return false
}

func (pr *printer) word(w *Word) {
	for _, part := range w.Parts {
		pr.wordPart(part)
	}
}

func (pr *printer) wordPart(part WordPart) {
	switch x := part.(type) {
	case *Lit:
		pr.b.WriteString(x.Value)
	case *SglQuoted:
		pr.b.WriteByte('\'')
		pr.b.WriteString(x.Value)
		pr.b.WriteByte('\'')
	case *DblQuoted:
		pr.b.WriteByte('"')
		for _, ip := range x.Parts {
			pr.wordPart(ip)
		}
		pr.b.WriteByte('"')
	case *ParamExp:
		pr.paramExp(x)
	case *CmdSubst:
		pr.b.WriteString("$(")
		if startsWithSubshell(x.Stmts) {
			// `$((` would re-lex as arithmetic expansion.
			pr.b.WriteByte(' ')
		}
		pr.stmtsInline(x.Stmts)
		pr.b.WriteByte(')')
	case *ArithExp:
		pr.b.WriteString("$((")
		pr.b.WriteString(x.Expr)
		pr.b.WriteString("))")
	}
}

func (pr *printer) paramExp(x *ParamExp) {
	if !x.Brace && x.Op == ParamPlain {
		pr.b.WriteString("$" + x.Name)
		return
	}
	pr.b.WriteString("${")
	if x.Op == ParamLength {
		pr.b.WriteByte('#')
		pr.b.WriteString(x.Name)
		pr.b.WriteByte('}')
		return
	}
	pr.b.WriteString(x.Name)
	if x.Op != ParamPlain {
		if x.Colon {
			pr.b.WriteByte(':')
		}
		pr.b.WriteString(x.Op.String())
		if x.Word != nil {
			pr.word(x.Word)
		}
	}
	pr.b.WriteByte('}')
}
