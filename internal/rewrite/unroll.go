package rewrite

import (
	"strings"

	"jash/internal/analysis"
	"jash/internal/expand"
	"jash/internal/syntax"
)

// UnrollFor rewrites `for x in w1 w2 ...; do body; done` over a static
// literal word list into the body repeated once per item with $x replaced
// by the item — the form the list parallelizer can then prove
// non-interfering per iteration (disjoint literal file sets, the classic
// per-file loop). Given a statement that is exactly such a loop, it returns
// the unrolled statements, the loop variable and its final value (POSIX
// keeps the last item in scope after the loop; the caller restores it),
// and whether the unroll is sound. Refusal is free: the loop just runs
// through the interpreter as before.
//
// Soundness demands the substitution be total and exact, so the unroll
// refuses when the body could observe or redefine the variable any way a
// literal paste cannot reproduce: non-plain expansions (${x%.txt}),
// arithmetic references, command substitutions, here-documents naming the
// variable, anything that may assign it (analysis.AssignedBy, which follows
// calls through funcBody), a called function that reads it, or item values
// subject to field splitting or globbing.
func UnrollFor(st *syntax.Stmt, funcBody func(string) syntax.Command) (stmts []*syntax.Stmt, name, last string, ok bool) {
	fc, _ := soleCommand(st).(*syntax.ForClause)
	if fc == nil || !fc.InPresent || len(fc.Words) == 0 || len(fc.Redirections) > 0 {
		return nil, "", "", false
	}
	items := make([]string, 0, len(fc.Words))
	for _, w := range fc.Words {
		if !w.IsStatic() {
			return nil, "", "", false
		}
		v := w.StaticValue()
		if !safeSubstValue(v) {
			return nil, "", "", false
		}
		items = append(items, v)
	}
	if !substitutable(fc.Body, fc.Name, funcBody) {
		return nil, "", "", false
	}
	for _, item := range items {
		for _, st := range fc.Body {
			cl, cok := cloneStmtSubst(st, fc.Name, item)
			if !cok {
				return nil, "", "", false
			}
			stmts = append(stmts, cl)
		}
	}
	return stmts, fc.Name, items[len(items)-1], true
}

// FlattenBrace unwraps a statement that is exactly `{ body; }` — no
// redirections, negation, continuation, or background marker — into its
// body statements, the "&&-free compound body" case the list planner can
// then partition. Returns nil, false when the statement is anything else.
func FlattenBrace(st *syntax.Stmt) ([]*syntax.Stmt, bool) {
	bg, ok := soleCommand(st).(*syntax.BraceGroup)
	if !ok || len(bg.Redirections) > 0 {
		return nil, false
	}
	return bg.Body, true
}

// soleCommand unwraps a statement that is exactly one command — no
// negation, continuation, or background marker — and is nil otherwise.
func soleCommand(st *syntax.Stmt) syntax.Command {
	if st == nil || st.Background || st.AndOr == nil || len(st.AndOr.Rest) > 0 {
		return nil
	}
	if pl := st.AndOr.First; pl != nil && !pl.Negated && len(pl.Cmds) == 1 {
		return pl.Cmds[0]
	}
	return nil
}

// safeSubstValue reports whether a literal can be pasted where an unquoted
// $x stood without changing fields or glob behaviour.
func safeSubstValue(v string) bool {
	return v != "" && !strings.ContainsAny(v, " \t\n*?[]{}$`\\'\"~#")
}

// substitutable checks that nothing in the body may assign name and that
// every reference to it is one a literal can replace: a plain expansion
// written in the body itself, outside here-documents (whose printed text is
// not rewritten) — a function the body calls sees the variable, not the
// paste, so it may not mention it at all.
func substitutable(body []*syntax.Stmt, name string, funcBody func(string) syntax.Command) bool {
	called := map[string]bool{}
	var ok func(node syntax.Node, pasted bool) bool
	ok = func(node syntax.Node, pasted bool) bool {
		fine := true
		syntax.Walk(node, func(n syntax.Node) bool {
			switch x := n.(type) {
			case *syntax.Redirect:
				fine = fine && (x.Body == nil || ok(x.Body, false))
			case *syntax.Word:
				for _, e := range expand.AnalyzeWord(x).Effects {
					if e.Kind == expand.EffectSubst || e.Name == name && !(pasted && e.Plain) {
						fine = false
					}
				}
				return false
			case *syntax.SimpleCommand:
				// (A command word that is not static already failed AssignedBy.)
				if funcBody == nil || len(x.Args) == 0 || called[x.Args[0].StaticValue()] {
					break
				}
				callee := x.Args[0].StaticValue()
				called[callee] = true
				if fb := funcBody(callee); fb != nil {
					fine = fine && ok(fb, false)
				}
			}
			return fine
		})
		return fine
	}
	for _, st := range body {
		if names, any := analysis.AssignedBy(st, funcBody); any || names[name] || !ok(st, true) {
			return false
		}
	}
	return true
}

// cloneStmtSubst deep-copies a statement, replacing plain expansions of
// name with the literal value. Statement shapes outside the supported
// subset (simple-command pipelines and and-or lists over them) refuse.
func cloneStmtSubst(st *syntax.Stmt, name, value string) (*syntax.Stmt, bool) {
	if st == nil || st.AndOr == nil {
		return nil, false
	}
	out := &syntax.Stmt{Background: st.Background, Position: st.Position}
	first, ok := clonePipeSubst(st.AndOr.First, name, value)
	if !ok {
		return nil, false
	}
	ao := &syntax.AndOr{First: first}
	for _, part := range st.AndOr.Rest {
		p, pok := clonePipeSubst(part.Pipe, name, value)
		if !pok {
			return nil, false
		}
		ao.Rest = append(ao.Rest, syntax.AndOrPart{Op: part.Op, Pipe: p})
	}
	out.AndOr = ao
	return out, true
}

func clonePipeSubst(pl *syntax.Pipeline, name, value string) (*syntax.Pipeline, bool) {
	if pl == nil {
		return nil, false
	}
	out := &syntax.Pipeline{Negated: pl.Negated, Position: pl.Position}
	for _, cmd := range pl.Cmds {
		sc, ok := cmd.(*syntax.SimpleCommand)
		if !ok {
			return nil, false
		}
		cl, cok := cloneSimpleSubst(sc, name, value)
		if !cok {
			return nil, false
		}
		out.Cmds = append(out.Cmds, cl)
	}
	return out, true
}

func cloneSimpleSubst(sc *syntax.SimpleCommand, name, value string) (*syntax.SimpleCommand, bool) {
	out := &syntax.SimpleCommand{Position: sc.Position}
	for _, a := range sc.Assigns {
		na := &syntax.Assign{Name: a.Name, Position: a.Position}
		if a.Value != nil {
			w, ok := cloneWordSubst(a.Value, name, value)
			if !ok {
				return nil, false
			}
			na.Value = w
		}
		out.Assigns = append(out.Assigns, na)
	}
	for _, w := range sc.Args {
		nw, ok := cloneWordSubst(w, name, value)
		if !ok {
			return nil, false
		}
		out.Args = append(out.Args, nw)
	}
	for _, r := range sc.Redirections {
		nr := &syntax.Redirect{N: r.N, Op: r.Op, Heredoc: r.Heredoc, Body: r.Body, Quoted: r.Quoted, Position: r.Position}
		if r.Target != nil {
			w, ok := cloneWordSubst(r.Target, name, value)
			if !ok {
				return nil, false
			}
			nr.Target = w
		}
		out.Redirections = append(out.Redirections, nr)
	}
	return out, true
}

func cloneWordSubst(w *syntax.Word, name, value string) (*syntax.Word, bool) {
	out := &syntax.Word{Position: w.Position}
	for _, p := range w.Parts {
		np, ok := clonePartSubst(p, name, value)
		if !ok {
			return nil, false
		}
		out.Parts = append(out.Parts, np)
	}
	return out, true
}

func clonePartSubst(p syntax.WordPart, name, value string) (syntax.WordPart, bool) {
	switch x := p.(type) {
	case *syntax.Lit:
		return &syntax.Lit{Value: x.Value, Position: x.Position}, true
	case *syntax.SglQuoted:
		return &syntax.SglQuoted{Value: x.Value, Position: x.Position}, true
	case *syntax.DblQuoted:
		out := &syntax.DblQuoted{Position: x.Position}
		for _, ip := range x.Parts {
			np, ok := clonePartSubst(ip, name, value)
			if !ok {
				return nil, false
			}
			out.Parts = append(out.Parts, np)
		}
		return out, true
	case *syntax.ParamExp:
		if x.Name == name {
			if x.Op != syntax.ParamPlain {
				return nil, false
			}
			return &syntax.Lit{Value: value, Position: x.Position}, true
		}
		out := &syntax.ParamExp{Name: x.Name, Op: x.Op, Colon: x.Colon, Brace: x.Brace, Position: x.Position}
		if x.Word != nil {
			w, ok := cloneWordSubst(x.Word, name, value)
			if !ok {
				return nil, false
			}
			out.Word = w
		}
		return out, true
	case *syntax.ArithExp:
		return &syntax.ArithExp{Expr: x.Expr, Position: x.Position}, true
	}
	// Command substitutions were refused by substitutable; anything else
	// is a part this cloner does not understand.
	return nil, false
}
