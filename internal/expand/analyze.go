package expand

import (
	"sort"
	"strings"

	"jash/internal/syntax"
)

// Deps is the symbolic summary of what an expansion depends on and whether
// performing it early could change observable shell state. It answers the
// paper's B2 question — "what dynamic components does this word read?" —
// so the JIT can expand words ahead of execution only when doing so is
// provably side-effect free.
type Deps struct {
	// Vars are the variable names read (positional and special parameters
	// appear by their spelling: "1", "@", "?", ...).
	Vars []string
	// Reads of dynamic state beyond plain variables.
	HasCmdSubst bool // $(...) or `...`: runs arbitrary commands
	HasArith    bool // $((...)): reads/writes variables
	HasGlob     bool // unquoted metacharacters: reads the filesystem
	HasTilde    bool // leading ~: reads HOME
	// SideEffects is true when expanding the word can mutate state:
	// ${x=w} assigns, ${x?w} can abort, $((x=1)) assigns, and any command
	// substitution may do anything at all.
	SideEffects bool
}

// SafeToExpandEarly reports whether the JIT may expand this word before
// its surrounding command actually runs: the expansion must not mutate
// shell state. Reading variables and the filesystem is fine — the JIT
// re-validates liveness at dispatch time — but assignments, abort
// operators, and command substitutions are not.
func (d Deps) SafeToExpandEarly() bool { return !d.SideEffects }

// Merge folds another dependency summary into this one.
func (d *Deps) Merge(o Deps) {
	d.Vars = append(d.Vars, o.Vars...)
	d.HasCmdSubst = d.HasCmdSubst || o.HasCmdSubst
	d.HasArith = d.HasArith || o.HasArith
	d.HasGlob = d.HasGlob || o.HasGlob
	d.HasTilde = d.HasTilde || o.HasTilde
	d.SideEffects = d.SideEffects || o.SideEffects
}

// normalize sorts and dedups the variable list.
func (d *Deps) normalize() {
	sort.Strings(d.Vars)
	out := d.Vars[:0]
	var prev string
	for i, v := range d.Vars {
		if i > 0 && v == prev {
			continue
		}
		out = append(out, v)
		prev = v
	}
	d.Vars = out
}

// AnalyzeWord computes the dependency summary of one word.
func AnalyzeWord(w *syntax.Word) Deps {
	var d Deps
	if w == nil {
		return d
	}
	analyzeParts(w.Parts, false, &d)
	d.normalize()
	return d
}

// AnalyzeWords merges the summaries of a word list.
func AnalyzeWords(ws []*syntax.Word) Deps {
	var d Deps
	for _, w := range ws {
		d.Merge(AnalyzeWord(w))
	}
	d.normalize()
	return d
}

func analyzeParts(parts []syntax.WordPart, quoted bool, d *Deps) {
	for i, part := range parts {
		switch p := part.(type) {
		case *syntax.Lit:
			if !quoted {
				if i == 0 && len(p.Value) > 0 && p.Value[0] == '~' {
					d.HasTilde = true
					d.Vars = append(d.Vars, "HOME")
				}
				if hasGlobMeta(p.Value) {
					d.HasGlob = true
				}
			}
		case *syntax.SglQuoted:
			// inert
		case *syntax.DblQuoted:
			analyzeParts(p.Parts, true, d)
		case *syntax.ParamExp:
			d.Vars = append(d.Vars, p.Name)
			switch p.Op {
			case syntax.ParamAssign:
				d.SideEffects = true
			case syntax.ParamError:
				d.SideEffects = true // can abort the shell
			}
			if p.Word != nil {
				analyzeParts(p.Word.Parts, quoted, d)
			}
			if !quoted {
				// Unquoted expansion results are field-split and globbed.
				d.Vars = append(d.Vars, "IFS")
				d.HasGlob = true
			}
		case *syntax.CmdSubst:
			d.HasCmdSubst = true
			d.SideEffects = true
			// Variables read inside the substitution body still count.
			syntax.Walk(&syntax.Script{Stmts: p.Stmts}, func(n syntax.Node) bool {
				if pe, ok := n.(*syntax.ParamExp); ok {
					d.Vars = append(d.Vars, pe.Name)
				}
				return true
			})
		case *syntax.ArithExp:
			d.HasArith = true
			// Command substitution hiding inside the arithmetic text runs
			// commands when the expression is pre-expanded.
			if strings.Contains(p.Expr, "$(") || strings.ContainsRune(p.Expr, '`') {
				d.HasCmdSubst = true
			}
			// Text the arithmetic parser cannot read — at all, or until
			// ${...} and $(...) have been expanded — may assign anything.
			a, err := CompileArithExpr(p.Expr)
			if err != nil {
				d.SideEffects = true
				continue
			}
			reads, assigns := a.Names()
			d.Vars = append(append(d.Vars, reads...), assigns...)
			if len(assigns) > 0 {
				d.SideEffects = true
			}
		}
	}
}

func hasGlobMeta(s string) bool {
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '\\':
			i++
		case '*', '?', '[':
			return true
		}
	}
	return false
}
