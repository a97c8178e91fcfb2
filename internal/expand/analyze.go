package expand

import (
	"slices"
	"strings"

	"jash/internal/syntax"
)

// Deps is the symbolic summary of what an expansion depends on and whether
// performing it early could change observable shell state. It answers the
// paper's B2 question — "what dynamic components does this word read?" —
// so the JIT can expand words ahead of execution only when doing so is
// provably side-effect free. AnalyzeWord, which computes it, is the one
// reader of word parts that asks about variables: every analysis of what a
// word may read or assign loops over Effects.
type Deps struct {
	// Vars are the variable names read (positional and special parameters
	// appear by their spelling: "1", "@", "?", ...).
	Vars []string
	// Reads of dynamic state beyond plain variables.
	HasCmdSubst bool // $(...) or `...`: runs arbitrary commands
	HasGlob     bool // unquoted metacharacters: reads the filesystem
	// SideEffects is true when expanding the word can mutate state:
	// ${x=w} assigns, ${x?w} can abort, $((x=1)) assigns, $(($x)) evaluates
	// whatever text x holds, and any command substitution may do anything.
	SideEffects bool
	// Effects lists, in source order, what expanding the word does with
	// shell variables, nested operand words included; a command
	// substitution's body is handed back unread (it runs in a subshell).
	Effects []VarEffect
	// Opaque marks arithmetic whose text is not an expression until it has
	// been expanded (${...}, $(...), a positional): what it reads and
	// assigns is unknown, so it may assign anything.
	Opaque bool
}

// EffectKind classifies one VarEffect.
type EffectKind uint8

const (
	// EffectRead expands the parameter Name (specials and positionals too).
	EffectRead EffectKind = iota
	// EffectAssign may assign the variable Name: ${x=w}, ${x:=w}, $((x=1)).
	EffectAssign
	// EffectAbort may end the shell when Name is unset: ${x?w}, ${x:?w}.
	EffectAbort
	// EffectSubst runs Body, a command substitution, in a subshell.
	EffectSubst
)

// VarEffect is one thing a word's expansion does with a shell variable.
type VarEffect struct {
	Kind EffectKind
	Name string
	Pos  syntax.Pos
	// Plain, on a read, says it is a $x or ${x} outside arithmetic: the
	// reference a literal value could stand in for.
	Plain bool
	// Guarded, on a read, says an unset variable is provided for: the
	// ${x-w} ${x=w} ${x+w} ${x?w} forms and arithmetic operands, which
	// read unset as 0.
	Guarded bool
	// Spliced, on a read, says the variable is written $x inside $((...)):
	// its value is pasted into the expression text, so unless that value
	// is an integer literal the expression may assign anything.
	Spliced bool
	// Body is the substituted command list of an EffectSubst.
	Body []*syntax.Stmt
}

// SafeToExpandEarly reports whether the JIT may expand this word before
// its surrounding command actually runs: the expansion must not mutate
// shell state. Reading variables and the filesystem is fine — the JIT
// re-validates liveness at dispatch time — but assignments, abort
// operators, and command substitutions are not.
func (d Deps) SafeToExpandEarly() bool { return !d.SideEffects }

// AnalyzeWord computes the dependency summary of one word.
func AnalyzeWord(w *syntax.Word) Deps { return AnalyzeWords([]*syntax.Word{w}) }

// AnalyzeWords computes the summary of a word list: the words' effects in
// order, everything else merged.
func AnalyzeWords(ws []*syntax.Word) Deps {
	var d Deps
	for _, w := range ws {
		if w != nil {
			analyzeParts(w.Parts, false, &d)
		}
	}
	slices.Sort(d.Vars)
	d.Vars = slices.Compact(d.Vars)
	return d
}

func analyzeParts(parts []syntax.WordPart, quoted bool, d *Deps) {
	for i, part := range parts {
		switch p := part.(type) {
		case *syntax.Lit:
			if !quoted {
				if i == 0 && len(p.Value) > 0 && p.Value[0] == '~' {
					d.Vars = append(d.Vars, "HOME") // tilde expansion
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
			guarded := p.Op == syntax.ParamDefault || p.Op == syntax.ParamAssign ||
				p.Op == syntax.ParamError || p.Op == syntax.ParamAlt
			d.Effects = append(d.Effects, VarEffect{Kind: EffectRead, Name: p.Name, Pos: p.Pos(),
				Plain: p.Op == syntax.ParamPlain, Guarded: guarded})
			if p.Word != nil {
				analyzeParts(p.Word.Parts, quoted, d)
			}
			switch p.Op {
			case syntax.ParamAssign:
				d.SideEffects = true
				d.Effects = append(d.Effects, VarEffect{Kind: EffectAssign, Name: p.Name, Pos: p.Pos()})
			case syntax.ParamError:
				d.SideEffects = true // can abort the shell
				d.Effects = append(d.Effects, VarEffect{Kind: EffectAbort, Name: p.Name, Pos: p.Pos()})
			}
			if !quoted {
				// Unquoted expansion results are field-split and globbed.
				d.Vars = append(d.Vars, "IFS")
				d.HasGlob = true
			}
		case *syntax.CmdSubst:
			d.HasCmdSubst = true
			d.SideEffects = true
			d.Effects = append(d.Effects, VarEffect{Kind: EffectSubst, Pos: p.Pos(), Body: p.Stmts})
			// Variables read inside the substitution body still count.
			syntax.Walk(&syntax.Script{Stmts: p.Stmts}, func(n syntax.Node) bool {
				if pe, ok := n.(*syntax.ParamExp); ok {
					d.Vars = append(d.Vars, pe.Name)
				}
				return true
			})
		case *syntax.ArithExp:
			// Command substitution hiding inside the arithmetic text runs
			// commands when the expression is pre-expanded.
			if strings.Contains(p.Expr, "$(") || strings.ContainsRune(p.Expr, '`') {
				d.HasCmdSubst = true
			}
			a, err := CompileArithExpr(p.Expr)
			if err != nil {
				d.SideEffects, d.Opaque = true, true
				continue
			}
			for _, name := range a.reads {
				spliced := slices.Contains(a.spliced, name)
				d.Vars = append(d.Vars, name)
				d.Effects = append(d.Effects, VarEffect{Kind: EffectRead, Name: name, Pos: p.Pos(),
					Guarded: true, Spliced: spliced})
				d.SideEffects = d.SideEffects || spliced
			}
			for _, name := range a.assigns {
				d.Vars = append(d.Vars, name)
				d.Effects = append(d.Effects, VarEffect{Kind: EffectAssign, Name: name, Pos: p.Pos()})
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
