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
// provably side-effect free. AnalyzeWord, which computes it from the
// word's plan, is the one reader that asks about variables: every
// analysis of what a word may read or assign loops over Effects.
type Deps struct {
	// Vars are the variable names read (positional and special parameters
	// appear by their spelling: "1", "@", "?", ...).
	Vars []string
	// Reads of dynamic state beyond plain variables.
	HasCmdSubst bool // $(...) or `...`: runs arbitrary commands
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
// order, everything else merged. It reads each word's plan, so that it
// and Run agree on which fragments are expansions and which are split.
func AnalyzeWords(ws []*syntax.Word) Deps {
	var d Deps
	for _, w := range ws {
		if w != nil {
			Lower(w, func(fs []Frag) { analyzeFrags(fs, true, w.Pos(), &d) })
		}
	}
	slices.Sort(d.Vars)
	d.Vars = slices.Compact(d.Vars)
	return d
}

// analyzeFrags adds to d what expanding fragments reads and does; split
// says their unquoted results are field-split (a string or pattern
// operand's are not), and pos is where the word they lower starts.
func analyzeFrags(fs []Frag, split bool, pos syntax.Pos, d *Deps) {
	for i := 0; i < len(fs); i++ {
		f := &fs[i]
		sub := fs[i+1 : i+1+int(f.N)]
		i += int(f.N)
		splits := split && !f.Quoted
		switch f.Kind {
		case Tilde:
			d.Vars = append(d.Vars, "HOME")
			d.Effects = append(d.Effects, VarEffect{Kind: EffectRead, Name: "HOME", Pos: pos, Guarded: true})
		case Group:
			analyzeFrags(sub, split, pos, d)
		case Param:
			p := f.Param
			d.Vars = append(d.Vars, p.Name)
			d.Effects = append(d.Effects, VarEffect{Kind: EffectRead, Name: p.Name, Pos: p.Pos(), Guarded: providesForUnset(p)})
			analyzeFrags(sub, split && inPlace(p.Op), p.Pos(), d)
			switch p.Op {
			case syntax.ParamAssign:
				d.SideEffects = true
				d.Effects = append(d.Effects, VarEffect{Kind: EffectAssign, Name: p.Name, Pos: p.Pos()})
			case syntax.ParamError:
				d.SideEffects = true // can abort the shell
				d.Effects = append(d.Effects, VarEffect{Kind: EffectAbort, Name: p.Name, Pos: p.Pos()})
			}
			if splits {
				splitRead(p.Pos(), d)
			}
		case Subst:
			p := f.Subst
			d.HasCmdSubst = true
			d.SideEffects = true
			d.Effects = append(d.Effects, VarEffect{Kind: EffectSubst, Pos: p.Pos(), Body: p.Stmts})
			if splits {
				splitRead(p.Pos(), d)
			}
			// Variables read inside the substitution body still count.
			syntax.Walk(&syntax.Script{Stmts: p.Stmts}, func(n syntax.Node) bool {
				if pe, ok := n.(*syntax.ParamExp); ok {
					d.Vars = append(d.Vars, pe.Name)
				}
				return true
			})
		case Arith:
			p := f.Arith
			if splits {
				splitRead(p.Pos(), d)
			}
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

// providesForUnset reports whether a ${x...} form provides for an unset
// x, making something other than x's value of it: the default, assign,
// error and alternative forms. Every other form reads x as $x does, and is
// fatal under set -u when x is unset.
func providesForUnset(pe *syntax.ParamExp) bool { return Choose(pe, false, true) >= UseOperand }

// splitRead records that an unquoted expansion's result is field-split:
// a read of IFS (an unset IFS splits as the default does).
func splitRead(pos syntax.Pos, d *Deps) {
	d.Vars = append(d.Vars, "IFS")
	d.Effects = append(d.Effects, VarEffect{Kind: EffectRead, Name: "IFS", Pos: pos, Guarded: true})
}
