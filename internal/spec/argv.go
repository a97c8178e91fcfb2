package spec

import (
	"fmt"
	"strings"
)

// Grammar says how a command's argument vector is cut into options,
// option values and operands, and which operands name input files. It is
// the only description of that in the tree: the planner (Resolve), the
// analyses, the linter and the utilities themselves all read a command
// line through Scan with the command's Grammar.
type Grammar struct {
	// ValueFlags lists the single-letter options that take a value: the
	// rest of their cluster, or else the next word.
	ValueFlags string `json:"value_flags,omitempty"`
	// OnlyFlags, when non-empty, is every option letter the command
	// accepts; any other letter is an error rather than an ignored
	// boolean.
	OnlyFlags string `json:"only_flags,omitempty"`
	// ScriptOperand names ("pattern", "script", "program") what the first
	// operand is when it is code rather than a file: grep, sed, awk.
	ScriptOperand string `json:"script_operand,omitempty"`
	// ScriptFlags lists the value flags that supply that code instead
	// (-e); when one is present every operand is a file.
	ScriptFlags string `json:"script_flags,omitempty"`
	// OperandsAreInputs marks commands whose operands (after the script,
	// if any) name input files, with "-"/absence meaning stdin.
	OperandsAreInputs bool `json:"operands_are_inputs,omitempty"`
}

// grammars is the one declaration of each utility's argv grammar; a
// utility absent from it takes only boolean options. Library commands get
// their Spec.Grammar from here (Builtin), and the coreutils parse their
// own argv with the same entry (Parse), so the letters are written once.
// Entries for names outside the Library (split, truncate, install) do not
// make them dataflow commands; truncate and install exist only for the
// effect analysis.
//
// Not getopt-shaped, and so parsed by their own code rather than by Scan:
// test/[ (an expression), find (primaries), printf and echo (every word is
// data), seq (negative numbers), env (NAME=value prefix), dd (key=value),
// basename/dirname/sleep (positional), and the command xargs runs (Scan
// stops at its name; the rest is that command's argv). Shell builtins in
// internal/interp parse their own options too. Walks over unexpanded AST
// words (lint's non-literal fallback, the analysis heuristics for partly
// dynamic commands) are approximations of this grammar, not copies of it:
// they cannot call Scan because the words have no values yet.
var grammars = map[string]Grammar{
	"cat":      {OperandsAreInputs: true},
	"grep":     {ValueFlags: "e", ScriptOperand: "pattern", ScriptFlags: "e", OperandsAreInputs: true},
	"cut":      {ValueFlags: "cfd", OperandsAreInputs: true},
	"sort":     {ValueFlags: "kto", OperandsAreInputs: true},
	"uniq":     {OperandsAreInputs: true},
	"wc":       {OperandsAreInputs: true},
	"head":     {ValueFlags: "nc", OperandsAreInputs: true},
	"tail":     {ValueFlags: "nc", OperandsAreInputs: true},
	"sed":      {ValueFlags: "e", OnlyFlags: "ne", ScriptOperand: "script", ScriptFlags: "e", OperandsAreInputs: true},
	"awk":      {ValueFlags: "Fv", OnlyFlags: "Fv", ScriptOperand: "program", OperandsAreInputs: true},
	"comm":     {OperandsAreInputs: true},
	"join":     {OperandsAreInputs: true},
	"shuf":     {ValueFlags: "n", OperandsAreInputs: true},
	"paste":    {ValueFlags: "d", OperandsAreInputs: true},
	"rev":      {OperandsAreInputs: true},
	"fold":     {ValueFlags: "w", OperandsAreInputs: true},
	"nl":       {OperandsAreInputs: true},
	"tac":      {OperandsAreInputs: true},
	"expand":   {ValueFlags: "t", OperandsAreInputs: true},
	"unexpand": {ValueFlags: "t", OperandsAreInputs: true},
	"tsort":    {OperandsAreInputs: true},
	"xargs":    {ValueFlags: "n"},
	"split":    {ValueFlags: "bl"},
	"truncate": {ValueFlags: "s"},
	"install":  {ValueFlags: "mog"},
}

// Flag is one option occurrence on a command line.
type Flag struct {
	Letter byte
	Value  string // "" for a boolean option
	Arg    int    // argv index of the word the letter appeared in
}

// Parsed is an argv cut up by Scan.
type Parsed struct {
	// Flags are the options in argv order, repeats included.
	Flags []Flag
	// Operands are the words after the options (and after the script
	// operand, if the grammar has one): argv[First:].
	Operands []string
	// First is the argv index of Operands[0], len(argv) when there is none.
	First int

	script      string // the script operand, when no script flag replaced it
	hasScript   bool
	scriptFlags string
}

// Has reports whether option f was given.
func (p *Parsed) Has(f byte) bool {
	for _, fl := range p.Flags {
		if fl.Letter == f {
			return true
		}
	}
	return false
}

// Value returns the value of the last occurrence of option f.
func (p *Parsed) Value(f byte) (string, bool) {
	for i := len(p.Flags) - 1; i >= 0; i-- {
		if p.Flags[i].Letter == f {
			return p.Flags[i].Value, true
		}
	}
	return "", false
}

// Values returns the value of every occurrence of option f, in order.
func (p *Parsed) Values(f byte) []string {
	var vs []string
	for _, fl := range p.Flags {
		if fl.Letter == f {
			vs = append(vs, fl.Value)
		}
	}
	return vs
}

// Scripts returns the script texts (grep's pattern, sed's scripts, awk's
// program) in argv order: the values of the grammar's script flags, or
// else the script operand. It is empty for a grammar without one.
func (p *Parsed) Scripts() []string {
	if p.hasScript {
		return []string{p.script}
	}
	var ss []string
	for _, fl := range p.Flags {
		if strings.IndexByte(p.scriptFlags, fl.Letter) >= 0 {
			ss = append(ss, fl.Value)
		}
	}
	return ss
}

// Scan cuts argv (argv[0] is the command name) into options and operands
// the way the utilities execute it, which is POSIX utility syntax
// guideline 9: options precede operands. Scanning stops at "--" or at the
// first word that is not an option; a lone "-" is an operand; a value flag
// takes the rest of its cluster or, if that is empty, the next word.
// Nothing permutes: a word that looks like an option after the first
// operand is an operand. A missing value, a letter outside OnlyFlags and a
// missing script operand are errors.
func (g *Grammar) Scan(argv []string) (Parsed, error) {
	p := Parsed{scriptFlags: g.ScriptFlags}
	scripted := false
	i := 1
words:
	for ; i < len(argv); i++ {
		a := argv[i]
		if a == "--" {
			i++
			break
		}
		if len(a) < 2 || a[0] != '-' {
			break
		}
		for j := 1; j < len(a); j++ {
			f := a[j]
			if g.OnlyFlags != "" && strings.IndexByte(g.OnlyFlags, f) < 0 {
				return Parsed{}, fmt.Errorf("unknown option -%c", f)
			}
			if strings.IndexByte(g.ValueFlags, f) < 0 {
				p.Flags = append(p.Flags, Flag{Letter: f, Arg: i})
				continue
			}
			fl := Flag{Letter: f, Value: a[j+1:], Arg: i}
			if fl.Value == "" {
				if i++; i >= len(argv) {
					return Parsed{}, fmt.Errorf("option -%c requires an argument", f)
				}
				fl.Value = argv[i]
			}
			p.Flags = append(p.Flags, fl)
			scripted = scripted || strings.IndexByte(g.ScriptFlags, f) >= 0
			continue words
		}
	}
	if g.ScriptOperand != "" && !scripted {
		if i >= len(argv) {
			return Parsed{}, fmt.Errorf("missing %s", g.ScriptOperand)
		}
		p.script, p.hasScript = argv[i], true
		i++
	}
	p.First = i
	p.Operands = argv[i:]
	return p, nil
}

// Parse scans a utility's own argv with the grammar declared for
// argv[0]. It is how the coreutils (and the effect analysis, for commands
// outside the Library) read a command line.
func Parse(argv []string) (Parsed, error) {
	g := grammars[argv[0]]
	return g.Scan(argv)
}
