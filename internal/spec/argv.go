package spec

import (
	"errors"
	"fmt"
	"strconv"
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
	// OnlyFlags is every option letter the command accepts, value flags
	// included; any other letter is an error, so a utility never runs
	// with an option it would ignore. AnyFlags lifts the rule: every
	// letter outside ValueFlags is then a boolean option.
	OnlyFlags string `json:"only_flags,omitempty"`
	AnyFlags  bool   `json:"any_flags,omitempty"`
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

// grammars is the one declaration of each utility's argv grammar. Library
// commands get their Spec.Grammar from here (Builtin), and the coreutils
// parse their own argv with the same entry (Parse), so the letters are
// written once. An entry's OnlyFlags are the letters its implementation
// reads, plus a letter it accepts as a no-op only where the host's tool
// agrees (cat -u, grep -E); head and tail take no -N, which POSIX does not
// specify. A utility absent from the table takes any letter as a boolean
// option (AnyFlags). Entries for names outside the Library (split,
// truncate, install) do not make them dataflow commands; truncate and
// install exist only for the effect analysis, and having no implementation
// to read letters, take any.
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
	"cat":      {OnlyFlags: "nu", OperandsAreInputs: true},
	"grep":     {ValueFlags: "e", OnlyFlags: "EFcinqve", ScriptOperand: "pattern", ScriptFlags: "e", OperandsAreInputs: true},
	"cut":      {ValueFlags: "cfd", OnlyFlags: "cdfs", OperandsAreInputs: true},
	"sort":     {ValueFlags: "kto", OnlyFlags: "cmnrukto", OperandsAreInputs: true},
	"uniq":     {OnlyFlags: "cdu", OperandsAreInputs: true},
	"wc":       {OnlyFlags: "clw", OperandsAreInputs: true},
	"head":     {ValueFlags: "nc", OnlyFlags: "nc", OperandsAreInputs: true},
	"tail":     {ValueFlags: "nc", OnlyFlags: "nc", OperandsAreInputs: true},
	"sed":      {ValueFlags: "e", OnlyFlags: "ne", ScriptOperand: "script", ScriptFlags: "e", OperandsAreInputs: true},
	"awk":      {ValueFlags: "Fv", OnlyFlags: "Fv", ScriptOperand: "program", OperandsAreInputs: true},
	"comm":     {OnlyFlags: "123", OperandsAreInputs: true},
	"join":     {OperandsAreInputs: true},
	"shuf":     {ValueFlags: "n", OnlyFlags: "n", OperandsAreInputs: true},
	"paste":    {ValueFlags: "d", OnlyFlags: "d", OperandsAreInputs: true},
	"rev":      {OperandsAreInputs: true},
	"fold":     {ValueFlags: "w", OnlyFlags: "w", OperandsAreInputs: true},
	"nl":       {OperandsAreInputs: true},
	"tac":      {OperandsAreInputs: true},
	"expand":   {ValueFlags: "t", OnlyFlags: "t", OperandsAreInputs: true},
	"unexpand": {ValueFlags: "t", OnlyFlags: "t", OperandsAreInputs: true},
	"tsort":    {OperandsAreInputs: true},
	"xargs":    {ValueFlags: "n", OnlyFlags: "n"},
	"split":    {ValueFlags: "bl", OnlyFlags: "bl"},
	"truncate": {ValueFlags: "s", AnyFlags: true},
	"install":  {ValueFlags: "mog", AnyFlags: true},
}

// grammarOf is the grammar of the utility called name.
func grammarOf(name string) Grammar {
	if g, ok := grammars[name]; ok {
		return g
	}
	return Grammar{AnyFlags: true}
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
// operand is an operand. A missing value, a letter outside OnlyFlags (unless
// AnyFlags) and a missing script operand are errors.
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
			if !g.AnyFlags && strings.IndexByte(g.OnlyFlags, f) < 0 {
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
	g := grammarOf(argv[0])
	return g.Scan(argv)
}

// SortKey is a `sort -k POS1[,POS2]` in the zero-based form POSIX's rules
// are easiest to state in: the key starts SChar bytes into field SWord
// and ends EChar bytes into field EWord, or at the end of field EWord
// when EChar is 0, or at the end of the line when EWord is -1.
type SortKey struct{ SWord, SChar, EWord, EChar int }

// SortFields reads sort's field options from its scanned argv: the -t
// separator byte (-1 without -t) and the -k key (nil without -k). A -t
// that is not one byte, a second -k, and a type letter attached to a key
// position (-k2n, -k1b) are errors.
func SortFields(p *Parsed) (tab int, key *SortKey, err error) {
	tab = -1
	if t, ok := p.Value('t'); ok {
		if len(t) != 1 {
			return 0, nil, fmt.Errorf("-t needs a single-byte separator, not %q", t)
		}
		tab = int(t[0])
	}
	switch ks := p.Values('k'); len(ks) {
	case 0:
		return tab, nil, nil
	case 1:
		key, err = parseSortKey(ks[0])
		return tab, key, err
	}
	return 0, nil, errors.New("only one -k key is supported")
}

// maxSortKeyPos bounds a key's field and character numbers: any larger
// one reaches past the longest line sort accepts, and adding two of them
// to an offset cannot overflow.
const maxSortKeyPos = 1 << 30

// parseSortKey parses -k N[.C][,M[.C]].
func parseSortKey(v string) (*SortKey, error) {
	num := func(s string) int { // -1 unless s is a decimal number
		if s == "" || s[0] < '0' || s[0] > '9' {
			return -1
		}
		n, err := strconv.Atoi(s)
		if errors.Is(err, strconv.ErrRange) || n > maxSortKeyPos {
			return maxSortKeyPos // past the end of any line
		}
		if err != nil {
			return -1
		}
		return n
	}
	pos := func(s string, defChar int) (field, char int) {
		f, c, dot := strings.Cut(s, ".")
		if !dot {
			return num(f), defChar
		}
		return num(f), num(c)
	}
	pos1, pos2, hasEnd := strings.Cut(v, ",")
	f, ch := pos(pos1, 1)
	ok := f >= 1 && ch >= 1
	k := &SortKey{SWord: f - 1, SChar: ch - 1, EWord: -1}
	if hasEnd {
		f, ch = pos(pos2, 0)
		ok = ok && f >= 1 && ch >= 0
		k.EWord, k.EChar = f-1, ch
	}
	if !ok {
		return nil, fmt.Errorf("invalid key %s", v)
	}
	return k, nil
}
