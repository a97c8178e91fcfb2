// The variable-effect model every analysis here (and, through AssignedBy,
// the planners in package rewrite) reads instead of keeping rules of its
// own: builtinTable says what each builtin does to variables, functions and
// positionals, AssignedBy which variables a subtree may assign. What one
// word reads and assigns is the third part, expand.AnalyzeWord.
package analysis

import (
	"sort"
	"strconv"
	"strings"

	"jash/internal/expand"
	"jash/internal/syntax"
)

// operandRule says which operands of a builtin name variables.
type operandRule uint8

const (
	noNames       operandRule = iota
	everyOperand              // each operand is a variable name (read, unset)
	declOperands              // each operand is NAME or NAME=value (export, readonly, local)
	secondOperand             // the second operand is a variable name (getopts)
)

// builtinRow is everything the analyses know about one builtin.
type builtinRow struct {
	// blocker is why a statement that runs the builtin stays in program
	// order ("": it may leave). inCall lifts it inside a summarized
	// function body: the effect ends with the call frame (local, return,
	// shift) or is an ordinary definition (read, readonly). export's does
	// not lift: every utility started later reads the exported
	// environment, which no summary models, so a call that exports is
	// pinned as an export statement is.
	blocker string
	inCall  bool
	// The builtin's own variable effect: which operands name variables,
	// how def-use classifies those definitions, whether they are removed
	// instead, and what is assigned besides.
	names    operandRule
	fallback string // the variable named when no operand names one
	def      DefKind
	unsets   bool
	implicit []string
	anything bool // runs unseen code in this shell: any variable, any function may change
	params   bool // rewrites the positional parameters or the option flags
	runs     bool // runs commands the analyses cannot see: ⊤ on the filesystem
	stdin    bool // consumes the shell's standard input
	external bool // modelled for scripts of other shells; not in the interpreter's registry
	// funcFlag: under a leading -f the operands name functions, not
	// variables, and the builtin removes them from the function table.
	funcFlag bool
}

// builtinTable has one row per interpreter builtin (core's
// TestAnalysisKnowsEveryInterpreterBuiltin holds InterpBuiltins equal to
// interp's registry, which this package does not import) plus the external
// rows. Whether a row or a function answers for a name is commandOf's
// question.
var builtinTable = map[string]builtinRow{
	":":        {},
	"pwd":      {},
	"type":     {},
	"cd":       {blocker: "changes the working directory", implicit: []string{"PWD", "OLDPWD"}},
	"exit":     {blocker: "exits the shell"},
	"return":   {blocker: "returns from a function", inCall: true},
	"break":    {blocker: "breaks a loop"},
	"continue": {blocker: "continues a loop"},
	"trap":     {blocker: "installs a trap"},
	"wait":     {blocker: "synchronizes on background jobs"},
	"umask":    {blocker: "mutates the file mode mask"},
	"exec":     {blocker: "replaces the shell", runs: true},
	"shift":    {blocker: "shifts positional parameters", inCall: true, params: true},
	"set":      {blocker: "mutates shell options/positionals", params: true},
	"eval":     {blocker: "evaluates dynamic code", anything: true, runs: true},
	".":        {blocker: "sources a script", anything: true, runs: true, external: true},
	"source":   {blocker: "sources a script", anything: true, runs: true, external: true},
	"unset": {blocker: "unsets variables or functions by name", names: everyOperand, unsets: true,
		funcFlag: true},
	"read": {blocker: "reads shared stdin into variables", inCall: true,
		names: everyOperand, fallback: "REPLY", def: DefRead, stdin: true},
	"export": {blocker: "mutates the environment",
		names: declOperands, def: DefExport},
	"readonly": {blocker: "marks variables readonly", inCall: true,
		names: declOperands, def: DefExport},
	"local": {blocker: "declares locals", inCall: true,
		names: declOperands, def: DefLocal},
	"getopts": {blocker: "advances OPTIND state",
		names: secondOperand, def: DefGetopts, implicit: []string{"OPTARG", "OPTIND"}},
}

// dynamicCommand is the row of a command word that is not a plain static
// name: after expansion it could be any builtin, eval included.
var dynamicCommand = builtinRow{blocker: "is not a static command name",
	anything: true, params: true, runs: true}

// InterpBuiltins lists the builtinTable rows the interpreter implements,
// sorted.
func InterpBuiltins() []string {
	var names []string
	for n, row := range builtinTable {
		if !row.external {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	return names
}

// command is what a simple command runs.
type command struct {
	row  builtinRow
	name string // the command word as printed
	// builtin: row is the builtin's, or, for a command word that is not
	// static, the dynamic row. Otherwise body is the function's that has
	// the name, or nil for a utility.
	builtin bool
	body    syntax.Command
	// persists: the assignment prefix outlives the command, as a special
	// builtin's does (POSIX 2.14); mayPersist: it may, the name being
	// known only at run time.
	persists, mayPersist bool
}

// commandOf resolves a simple command with at least one word by the
// shell's lookup rule (syntax.ClassOf), against the functions funcBody
// (nil: none) knows.
func commandOf(sc *syntax.SimpleCommand, funcBody func(string) syntax.Command) command {
	name, static := staticText(sc.Args[0])
	if !static {
		return command{row: dynamicCommand, name: syntax.PrintWord(sc.Args[0]), builtin: true, mayPersist: true}
	}
	c := command{name: name, persists: syntax.ClassOf(name) == syntax.SpecialBuiltin}
	if c.body = Called(name, funcBody); c.body == nil {
		c.row, c.builtin = builtinTable[name]
	}
	return c
}

// Called is the body of the function a command named name runs, among the
// functions funcBody (nil: none) knows, or nil: a function has every name
// but a special builtin's.
func Called(name string, funcBody func(string) syntax.Command) syntax.Command {
	if funcBody == nil || syntax.ClassOf(name) == syntax.SpecialBuiltin {
		return nil
	}
	return funcBody(name)
}

// Declared is the function table of the declarations node makes, anywhere
// in it, the last of a name winning: the table of a script run by no
// shell.
func Declared(node syntax.Node) func(string) syntax.Command {
	funcs := map[string]syntax.Command{}
	syntax.Walk(node, func(n syntax.Node) bool {
		if fd, ok := n.(*syntax.FuncDecl); ok {
			funcs[fd.Name] = fd.Body
		}
		return true
	})
	return func(name string) syntax.Command { return funcs[name] }
}

// staticText is the word's value when the word is that and nothing else:
// no expansion, no glob.
func staticText(w *syntax.Word) (string, bool) {
	return w.StaticValue(), w.IsStatic() && !expand.MayGlob(w)
}

// operand is one variable a builtin's operand names.
type operand struct {
	name     string
	hasValue bool // written NAME=value
	word     *syntax.Word
}

// operands lists the variables the command's operands name under the row's
// rule. exact=false means an operand that should name a variable is not
// static, so the command may name any.
func (r builtinRow) operands(sc *syntax.SimpleCommand) (ops []operand, exact bool) {
	args := sc.Args[1:]
	if f, known := r.functionOperands(sc); f && known {
		return nil, true
	}
	switch r.names {
	case noNames:
		return nil, true
	case secondOperand:
		if len(args) < 2 {
			return nil, true
		}
		args = args[1:2]
	}
	exact = true
	for _, w := range args {
		text, static := staticText(w)
		if !static {
			exact = false
			continue
		}
		name, _, hasValue := strings.Cut(text, "=")
		if r.names != declOperands {
			name, hasValue = text, false
		}
		if syntax.IsName(name) { // flags (-r, -p, -f) and junk name nothing
			ops = append(ops, operand{name: name, hasValue: hasValue, word: w})
		}
	}
	if len(ops) == 0 && exact && r.fallback != "" {
		ops = []operand{{name: r.fallback, word: sc.Args[0]}}
	}
	return ops, exact
}

// functionOperands reports whether the command's operands name functions:
// the row has funcFlag and the last of its leading -f/-v options is -f
// (`unset -f f`). known=false means an option word is not static, so it
// may be -f.
func (r builtinRow) functionOperands(sc *syntax.SimpleCommand) (f, known bool) {
	if !r.funcFlag {
		return false, true
	}
	for _, w := range sc.Args[1:] {
		text, static := staticText(w)
		switch {
		case !static:
			return false, false
		case text == "-f" || text == "-v":
			f = text == "-f"
		default:
			return f, true
		}
	}
	return f, true
}

// opaque reports whether expanding a word with these effects may assign
// variables the effects do not name: arithmetic that is not an expression
// until it is expanded, or a $name pasted into an expression unless env
// (nil: no value knowledge) proves its value an integer literal.
func opaque(d expand.Deps, env *Env) bool {
	if d.Opaque {
		return true
	}
	for _, e := range d.Effects {
		if e.Spliced && (env == nil || !isIntLiteral(env.Resolve(e.Name))) {
			return true
		}
	}
	return false
}

func isIntLiteral(v AbsVal) bool {
	_, err := strconv.ParseInt(v.Str, 10, 64)
	return v.IsConst() && err == nil
}

// AssignedBy returns the variables executing node may assign or unset in
// the shell that runs it — assignments, for variables, every word's
// assigning expansions, the builtins' operands — following calls into the
// function bodies funcBody knows (nil: none). any=true means the set is not
// exhaustive: the subtree runs eval or a command named only at run time,
// names a builtin's operand dynamically, or expands arithmetic that is
// opaque until expanded; callers must then assume every variable (and the
// function table) changed. Subshell-scoped parts count too: over-approximate.
func AssignedBy(node syntax.Node, funcBody func(string) syntax.Command) (names map[string]bool, any bool) {
	names = map[string]bool{}
	walkCalls(node, funcBody, func(n syntax.Node) bool {
		switch x := n.(type) {
		case *syntax.Assign:
			names[x.Name] = true
		case *syntax.ForClause:
			names[x.Name] = true
		case *syntax.Word:
			d := expand.AnalyzeWord(x)
			for _, e := range d.Effects {
				if e.Kind == expand.EffectAssign {
					names[e.Name] = true
				}
			}
			any = any || opaque(d, nil)
			return false // nested words are in d; substitutions run in subshells
		case *syntax.SimpleCommand:
			if len(x.Args) == 0 {
				break
			}
			// A builtin's row counts even where a function may shadow it:
			// walkCalls walks the function too.
			row := commandOf(x, nil).row
			ops, exact := row.operands(x)
			for _, op := range ops {
				names[op.name] = true
			}
			for _, n := range row.implicit {
				names[n] = true
			}
			any = any || !exact || row.anything
		}
		return true
	})
	return names, any
}

// FuncTableChangedBy reports whether executing node may change the
// function table, following calls as AssignedBy does: a function
// declaration (except one that re-declares the very body funcBody already
// maps the name to — a whole-script table), `unset -f`, or anything
// AssignedBy cannot bound, which is how eval and its kind, that can declare
// functions at run time, report themselves.
func FuncTableChangedBy(node syntax.Node, funcBody func(string) syntax.Command) bool {
	_, changed := AssignedBy(node, funcBody)
	walkCalls(node, funcBody, func(n syntax.Node) bool {
		switch x := n.(type) {
		case *syntax.FuncDecl:
			// Declaring runs nothing of the body: a call reaches it.
			changed = changed || funcBody == nil || funcBody(x.Name) != x.Body
			return false
		case *syntax.SimpleCommand:
			if len(x.Args) > 0 {
				f, known := commandOf(x, nil).row.functionOperands(x)
				changed = changed || f || !known
			}
		}
		return !changed
	})
	return changed
}

// walkCalls is syntax.Walk over node and, once each, the bodies funcBody
// (nil: none) gives the functions node calls, transitively.
func walkCalls(node syntax.Node, funcBody func(string) syntax.Command, visit func(syntax.Node) bool) {
	called := map[string]bool{}
	var walk func(syntax.Node)
	walk = func(node syntax.Node) {
		syntax.Walk(node, func(n syntax.Node) bool {
			if !visit(n) {
				return false
			}
			if sc, ok := n.(*syntax.SimpleCommand); ok && len(sc.Args) > 0 && funcBody != nil {
				if c := commandOf(sc, funcBody); c.body != nil && !called[c.name] {
					called[c.name] = true
					walk(c.body)
				}
			}
			return true
		})
	}
	walk(node)
}
