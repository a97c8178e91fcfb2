package analysis

import (
	"strings"

	"jash/internal/syntax"
)

// DefKind classifies how a variable acquired a value.
type DefKind int

const (
	// DefAssign is a plain `x=value` statement assignment.
	DefAssign DefKind = iota
	// DefRead is a variable set by the `read` builtin.
	DefRead
	// DefFor is a for-loop iteration variable.
	DefFor
	// DefLocal is a `local x=value` function-frame assignment.
	DefLocal
	// DefGetopts is the variable `getopts` cycles through.
	DefGetopts
	// DefParam is a ${x=w} expansion-time assignment.
	DefParam
	// DefTempEnv is a `x=1 cmd` per-command environment binding.
	DefTempEnv
	// DefExport is `export x=value` (or readonly).
	DefExport
)

var defKindNames = [...]string{"assign", "read", "for", "local", "getopts", "param", "temp-env", "export"}

func (k DefKind) String() string { return defKindNames[k] }

// Def is one definition site in the def-use chain.
type Def struct {
	Name string
	Pos  syntax.Pos
	Kind DefKind
	// Conditional marks defs inside branch or loop bodies — they may
	// never execute, so they suppress rather than trigger diagnostics.
	Conditional bool
	// HasCmdSubst marks values that run commands; overwriting them is
	// not a dead store of work.
	HasCmdSubst bool
	// Uses counts the reads observed while this def was the visible
	// binding.
	Uses int
	// KilledBy is the unconditional same-frame def that overwrote this
	// one while Uses was still zero — the dead-assignment witness.
	KilledBy *Def

	frame int
}

// UseBeforeDef is a read of a variable at a program point before any
// definition, in a scope where a definition does appear later — the
// ordering bug JSH401 reports.
type UseBeforeDef struct {
	Name   string
	UsePos syntax.Pos
	DefPos syntax.Pos
}

// LostAssign is a definition made inside a subshell (or non-loop
// pipeline stage) whose variable the parent scope reads afterwards,
// without an intervening parent definition — the value can never reach
// that read.
type LostAssign struct {
	Def    *Def
	UsePos syntax.Pos
}

// DefUse is the result of the def-use analysis.
type DefUse struct {
	// Defs lists every definition site, in traversal order.
	Defs []*Def
	// UseBeforeDefs lists use-before-assign witnesses.
	UseBeforeDefs []UseBeforeDef
	// Lost lists subshell assignments with unreachable later uses.
	Lost []LostAssign
}

// DeadDefs returns the definitions whose values were provably never
// read: overwritten unconditionally in the same frame before any use.
func (du *DefUse) DeadDefs() []*Def {
	var out []*Def
	for _, d := range du.Defs {
		if d.KilledBy != nil {
			out = append(out, d)
		}
	}
	return out
}

// AnalyzeDefUse computes def-use chains with scope tracking for a parsed
// script: the facts the value walk collects.
func AnalyzeDefUse(script *syntax.Script) *DefUse {
	_, du := WalkValues(script, nil, nil)
	return du
}

// ambientVars are conventional environment variables a script may read
// without assigning first even when it also assigns them later, and that
// the shell or the utilities read without a $ (so are likely inherited
// exported): they never produce use-before-assign findings, and a store to
// one is never dead. Every LC_* locale name counts too (ambient).
var ambientVars = map[string]bool{
	"HOME": true, "PATH": true, "PWD": true, "OLDPWD": true, "IFS": true,
	"PS1": true, "PS2": true, "PS4": true, "TERM": true, "USER": true,
	"LOGNAME": true, "SHELL": true, "HOSTNAME": true, "LANG": true,
	"TMPDIR": true, "EDITOR": true, "PAGER": true, "MAIL": true,
	"OPTIND": true, "OPTARG": true, "REPLY": true, "LINENO": true,
	"SECONDS": true, "RANDOM": true, "CDPATH": true, "ENV": true,
	"TZ": true, "LANGUAGE": true, "NLSPATH": true, "COLUMNS": true,
	"LINES": true, "POSIXLY_CORRECT": true,
}

// ambient reports whether name is an ambientVars name or a locale name.
func ambient(name string) bool {
	return ambientVars[name] || strings.HasPrefix(name, "LC_")
}

// setsAllExport reports whether a `set` command's operands may turn on
// allexport: -a alone or among other letters, `-o allexport`, or an
// option word not known until run time.
func setsAllExport(args []*syntax.Word) bool {
	for i := 0; i < len(args); i++ {
		text, static := staticText(args[i])
		switch {
		case !static:
			return true
		case text == "--" || !strings.HasPrefix(text, "-"):
			return false
		case text == "-o" && i+1 < len(args):
			i++
			if opt, static := staticText(args[i]); !static || opt == "allexport" {
				return true
			}
		case text != "-o" && strings.ContainsRune(text[1:], 'a'):
			return true
		}
	}
	return false
}

// flow is the def-use state at one program point of the value walk. The
// Env that carries it clones it where the walk clones the Env (subshells,
// pipeline stages, branches, loop bodies, function bodies) and merges it
// back where branches join.
type flow struct {
	st *duState
	// defs is the visible definition of each name.
	defs        map[string]*Def
	conditional bool // the point may not run: branch and loop bodies
	subshell    bool // the point runs in a copy of the shell
	inFunc      bool
	frame       int
}

// duState is what every program point of one walk shares.
type duState struct {
	res *DefUse
	// pending maps names to root-scope uses seen before any definition.
	pending map[string][]syntax.Pos
	// rootDefs is the first root-frame definition per name.
	rootDefs map[string]*Def
	// lost tracks subshell assignments awaiting a parent use.
	lost map[string]*lostEntry
	// exported are the names an `export` marked so far: every utility the
	// script runs afterwards reads them from its environment. allExport:
	// a `set -a` may have run, so every name may be exported.
	exported  map[string]bool
	allExport bool
	nextFrame int
}

type lostEntry struct {
	def       *Def
	parentDef *Def // the binding visible to the parent when the subshell ran
}

func newFlow(res *DefUse) *flow {
	st := &duState{res: res, pending: map[string][]syntax.Pos{}, rootDefs: map[string]*Def{},
		lost: map[string]*lostEntry{}, exported: map[string]bool{}}
	return &flow{st: st, defs: map[string]*Def{}}
}

func (f *flow) clone() *flow {
	nf := *f
	nf.defs = make(map[string]*Def, len(f.defs))
	for k, v := range f.defs {
		nf.defs[k] = v
	}
	return &nf
}

// enterSubshell marks a clone as a copy of the shell with a frame of its
// own: nothing it defines overwrites a parent definition.
func (f *flow) enterSubshell() {
	f.subshell = true
	f.frame = f.st.newFrame()
}

// enterFunc marks a clone as a function body, walked where it is declared
// but run at each call, in a frame of its own.
func (f *flow) enterFunc() {
	f.inFunc, f.conditional = true, false
	f.frame = f.st.newFrame()
}

func (st *duState) newFrame() int {
	st.nextFrame++
	return st.nextFrame
}

// merge folds a branch's definitions back: a name defined in any branch is
// (conditionally) visible afterwards, so later reads resolve and later
// overwrites report no dead store.
func (f *flow) merge(o *flow) {
	if f == nil || o == nil {
		return
	}
	for k, v := range o.defs {
		f.defs[k] = v
	}
}

// root reports whether the point runs in the script's own shell, outside
// any function body.
func (f *flow) root() bool { return !f.subshell && !f.inFunc }

// finish resolves the pending uses: a root-scope def later in the program
// turns each into a use-before-assign witness.
func (f *flow) finish() {
	st := f.st
	for name, uses := range st.pending {
		d, ok := st.rootDefs[name]
		if !ok {
			continue
		}
		for _, up := range uses {
			if up.Offset < d.Pos.Offset {
				st.res.UseBeforeDefs = append(st.res.UseBeforeDefs, UseBeforeDef{
					Name: name, UsePos: up, DefPos: d.Pos,
				})
			}
		}
	}
}

// recordLost diffs a subshell's state against its parent's and remembers
// fresh inner defs: a later parent use with no intervening parent def
// makes them LostAssigns.
func (f *flow) recordLost(child *flow) {
	if f == nil {
		return
	}
	for name, d := range child.defs {
		if f.defs[name] == d || d.Kind == DefTempEnv {
			continue // unchanged (the def predates the subshell), or scoped to one command
		}
		f.st.lost[name] = &lostEntry{def: d, parentDef: f.defs[name]}
	}
}

// useAll counts every visible binding as used: something ran that may read
// (or overwrite) any of them, so none is provably a dead store.
func (f *flow) useAll() {
	if f == nil {
		return
	}
	for _, d := range f.defs {
		d.Uses++
	}
}

// useExported counts the visible bindings of the exported names as used:
// a utility reads them from its environment.
func (f *flow) useExported() {
	if f == nil {
		return
	}
	if f.st.allExport {
		f.useAll()
		return
	}
	for n := range f.st.exported {
		if d := f.defs[n]; d != nil {
			d.Uses++
		}
	}
}

// define installs a def, detecting dead stores: the previous binding dies
// unread if both defs are unconditional, same-frame, and the old one is a
// plain assignment whose value ran no commands, to a variable the shell
// and the utilities never read implicitly.
func (f *flow) define(name string, pos syntax.Pos, kind DefKind, conditional bool) *Def {
	d := &Def{Name: name, Pos: pos, Kind: kind, Conditional: conditional, frame: f.frame}
	old := f.defs[name]
	if old != nil && old.Uses == 0 && old.KilledBy == nil &&
		!old.Conditional && !conditional &&
		old.frame == d.frame && !old.HasCmdSubst && !ambient(name) &&
		(old.Kind == DefAssign || old.Kind == DefLocal) &&
		(kind == DefAssign || kind == DefLocal || kind == DefRead || kind == DefExport) {
		old.KilledBy = d
	}
	f.defs[name] = d
	f.st.res.Defs = append(f.st.res.Defs, d)
	if f.root() {
		if _, ok := f.st.rootDefs[name]; !ok {
			f.st.rootDefs[name] = d
		}
		// A parent definition supersedes any pending lost-subshell entry.
		delete(f.st.lost, name)
	}
	return d
}

// use records a read of a variable. guarded uses (${x:-d} etc.) resolve
// bindings but never witness use-before-assign.
func (f *flow) use(name string, pos syntax.Pos, guarded bool) {
	if f == nil || !syntax.IsName(name) {
		return
	}
	st := f.st
	d := f.defs[name]
	// A use in the script's own shell that sees the binding a subshell
	// shadowed can never see the subshell's value.
	le, lost := st.lost[name]
	if lost = lost && f.root() && le.parentDef == d; lost {
		st.res.Lost = append(st.res.Lost, LostAssign{Def: le.def, UsePos: pos})
		delete(st.lost, name)
	}
	// A conditional point covers loop bodies too, where a previous
	// iteration may have defined the name.
	switch {
	case d != nil:
		d.Uses++
	case lost, guarded, !f.root(), f.conditional, ambient(name):
	default:
		st.pending[name] = append(st.pending[name], pos)
	}
}
