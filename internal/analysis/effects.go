// Package analysis is the static effect-and-dataflow engine the paper's
// §4 "Heuristic support" calls for: the whole-region analyses that make
// JIT rewrites trustworthy. PaSh/POSH trust per-command annotations in
// isolation; this package composes them into region-level facts:
//
//   - filesystem effect summaries per command (paths read, written,
//     created, removed — derived from the spec library, redirections,
//     and argument classification, with a conservative ⊤ for dynamic
//     paths like $f or globs),
//   - variable def-use chains with scope tracking (package defuse.go),
//   - a plan preflight hazard checker (hazard.go) that detects
//     write-write and read-after-write conflicts between nodes an
//     optimized plan would run concurrently.
//
// Consumers: internal/core gates compilation on the preflight (the
// `hazard-reject` decision), internal/rewrite refuses lane replication
// for nodes with write effects, and internal/lint's JSH4xx family turns
// the same facts into flow-sensitive diagnostics.
package analysis

import (
	"path"
	"sort"
	"strings"

	"jash/internal/expand"
	"jash/internal/spec"
	"jash/internal/syntax"
)

// Op is a bitmask of filesystem operations a command may perform on one
// path. The lattice is the powerset; ⊤ is "any op on an unknown path",
// represented by Summary.Unknown.
type Op uint8

const (
	// OpRead consumes the file's content.
	OpRead Op = 1 << iota
	// OpWrite modifies content (truncate, overwrite, or append).
	OpWrite
	// OpCreate may bring the file into existence.
	OpCreate
	// OpRemove may delete the file.
	OpRemove
)

// Writes reports whether the op set mutates the filesystem.
func (o Op) Writes() bool { return o&(OpWrite|OpCreate|OpRemove) != 0 }

// Reads reports whether the op set consumes file content.
func (o Op) Reads() bool { return o&OpRead != 0 }

func (o Op) String() string {
	if o == 0 {
		return "none"
	}
	var parts []string
	if o&OpRead != 0 {
		parts = append(parts, "read")
	}
	if o&OpWrite != 0 {
		parts = append(parts, "write")
	}
	if o&OpCreate != 0 {
		parts = append(parts, "create")
	}
	if o&OpRemove != 0 {
		parts = append(parts, "remove")
	}
	return strings.Join(parts, "+")
}

// Summary is one command's (or region's) filesystem effect summary.
type Summary struct {
	// Paths maps each statically-known path to the ops performed on it.
	// Keys are kept as written (relative paths stay relative); Normalize
	// resolves them against a directory.
	Paths map[string]Op
	// Unknown holds ops performed on paths the analysis cannot name: a
	// dynamic operand ($f), an unquoted glob, an unknown command. This is
	// the conservative ⊤ of the per-path lattice.
	Unknown Op
	// ReadsStdin / WritesStdout track the terminal streams.
	ReadsStdin   bool
	WritesStdout bool
	// Concretized counts dynamic words ($f operands, variable redirect
	// targets) the abstract interpreter resolved to concrete paths —
	// words that would have been ⊤ under the purely-syntactic analysis.
	Concretized int
	// Witnesses records one human-readable line per concretization, in
	// the form `$f ⇒ /tmp/a.txt`, for jashexplain and lint diagnostics.
	Witnesses []string
}

// NewSummary returns an empty summary.
func NewSummary() *Summary { return &Summary{Paths: map[string]Op{}} }

// Touch records ops on a path. Empty paths are ignored.
func (s *Summary) Touch(p string, op Op) {
	if p == "" || op == 0 {
		return
	}
	s.Paths[p] |= op
}

// Union folds another summary into this one.
func (s *Summary) Union(o *Summary) {
	if o == nil {
		return
	}
	for p, op := range o.Paths {
		s.Paths[p] |= op
	}
	s.Unknown |= o.Unknown
	s.ReadsStdin = s.ReadsStdin || o.ReadsStdin
	s.WritesStdout = s.WritesStdout || o.WritesStdout
	s.Concretized += o.Concretized
	s.Witnesses = append(s.Witnesses, o.Witnesses...)
}

// RelativePaths returns the cwd-dependent paths in the summary matching
// the op filter, sorted. These are the effects a later `cd` invalidates.
func (s *Summary) RelativePaths(filter func(Op) bool) []string {
	var out []string
	for p, op := range s.Paths {
		if !strings.HasPrefix(p, "/") && filter(op) {
			out = append(out, p)
		}
	}
	sort.Strings(out)
	return out
}

// Normalize resolves every relative path against dir and cleans the
// result, returning a new summary. Use before comparing summaries that
// may come from different working directories.
func (s *Summary) Normalize(dir string) *Summary {
	ns := NewSummary()
	ns.Unknown = s.Unknown
	ns.ReadsStdin = s.ReadsStdin
	ns.WritesStdout = s.WritesStdout
	ns.Concretized = s.Concretized
	ns.Witnesses = append([]string(nil), s.Witnesses...)
	for p, op := range s.Paths {
		ns.Paths[NormalizePath(dir, p)] |= op
	}
	return ns
}

// normalizeInPlace is Normalize for a summary its caller owns: a path that
// is already absolute and clean costs nothing.
func (s *Summary) normalizeInPlace(dir string) {
	for p, op := range s.Paths {
		if np := NormalizePath(dir, p); np != p {
			delete(s.Paths, p)
			s.Paths[np] |= op
		}
	}
}

// NormalizePath resolves p against dir (when relative) and cleans it.
func NormalizePath(dir, p string) string {
	if p == "" {
		return p
	}
	if !strings.HasPrefix(p, "/") {
		if dir == "" {
			dir = "/"
		}
		p = dir + "/" + p
	}
	return path.Clean(p)
}

// String renders the summary deterministically, for golden tests and
// jashexplain: `reads[a b] writes[c] stdin stdout ⊤[write]`.
func (s *Summary) String() string {
	byOp := func(filter Op) []string {
		var out []string
		for p, op := range s.Paths {
			if op&filter != 0 {
				out = append(out, p)
			}
		}
		sort.Strings(out)
		return out
	}
	var parts []string
	if ps := byOp(OpRead); len(ps) > 0 {
		parts = append(parts, "reads["+strings.Join(ps, " ")+"]")
	}
	if ps := byOp(OpWrite | OpCreate); len(ps) > 0 {
		parts = append(parts, "writes["+strings.Join(ps, " ")+"]")
	}
	if ps := byOp(OpRemove); len(ps) > 0 {
		parts = append(parts, "removes["+strings.Join(ps, " ")+"]")
	}
	if s.ReadsStdin {
		parts = append(parts, "stdin")
	}
	if s.WritesStdout {
		parts = append(parts, "stdout")
	}
	if s.Unknown != 0 {
		parts = append(parts, "⊤["+s.Unknown.String()+"]")
	}
	if len(parts) == 0 {
		return "pure"
	}
	return strings.Join(parts, " ")
}

// mutators maps commands with filesystem write effects that the spec
// library's dataflow classes don't localize: which operands they mutate
// and how, given the command line as the one scanner (spec.Parse) cuts
// it. Commands absent from both this table and the spec library get the
// conservative ⊤ read+write.
var mutators = map[string]func(s *Summary, cl *spec.Parsed){
	"tee": func(s *Summary, cl *spec.Parsed) {
		s.ReadsStdin, s.WritesStdout = true, true
		touchAll(s, cl.Operands, OpWrite|OpCreate)
	},
	"rm":    func(s *Summary, cl *spec.Parsed) { touchAll(s, cl.Operands, OpRemove) },
	"rmdir": func(s *Summary, cl *spec.Parsed) { touchAll(s, cl.Operands, OpRemove) },
	"mkdir": func(s *Summary, cl *spec.Parsed) { touchAll(s, cl.Operands, OpCreate) },
	"touch": func(s *Summary, cl *spec.Parsed) { touchAll(s, cl.Operands, OpCreate|OpWrite) },
	"mv": func(s *Summary, cl *spec.Parsed) {
		touchSourcesAndTarget(s, cl.Operands, OpRead|OpRemove, OpWrite|OpCreate)
	},
	"cp": func(s *Summary, cl *spec.Parsed) { touchSourcesAndTarget(s, cl.Operands, OpRead, OpWrite|OpCreate) },
	"xargs": func(s *Summary, cl *spec.Parsed) {
		// Builds and runs arbitrary command lines: ⊤.
		s.ReadsStdin = true
		s.Unknown |= OpRead | OpWrite | OpCreate | OpRemove
	},
	"ln": func(s *Summary, cl *spec.Parsed) {
		op := OpCreate
		if cl.Has('f') {
			// -f replaces an existing target.
			op |= OpWrite
		}
		var src Op
		if !cl.Has('s') {
			// Hard links pin the source inode; symlinks only name it.
			src = OpRead
		}
		touchSourcesAndTarget(s, cl.Operands, src, op)
	},
	"dd": func(s *Summary, cl *spec.Parsed) {
		wrote := false
		for _, a := range cl.Operands {
			switch {
			case strings.HasPrefix(a, "if="):
				if f := a[len("if="):]; f != "" {
					s.Touch(f, OpRead)
				}
			case strings.HasPrefix(a, "of="):
				if f := a[len("of="):]; f != "" {
					s.Touch(f, OpWrite|OpCreate)
					wrote = true
				}
			}
		}
		if !wrote {
			s.WritesStdout = true
		}
		if !hasKVArg(cl.Operands, "if=") {
			s.ReadsStdin = true
		}
	},
	"truncate": func(s *Summary, cl *spec.Parsed) {
		op := OpWrite
		if !cl.Has('c') {
			op |= OpCreate
		}
		touchAll(s, cl.Operands, op)
	},
	"install": func(s *Summary, cl *spec.Parsed) {
		if cl.Has('d') {
			// install -d: every operand is a directory to create.
			touchAll(s, cl.Operands, OpCreate)
			return
		}
		touchSourcesAndTarget(s, cl.Operands, OpRead, OpWrite|OpCreate)
	},
	"split": func(s *Summary, cl *spec.Parsed) {
		// Output chunk names (xaa, xab, ...) depend on the input size,
		// so the writes stay ⊤ even though the read side is precise.
		if ops := cl.Operands; len(ops) > 0 && ops[0] != "-" {
			s.Touch(ops[0], OpRead)
		} else {
			s.ReadsStdin = true
		}
		s.Unknown |= OpWrite | OpCreate
	},
}

func touchAll(s *Summary, paths []string, op Op) {
	for _, p := range paths {
		s.Touch(p, op)
	}
}

// touchSourcesAndTarget applies target to the last of two or more
// operands and source to the rest (cp, mv, ln, install). A zero op
// touches nothing.
func touchSourcesAndTarget(s *Summary, ops []string, source, target Op) {
	for i, a := range ops {
		op := source
		if i == len(ops)-1 && len(ops) > 1 {
			op = target
		}
		if op != 0 {
			s.Touch(a, op)
		}
	}
}

// applyMutator runs a mutator over args as the scanner cuts them. An argv
// the scanner rejects is one the utility rejects too, but which one cannot
// be told from here: ⊤.
func applyMutator(s *Summary, m func(*Summary, *spec.Parsed), args []string) {
	cl, err := spec.Parse(args)
	if err != nil {
		s.Unknown |= OpRead | OpWrite | OpCreate | OpRemove
		return
	}
	m(s, &cl)
}

// hasKVArg reports whether any argument starts with the given key= prefix.
func hasKVArg(args []string, prefix string) bool {
	for _, a := range args {
		if strings.HasPrefix(a, prefix) {
			return true
		}
	}
	return false
}

// pureUtilities have no filesystem effects beyond their redirections.
var pureUtilities = map[string]bool{
	"echo": true, "printf": true, "test": true, "[": true, "true": true,
	"false": true, "seq": true, "date": true, "basename": true, "dirname": true,
	"expr": true, "sleep": true, "env": true,
}

// pureCommand reports whether a command touches no file its redirections
// do not name: the utilities above and every builtin that runs no code of
// its own (cd's cwd effect is tracked by the JSH404 lint rule, not as a
// path effect).
func pureCommand(name string) bool {
	row, builtin := builtinTable[name]
	return pureUtilities[name] || builtin && !row.runs
}

// SummarizeArgv computes the effect summary of a fully-expanded command
// invocation resolved against the spec library. This is the runtime-side
// entry point (core preflight, rewrite replication guard): every word is
// concrete, so the only ⊤ sources are unknown commands and xargs-style
// escape hatches.
func SummarizeArgv(lib *spec.Library, args []string) *Summary {
	return summarizeArgv(lib, args, nil)
}

// SummarizeResolved is SummarizeArgv of e.Args for a caller that already
// holds e = lib.Resolve(e.Args) — a dataflow node's Spec — so the argv is
// not scanned a second time.
func SummarizeResolved(lib *spec.Library, e *spec.Effective) *Summary {
	return summarizeArgv(lib, e.Args, e)
}

// summarizeArgv is SummarizeArgv; e, when not nil, is lib.Resolve(args).
func summarizeArgv(lib *spec.Library, args []string, e *spec.Effective) *Summary {
	s := NewSummary()
	if len(args) == 0 {
		return s
	}
	name := args[0]
	if m, ok := mutators[name]; ok {
		applyMutator(s, m, args)
		return s
	}
	if cs, ok := lib.Lookup(name); ok {
		if e == nil {
			e = lib.Resolve(args)
		}
		if name == "sort" {
			if out, ok := e.Parsed.Value('o'); ok {
				s.Touch(out, OpWrite|OpCreate)
			}
		}
		for _, f := range e.InputFiles {
			if f == "-" {
				s.ReadsStdin = true
				continue
			}
			s.Touch(f, OpRead)
		}
		if e.ReadsStdin {
			s.ReadsStdin = true
		}
		s.WritesStdout = true
		// Side-effectful specs without a mutator entry (unknown shape):
		// assume ⊤ writes unless the spec marks it a pure generator. The
		// library's class, not the invocation's: a refinement that demotes
		// one use of a command does not make it write.
		if cs.Class == spec.SideEffectful && !cs.Generator && name != "tee" {
			s.Unknown |= OpWrite | OpCreate | OpRemove
		}
		return s
	}
	if pureCommand(name) {
		s.WritesStdout = true
		s.ReadsStdin = builtinTable[name].stdin
		return s
	}
	// Unknown command: arbitrary behaviour (the paper's B1) — ⊤.
	s.Unknown |= OpRead | OpWrite | OpCreate | OpRemove
	s.ReadsStdin = true
	s.WritesStdout = true
	return s
}

// SummarizeCommand computes the effect summary of a simple command from
// its AST, before expansion. Static words contribute concrete paths;
// dynamic words (parameter expansions, command substitutions) and
// unquoted globs contribute ⊤ in the corresponding op. Redirections are
// folded in.
func SummarizeCommand(sc *syntax.SimpleCommand, lib *spec.Library) *Summary {
	return SummarizeCommandEnv(sc, lib, nil)
}

// SummarizeCommandEnv is SummarizeCommand with an abstract environment:
// dynamic words whose expansion the abstract interpreter can prove —
// field structure and constant values both — contribute concrete paths
// instead of ⊤, with a witness line per resolved word. A nil env
// reproduces the purely-syntactic analysis exactly.
func SummarizeCommandEnv(sc *syntax.SimpleCommand, lib *spec.Library, env *Env) *Summary {
	s := NewSummary()
	if sc == nil {
		return s
	}
	// Command substitutions anywhere in the words run arbitrary commands.
	if expand.AnalyzeWords(sc.Args).HasCmdSubst {
		s.Unknown |= OpRead | OpWrite | OpCreate | OpRemove
	}
	name := sc.Name()
	allStatic := true
	argv := make([]string, 0, len(sc.Args))
	for _, w := range sc.Args {
		if !w.IsStatic() {
			allStatic = false
			break
		}
		argv = append(argv, w.StaticValue())
	}
	// Abstract resolution: when the environment proves every word's field
	// structure and values, summarize the proven argv as if it were
	// static. This is the concretization path that turns
	// `f=/tmp/a; grep x $f` into a concrete read of /tmp/a.
	if env != nil && !allStatic {
		if argvAbs, witnesses, ok := resolveArgvAbs(sc, env); ok {
			s.Union(SummarizeArgv(lib, argvAbs))
			s.Concretized += len(witnesses)
			s.Witnesses = append(s.Witnesses, witnesses...)
			foldRedirs(s, sc.Redirections, env)
			return s
		}
	}
	switch {
	case name == "":
		// $CMD args: we cannot even name the command.
		s.Unknown |= OpRead | OpWrite | OpCreate | OpRemove
	case allStatic:
		s.Union(SummarizeArgv(lib, argv))
		// Unquoted globs in static operands resolve at runtime: the
		// concrete path recorded above may be a pattern — widen reads.
		for _, w := range sc.Args[1:] {
			if expand.MayGlob(w) {
				s.Unknown |= OpRead
			}
		}
	default:
		// Dynamic operands: classify per the command's shape, with ⊤ for
		// the paths themselves.
		if m := mutatorOp(name); m != 0 {
			s.Unknown |= m
		}
		if cs, ok := lib.Lookup(name); ok {
			if cs.OperandsAreInputs {
				s.Unknown |= OpRead
			}
			s.WritesStdout = true
			if cs.Class == spec.SideEffectful && !cs.Generator {
				s.Unknown |= OpWrite | OpCreate | OpRemove
			}
		} else if !pureCommand(name) && mutatorOp(name) == 0 {
			s.Unknown |= OpRead | OpWrite | OpCreate | OpRemove
		}
		// Static operands among the dynamic ones still name real paths.
		if cs, ok := lib.Lookup(name); ok && cs.OperandsAreInputs {
			for _, w := range sc.Args[1:] {
				if w.IsStatic() {
					if v := w.StaticValue(); v != "" && v != "-" && !strings.HasPrefix(v, "-") && !expand.MayGlob(w) {
						s.Touch(v, OpRead)
					}
				}
			}
		}
	}
	foldRedirs(s, sc.Redirections, env)
	return s
}

// resolveArgvAbs resolves every argument word of sc through the abstract
// environment. It succeeds only when each word's field structure is
// provably exact, every field value is a known constant, and no field is
// subject to globbing — the conditions under which the resolved argv is
// byte-identical to what the expander will produce at runtime. It
// returns the argv, one witness line per dynamic word resolved, and
// whether resolution succeeded.
func resolveArgvAbs(sc *syntax.SimpleCommand, env *Env) ([]string, []string, bool) {
	argv := make([]string, 0, len(sc.Args))
	var witnesses []string
	for _, w := range sc.Args {
		fields, exact := FieldsOf(w, env)
		if !exact {
			return nil, nil, false
		}
		var vals []string
		for _, f := range fields {
			if !f.Val.IsConst() || f.Globbable {
				return nil, nil, false
			}
			vals = append(vals, f.Val.Str)
		}
		argv = append(argv, vals...)
		if !w.IsStatic() {
			witnesses = append(witnesses, Witness(w, vals))
		}
	}
	return argv, witnesses, true
}

// Witness renders one concretization witness: `$f ⇒ /tmp/a.txt`.
func Witness(w *syntax.Word, vals []string) string {
	return syntax.PrintWord(w) + " ⇒ " + strings.Join(vals, " ")
}

// foldRedirs folds the filesystem effects of a redirection list into s.
// Static targets contribute concrete paths; dynamic targets are resolved
// through the abstract environment when possible (redirect targets do
// not field-split or glob, so a constant abstract value is exact), and
// fall to ⊤ otherwise.
func foldRedirs(s *Summary, redirs []*syntax.Redirect, env *Env) {
	for _, r := range redirs {
		op := redirOp(r.Op)
		if op == 0 {
			continue
		}
		if r.Target != nil && r.Target.IsStatic() && !expand.MayGlob(r.Target) {
			s.Touch(r.Target.StaticValue(), op)
			continue
		}
		if env != nil && r.Target != nil {
			if v := EvalWordAbs(r.Target, env); v.IsConst() && v.Str != "" {
				s.Touch(v.Str, op)
				s.Concretized++
				s.Witnesses = append(s.Witnesses, Witness(r.Target, []string{v.Str}))
				continue
			}
		}
		s.Unknown |= op
	}
}

// mutatorOp returns the op set a mutator-table command applies to its
// operands, or 0 when the command is not a mutator.
func mutatorOp(name string) Op {
	switch name {
	case "tee", "touch":
		return OpWrite | OpCreate
	case "mkdir":
		return OpCreate
	case "rm", "rmdir":
		return OpRemove
	case "mv":
		return OpRead | OpWrite | OpCreate | OpRemove
	case "cp", "install", "split", "dd", "ln":
		return OpRead | OpWrite | OpCreate
	case "truncate":
		return OpWrite | OpCreate
	case "xargs":
		return OpRead | OpWrite | OpCreate | OpRemove
	}
	return 0
}

// redirOp maps a redirection operator to its filesystem effect.
func redirOp(op syntax.RedirOp) Op {
	switch op {
	case syntax.RedirIn:
		return OpRead
	case syntax.RedirOut, syntax.RedirClobber, syntax.RedirAppend:
		return OpWrite | OpCreate
	case syntax.RedirInOut:
		return OpRead | OpWrite | OpCreate
	}
	return 0 // heredocs and fd-dups touch no named file
}
