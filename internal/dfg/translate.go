package dfg

import (
	"errors"
	"fmt"
	"slices"

	"jash/internal/expand"
	"jash/internal/spec"
	"jash/internal/syntax"
)

// ErrNotDataflow marks pipelines that are not pure dataflow regions:
// unknown commands, side-effectful stages, or stages that ignore their
// input stream. The JIT falls back to the interpreter for these.
var ErrNotDataflow = errors.New("pipeline is not a dataflow region")

// ErrShape marks the refusals FromStmt makes from the statement's syntax,
// the library and aheadOfTime alone: every rule of phase 1, and a word that
// may not be expanded early. Such a refusal holds on every run of the
// statement, so a caller whose library and mode do not change may remember
// it and never ask about that statement again. It wraps ErrNotDataflow, and
// its text is ErrNotDataflow's. A refusal that read a variable, an option,
// the filesystem or an input does not wrap it.
var ErrShape = fmt.Errorf("%w", ErrNotDataflow)

// Binding says where the pipeline's ends are attached after redirection
// expansion: empty strings mean the terminal.
type Binding struct {
	StdinFile    string
	StdoutFile   string
	StdoutAppend bool
}

func notDataflow(reason string) error { return fmt.Errorf("%w: %s", ErrNotDataflow, reason) }

func shapeRefusal(reason string) error { return fmt.Errorf("%w: %s", ErrShape, reason) }

// The reasons FromStmt declines with before it has expanded a word. They
// are values, not formatted per call: almost every statement of a script is
// declined by one of the first nine, and that must cost no allocation. All
// but the last two are shape refusals.
var (
	errBackground  = shapeRefusal("background job")
	errNegated     = shapeRefusal("negated pipeline")
	errAndOr       = shapeRefusal("and-or list")
	errCompound    = shapeRefusal("a stage is a compound command")
	errAssignment  = shapeRefusal("a stage has an assignment prefix")
	errNoCommand   = shapeRefusal("a stage has no command word")
	errRedirection = shapeRefusal("a redirection other than one < on the first stage's stdin or one > or >> on the last stage's stdout")
	errNotInLib    = shapeRefusal("a stage's command is not in the specification library")
	errReadsTTY    = shapeRefusal("the first stage has no < and its command takes no file operands, so it reads the terminal")
	errUnsafeWord  = shapeRefusal("a word is not safe to expand early")
	errDynamicWord = shapeRefusal("a word depends on shell state, which an ahead-of-time compiler does not have")
	errGlobNoFS    = notDataflow("a glob operand and no filesystem to match it against")
	errNoFields    = notDataflow("a stage expands to no fields")
	errTerminal    = notDataflow("a source is the terminal, whose volume is unknown")
)

// FromStmt is the one place that decides whether a statement is a dataflow
// region, and builds its graph if so. It asks cheapest-first, so a statement
// the syntax rules out is never printed, expanded or resolved:
//
//  1. shape, from the AST alone: a plain pipeline (no &, !, && or ||) of
//     simple commands that have a command word and no assignments,
//     redirected at most by one < on the first stage's stdin and one > or >>
//     on the last stage's stdout; a command word that is a plain unquoted
//     literal must be in the library, and the first stage's, when it has no
//     <, must take file operands (echo, seq, tr can only read the terminal);
//  2. words: every argument and redirect target is safe to expand early and
//     is expanded through x, the only expander used — the caller's choice of
//     x is what makes planning unable to assign or to run commands (nil
//     is the empty shell state: no variables, no filesystem). An
//     ahead-of-time caller has no shell state, so it admits only static
//     words, and a caller without a filesystem admits no glob;
//  3. commands: every stage resolved against the library, as FromPipeline
//     does, with redirect targets resolved against x.Dir; then every source
//     must be a file — never the terminal — that exists in x.FS (when x has
//     one). Only then is a node added.
//
// Every refusal wraps ErrNotDataflow with its reason; those that phase 1
// and the words' admission test make also wrap ErrShape. Declining is
// always sound: the interpreter runs whatever is refused here.
func FromStmt(st *syntax.Stmt, lib *spec.Library, x *expand.Expander, aheadOfTime bool) (*Graph, error) {
	pl := st.AndOr.First
	switch {
	case st.Background:
		return nil, errBackground
	case pl.Negated:
		return nil, errNegated
	case len(st.AndOr.Rest) > 0:
		return nil, errAndOr
	}
	last := len(pl.Cmds) - 1
	readsTTY := false
	for i, cmd := range pl.Cmds {
		sc, ok := cmd.(*syntax.SimpleCommand)
		switch {
		case !ok:
			return nil, errCompound
		case len(sc.Assigns) > 0:
			return nil, errAssignment
		case len(sc.Args) == 0:
			return nil, errNoCommand
		}
		ins, outs := 0, 0
		for _, r := range sc.Redirections {
			switch {
			case i == 0 && r.Op == syntax.RedirIn && r.DefaultFD() == 0:
				ins++
			case i == last && (r.Op == syntax.RedirOut || r.Op == syntax.RedirAppend) && r.DefaultFD() == 1:
				outs++
			default:
				return nil, errRedirection
			}
		}
		if ins > 1 || outs > 1 {
			// The interpreter opens (and truncates) every target; a graph
			// has one edge per end.
			return nil, errRedirection
		}
		// A quoted name is judged once it has been expanded.
		if name := sc.Name(); name != "" {
			s, known := lib.Lookup(name)
			if !known {
				return nil, errNotInLib
			}
			// Without file operands a first stage's only source is its
			// stdin: the < target, or else the terminal.
			if i == 0 {
				readsTTY = ins == 0 && !s.OperandsAreInputs
			}
		}
	}
	if readsTTY {
		return nil, errReadsTTY
	}

	if x == nil {
		x = new(expand.Expander)
	}
	var b Binding
	argvs := make([][]string, len(pl.Cmds))
	for i, cmd := range pl.Cmds {
		sc := cmd.(*syntax.SimpleCommand)
		for _, r := range sc.Redirections {
			if err := expandsEarly(aheadOfTime, r.Target); err != nil {
				return nil, err
			}
			target, err := x.ExpandString(r.Target)
			if err != nil {
				return nil, notDataflow(err.Error())
			}
			if r.Op == syntax.RedirIn {
				b.StdinFile = absPath(x.Dir, target)
			} else {
				b.StdoutFile, b.StdoutAppend = absPath(x.Dir, target), r.Op == syntax.RedirAppend
			}
		}
		if err := expandsEarly(aheadOfTime, sc.Args...); err != nil {
			return nil, err
		}
		if x.FS == nil && !x.NoGlob && slices.ContainsFunc(sc.Args, expand.MayGlob) {
			return nil, errGlobNoFS
		}
		fields, err := x.ExpandWords(sc.Args)
		if err != nil {
			return nil, notDataflow(err.Error())
		}
		if len(fields) == 0 {
			return nil, errNoFields
		}
		argvs[i] = fields
	}

	stages, err := resolve(argvs, lib)
	if err != nil {
		return nil, err
	}
	// A terminal has no size to plan against, and a plan cannot read a
	// file that is not there; either way the interpreter runs the region.
	for _, p := range sources(stages, b) {
		switch {
		case p == "":
			return nil, errTerminal
		case x.FS != nil && !x.FS.Exists(absPath(x.Dir, p)):
			return nil, notDataflow(fmt.Sprintf("source %s does not exist", p))
		}
	}
	return build(stages, b)
}

// NeedsShellState reports whether err is a refusal FromStmt makes for want
// of shell state — a word that needs it ahead of time, a glob with no
// filesystem — which a running shell, having that state, may not make.
func NeedsShellState(err error) bool {
	return errors.Is(err, errDynamicWord) || errors.Is(err, errGlobNoFS)
}

// expandsEarly is phase 2's admission test for words, before any is
// expanded.
func expandsEarly(aheadOfTime bool, words ...*syntax.Word) error {
	if !expand.AnalyzeWords(words).SafeToExpandEarly() {
		return errUnsafeWord
	}
	if aheadOfTime {
		for _, w := range words {
			if !w.IsStatic() {
				return errDynamicWord
			}
		}
	}
	return nil
}

func absPath(dir, p string) string {
	if p == "" || p[0] == '/' {
		return p
	}
	if dir == "" || dir == "/" {
		return "/" + p
	}
	return dir + "/" + p
}

// FromPipeline translates a pipeline of fully-expanded argument vectors
// into a dataflow graph, resolving each stage against the specification
// library. File operands become Source nodes and are stripped from the
// node's argv by position (the executor feeds streams); grep-style pattern
// operands stay. The translation is conservative: anything the spec
// library cannot vouch for aborts with ErrNotDataflow. Unlike FromStmt it
// asks nothing of the sources: a terminal stdin is a Source with no path.
func FromPipeline(argvs [][]string, lib *spec.Library, b Binding) (*Graph, error) {
	stages, err := resolve(argvs, lib)
	if err != nil {
		return nil, err
	}
	return build(stages, b)
}

// resolve resolves every stage against the library and refuses a pipeline
// no graph may be built for, before one is.
func resolve(argvs [][]string, lib *spec.Library) ([]*spec.Effective, error) {
	if len(argvs) == 0 {
		return nil, fmt.Errorf("%w: empty pipeline", ErrNotDataflow)
	}
	stages := make([]*spec.Effective, len(argvs))
	for i, argv := range argvs {
		if len(argv) == 0 {
			return nil, fmt.Errorf("%w: empty stage", ErrNotDataflow)
		}
		if _, known := lib.Lookup(argv[0]); !known {
			return nil, fmt.Errorf("%w: unknown command %q", ErrNotDataflow, argv[0])
		}
		e := lib.Resolve(argv)
		if e.Class == spec.SideEffectful && i > 0 {
			return nil, fmt.Errorf("%w: side-effectful stage %q", ErrNotDataflow, argv[0])
		}
		generator := !e.ReadsStdin && len(e.InputFiles) == 0
		if i > 0 && generator {
			return nil, fmt.Errorf("%w: stage %q ignores its pipe input", ErrNotDataflow, argv[0])
		}
		if i == 0 && e.Class == spec.SideEffectful && !generator {
			return nil, fmt.Errorf("%w: side-effectful stage %q", ErrNotDataflow, argv[0])
		}
		stages[i] = e
	}
	return stages, nil
}

// sources lists the paths build makes Source nodes for, in the order it
// adds them; "" is the terminal.
func sources(stages []*spec.Effective, b Binding) []string {
	var ps []string
	for i, e := range stages {
		if len(e.InputFiles) == 0 {
			if i == 0 {
				ps = append(ps, b.StdinFile)
			}
			continue
		}
		for _, f := range e.InputFiles {
			switch {
			case f != "-":
				ps = append(ps, f)
			case i == 0:
				ps = append(ps, b.StdinFile)
			}
		}
	}
	return ps
}

// build adds the nodes and edges of resolved stages.
func build(stages []*spec.Effective, b Binding) (*Graph, error) {
	g := New()
	var upstream *Node // output of the previous stage
	for _, e := range stages {
		node := g.AddNode(&Node{
			Kind: KindCommand,
			Argv: e.ArgvWithoutInputs(),
			Spec: e,
		})
		// Wire the stage's inputs in operand order. The first "-" operand
		// is the stage's primary stream: the executor feeds it on stdin
		// incrementally, while the remaining ports (genuinely blocking side
		// inputs like comm's second file) are materialized before dispatch.
		switch {
		case len(e.InputFiles) > 0:
			node.StreamPorts = make([]bool, len(e.InputFiles))
			streamed := false
			for port, f := range e.InputFiles {
				if f == "-" {
					if !streamed {
						node.StreamPorts[port] = true
						streamed = true
					}
					src := upstream
					if src == nil {
						src = g.AddNode(&Node{Kind: KindSource, Path: b.StdinFile})
					}
					g.ConnectPort(src, node, 0, port)
					continue
				}
				src := g.AddNode(&Node{Kind: KindSource, Path: f})
				g.ConnectPort(src, node, 0, port)
			}
		default: // its stdin, which a generator does not read
			src := upstream
			if src == nil {
				src = g.AddNode(&Node{Kind: KindSource, Path: b.StdinFile})
			}
			g.Connect(src, node)
		}
		upstream = node
	}
	sink := g.AddNode(&Node{Kind: KindSink, Path: b.StdoutFile, Append: b.StdoutAppend})
	g.Connect(upstream, sink)
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return g, nil
}
