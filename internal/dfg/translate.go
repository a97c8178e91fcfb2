package dfg

import (
	"errors"
	"fmt"
	"strings"

	"jash/internal/expand"
	"jash/internal/spec"
	"jash/internal/syntax"
)

// ErrNotDataflow marks pipelines that are not pure dataflow regions:
// unknown commands, side-effectful stages, or stages that ignore their
// input stream. The JIT falls back to the interpreter for these.
var ErrNotDataflow = errors.New("pipeline is not a dataflow region")

// Binding says where the pipeline's ends are attached after redirection
// expansion: empty strings mean the terminal.
type Binding struct {
	StdinFile    string
	StdoutFile   string
	StdoutAppend bool
}

func notDataflow(reason string) error { return fmt.Errorf("%w: %s", ErrNotDataflow, reason) }

// The reasons FromStmt declines with before it has expanded a word. They
// are values, not formatted per call: almost every statement of a script is
// declined by one of the first eight, and that must cost no allocation.
var (
	errBackground  = notDataflow("background job")
	errNegated     = notDataflow("negated pipeline")
	errAndOr       = notDataflow("and-or list")
	errCompound    = notDataflow("a stage is a compound command")
	errAssignment  = notDataflow("a stage has an assignment prefix")
	errNoCommand   = notDataflow("a stage has no command word")
	errRedirection = notDataflow("a redirection other than one < on the first stage's stdin or one > or >> on the last stage's stdout")
	errNotInLib    = notDataflow("a stage's command is not in the specification library")
	errUnsafeWord  = notDataflow("a word is not safe to expand early")
	errDynamicWord = notDataflow("a word depends on shell state, which an ahead-of-time compiler does not have")
	errGlobNoFS    = notDataflow("a glob operand and no filesystem to match it against")
	errNoFields    = notDataflow("a stage expands to no fields")
)

// FromStmt is the one place that decides whether a statement is a dataflow
// region, and builds its graph if so. It asks cheapest-first, so a statement
// the syntax rules out is never printed, expanded or resolved:
//
//  1. shape, from the AST alone: a plain pipeline (no &, !, && or ||) of
//     simple commands that have a command word and no assignments,
//     redirected at most by one < on the first stage's stdin and one > or >>
//     on the last stage's stdout; a command word that is a plain unquoted
//     literal must be in the library;
//  2. words: every argument and redirect target is safe to expand early and
//     is expanded through x, the only expander used — the caller's choice of
//     x is what makes planning unable to assign or to run commands (nil
//     is the empty shell state: no variables, no filesystem). An
//     ahead-of-time caller has no shell state, so it admits only static
//     words, and a caller without a filesystem admits no glob;
//  3. commands: FromPipeline, with redirect targets resolved against x.Dir.
//
// Every refusal wraps ErrNotDataflow with its reason. Declining is always
// sound: the interpreter runs whatever is refused here.
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
		// A backslash quotes as "…" does; a quoted name is judged once it
		// has been expanded.
		if name := sc.Name(); name != "" && !strings.Contains(name, `\`) {
			if _, known := lib.Lookup(name); !known {
				return nil, errNotInLib
			}
		}
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
		if x.FS == nil && !x.NoGlob && expand.AnalyzeWords(sc.Args).HasGlob {
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

	return FromPipeline(argvs, lib, b)
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
// library cannot vouch for aborts with ErrNotDataflow.
func FromPipeline(argvs [][]string, lib *spec.Library, b Binding) (*Graph, error) {
	if len(argvs) == 0 {
		return nil, fmt.Errorf("%w: empty pipeline", ErrNotDataflow)
	}
	g := New()
	var upstream *Node // output of the previous stage
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
		case e.ReadsStdin || generator:
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
