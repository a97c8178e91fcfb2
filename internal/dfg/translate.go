package dfg

import (
	"errors"
	"fmt"

	"jash/internal/spec"
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
