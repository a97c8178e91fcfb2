// Package dfg implements the order-aware dataflow model PaSh and POSH use
// (the paper's E2): shell pipeline regions become graphs whose nodes are
// commands, sources, sinks, splitters, and mergers, and whose edges are
// byte streams. Graphs translate from expanded pipelines, print back to
// shell, export to dot/JSON, and are the representation the rewriter
// (package rewrite), cost model (package cost), and executor (package
// exec) share.
package dfg

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"jash/internal/spec"
)

// NodeKind classifies graph nodes.
type NodeKind int

const (
	// KindCommand is a shell command with a resolved specification.
	KindCommand NodeKind = iota
	// KindSource reads a file (or stdin when Path is "").
	KindSource
	// KindSink writes a file (or stdout when Path is "").
	KindSink
	// KindSplit divides its input stream into N consecutive chunks.
	KindSplit
	// KindMerge recombines N partial streams per its aggregator.
	KindMerge
)

var kindNames = [...]string{"command", "source", "sink", "split", "merge"}

func (k NodeKind) String() string { return kindNames[k] }

// SplitDist selects a splitter's distribution discipline.
type SplitDist int

const (
	// DistConsecutive hands each lane one consecutive line-aligned run
	// of the input, in lane order. Order-preserving: required when the
	// matching merge concatenates (AggConcat) or relies on stable-sort
	// tie order (AggMergeSort).
	DistConsecutive SplitDist = iota
	// DistRoundRobin cycles line-aligned blocks across lanes. Better
	// balanced under unknown input sizes, but reorders data between
	// lanes — only sound when the merge is order-insensitive (AggSum).
	DistRoundRobin
)

var distNames = [...]string{"consecutive", "round-robin"}

func (d SplitDist) String() string { return distNames[d] }

// Node is one dataflow vertex.
type Node struct {
	ID   int
	Kind NodeKind
	// Argv is the command vector (KindCommand) or the merge command
	// (KindMerge with AggMergeSort: e.g. ["sort", "-m"]).
	Argv []string
	// Spec is the resolved specification (KindCommand).
	Spec *spec.Effective
	// Path names the file for sources and sinks ("" = stdin/stdout).
	Path string
	// Append marks sinks opened in append mode (>>).
	Append bool
	// Agg is the merge discipline (KindMerge).
	Agg spec.AggKind
	// Width is the fan-out (KindSplit) or fan-in (KindMerge).
	Width int
	// Dist is the splitter's distribution discipline (KindSplit), chosen
	// by the rewriter from the matching merge's aggregator.
	Dist SplitDist
	// StreamPorts marks which input ports of a multi-input command the
	// executor may consume incrementally (true = streamed on stdin,
	// false = a genuinely blocking side input, materialized before
	// dispatch). Set by the translator from the spec's operand analysis;
	// nil means every port materializes.
	StreamPorts []bool
}

// Label renders a short human-readable node description.
func (n *Node) Label() string {
	switch n.Kind {
	case KindCommand:
		return strings.Join(n.Argv, " ")
	case KindSource:
		if n.Path == "" {
			return "stdin"
		}
		return "src:" + n.Path
	case KindSink:
		if n.Path == "" {
			return "stdout"
		}
		return "sink:" + n.Path
	case KindSplit:
		if n.Dist == DistRoundRobin {
			return fmt.Sprintf("split[rr]×%d", n.Width)
		}
		return fmt.Sprintf("split×%d", n.Width)
	case KindMerge:
		return fmt.Sprintf("merge[%s]×%d", n.Agg, n.Width)
	}
	return "?"
}

// Edge is a byte stream between nodes. Ports order multi-input consumers
// (comm's two inputs; a merge's lanes). Buffered edges materialize through
// storage — the PaSh staging strategy — charging a write and a re-read.
type Edge struct {
	From, To         int
	FromPort, ToPort int
	Buffered         bool
}

// Graph is a dataflow graph. Construct with New and the Add* methods.
type Graph struct {
	Nodes  map[int]*Node
	Edges  []*Edge
	nextID int
}

// New returns an empty graph.
func New() *Graph {
	return &Graph{Nodes: map[int]*Node{}}
}

// AddNode inserts a node and assigns its ID.
func (g *Graph) AddNode(n *Node) *Node {
	g.nextID++
	n.ID = g.nextID
	g.Nodes[n.ID] = n
	return n
}

// Connect adds an edge from one node to another on port 0.
func (g *Graph) Connect(from, to *Node) *Edge {
	return g.ConnectPort(from, to, 0, 0)
}

// ConnectPort adds an edge with explicit ports.
func (g *Graph) ConnectPort(from, to *Node, fromPort, toPort int) *Edge {
	e := &Edge{From: from.ID, To: to.ID, FromPort: fromPort, ToPort: toPort}
	g.Edges = append(g.Edges, e)
	return e
}

// RemoveNode deletes a node and its edges.
func (g *Graph) RemoveNode(id int) {
	delete(g.Nodes, id)
	kept := g.Edges[:0]
	for _, e := range g.Edges {
		if e.From != id && e.To != id {
			kept = append(kept, e)
		}
	}
	g.Edges = kept
}

// In returns the edges entering a node, sorted by ToPort.
func (g *Graph) In(id int) []*Edge {
	var in []*Edge
	for _, e := range g.Edges {
		if e.To == id {
			in = append(in, e)
		}
	}
	sort.Slice(in, func(i, j int) bool { return in[i].ToPort < in[j].ToPort })
	return in
}

// Out returns the edges leaving a node, sorted by FromPort.
func (g *Graph) Out(id int) []*Edge {
	var out []*Edge
	for _, e := range g.Edges {
		if e.From == id {
			out = append(out, e)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].FromPort < out[j].FromPort })
	return out
}

// Sources returns all source nodes, sorted by ID.
func (g *Graph) Sources() []*Node {
	var out []*Node
	for _, n := range g.Nodes {
		if n.Kind == KindSource {
			out = append(out, n)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Sink returns the unique sink node, or nil.
func (g *Graph) Sink() *Node {
	for _, n := range g.Nodes {
		if n.Kind == KindSink {
			return n
		}
	}
	return nil
}

// TopoSort returns the nodes in a topological order; it fails on cycles
// (which would indicate a translation bug).
func (g *Graph) TopoSort() ([]*Node, error) {
	indeg := map[int]int{}
	for id := range g.Nodes {
		indeg[id] = 0
	}
	for _, e := range g.Edges {
		indeg[e.To]++
	}
	var queue []int
	for id, d := range indeg {
		if d == 0 {
			queue = append(queue, id)
		}
	}
	sort.Ints(queue)
	var order []*Node
	for len(queue) > 0 {
		id := queue[0]
		queue = queue[1:]
		order = append(order, g.Nodes[id])
		var next []int
		for _, e := range g.Edges {
			if e.From != id {
				continue
			}
			indeg[e.To]--
			if indeg[e.To] == 0 {
				next = append(next, e.To)
			}
		}
		sort.Ints(next)
		queue = append(queue, next...)
	}
	if len(order) != len(g.Nodes) {
		return nil, fmt.Errorf("dfg: graph has a cycle")
	}
	return order, nil
}

// Validate checks structural invariants: exactly one sink, every
// non-source has input(s), every non-sink has output(s), ports are dense.
func (g *Graph) Validate() error {
	sinks := 0
	for _, n := range g.Nodes {
		in, out := g.In(n.ID), g.Out(n.ID)
		switch n.Kind {
		case KindSource:
			if len(in) != 0 {
				return fmt.Errorf("dfg: source %d has inputs", n.ID)
			}
			if len(out) == 0 {
				return fmt.Errorf("dfg: source %d is disconnected", n.ID)
			}
		case KindSink:
			sinks++
			if len(out) != 0 {
				return fmt.Errorf("dfg: sink %d has outputs", n.ID)
			}
			if len(in) == 0 {
				return fmt.Errorf("dfg: sink %d is disconnected", n.ID)
			}
		case KindSplit:
			if len(in) != 1 || len(out) != n.Width {
				return fmt.Errorf("dfg: split %d has %d in / %d out (width %d)",
					n.ID, len(in), len(out), n.Width)
			}
		case KindMerge:
			if len(in) != n.Width || len(out) != 1 {
				return fmt.Errorf("dfg: merge %d has %d in / %d out (width %d)",
					n.ID, len(in), len(out), n.Width)
			}
		case KindCommand:
			if len(in) == 0 || len(out) == 0 {
				return fmt.Errorf("dfg: command %d (%s) is disconnected", n.ID, n.Label())
			}
		}
		for i, e := range in {
			if e.ToPort != i {
				return fmt.Errorf("dfg: node %d has non-dense input ports", n.ID)
			}
		}
	}
	if sinks != 1 {
		return fmt.Errorf("dfg: graph has %d sinks, want 1", sinks)
	}
	if _, err := g.TopoSort(); err != nil {
		return err
	}
	return nil
}

// Dot renders the graph in graphviz format.
func (g *Graph) Dot() string {
	var b strings.Builder
	b.WriteString("digraph dfg {\n  rankdir=LR;\n")
	order, err := g.TopoSort()
	if err != nil {
		for _, n := range g.Nodes {
			order = append(order, n)
		}
	}
	for _, n := range order {
		shape := "box"
		switch n.Kind {
		case KindSource, KindSink:
			shape = "ellipse"
		case KindSplit, KindMerge:
			shape = "diamond"
		}
		fmt.Fprintf(&b, "  n%d [label=%q shape=%s];\n", n.ID, n.Label(), shape)
	}
	for _, e := range g.Edges {
		style := ""
		if e.Buffered {
			style = " [style=dashed label=\"buffered\"]"
		}
		fmt.Fprintf(&b, "  n%d -> n%d%s;\n", e.From, e.To, style)
	}
	b.WriteString("}\n")
	return b.String()
}

// jsonGraph is the serialized form.
type jsonGraph struct {
	Nodes []jsonNode `json:"nodes"`
	Edges []*Edge    `json:"edges"`
}

type jsonNode struct {
	ID    int      `json:"id"`
	Kind  string   `json:"kind"`
	Argv  []string `json:"argv,omitempty"`
	Path  string   `json:"path,omitempty"`
	Agg   string   `json:"agg,omitempty"`
	Width int      `json:"width,omitempty"`
	Dist  string   `json:"dist,omitempty"`
}

// MarshalJSON serializes the graph structure (specs are re-resolved on
// load from the argv).
func (g *Graph) MarshalJSON() ([]byte, error) {
	var jg jsonGraph
	order, err := g.TopoSort()
	if err != nil {
		return nil, err
	}
	for _, n := range order {
		jn := jsonNode{ID: n.ID, Kind: n.Kind.String(), Argv: n.Argv, Path: n.Path, Width: n.Width}
		if n.Kind == KindMerge {
			jn.Agg = n.Agg.String()
		}
		if n.Kind == KindSplit && n.Dist != DistConsecutive {
			jn.Dist = n.Dist.String()
		}
		jg.Nodes = append(jg.Nodes, jn)
	}
	jg.Edges = g.Edges
	return json.MarshalIndent(&jg, "", "  ")
}

// Script prints the graph back as a shell command when it is a linear
// pipeline, and a descriptive multi-line form otherwise. This is the
// "unparse" direction libdash provides.
func (g *Graph) Script() string {
	if s, ok := g.linearScript(); ok {
		return s
	}
	var b strings.Builder
	order, err := g.TopoSort()
	if err != nil {
		return "# cyclic graph"
	}
	for _, n := range order {
		fmt.Fprintf(&b, "# node %d: %s\n", n.ID, n.Label())
	}
	return b.String()
}

// linearScript renders source -> commands -> sink chains as a pipeline.
func (g *Graph) linearScript() (string, bool) {
	srcs := g.Sources()
	if len(srcs) != 1 {
		return "", false
	}
	var parts []string
	cur := srcs[0]
	if cur.Path != "" {
		parts = append(parts, "cat "+cur.Path)
	}
	for {
		out := g.Out(cur.ID)
		if len(out) != 1 {
			return "", false
		}
		next := g.Nodes[out[0].To]
		switch next.Kind {
		case KindCommand:
			parts = append(parts, strings.Join(next.Argv, " "))
		case KindSink:
			s := strings.Join(parts, " | ")
			if next.Path != "" {
				op := " >"
				if next.Append {
					op = " >>"
				}
				s += op + next.Path
			}
			return s, true
		default:
			return "", false
		}
		cur = next
	}
}
