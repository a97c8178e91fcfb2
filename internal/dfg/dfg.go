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
	"errors"
	"fmt"
	"slices"
	"strings"

	"jash/internal/spec"
	"jash/internal/syntax"
)

// NodeKind classifies graph nodes.
type NodeKind uint8

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
type SplitDist uint8

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

// Node is one dataflow vertex. (The small fields sit together so that a
// node, which the JIT builds for every stage it is offered, stays in the
// 128-byte size class.)
type Node struct {
	ID   int
	Kind NodeKind
	// Dist is the splitter's distribution discipline (KindSplit), chosen
	// by the rewriter from the matching merge's aggregator.
	Dist SplitDist
	// Append marks sinks opened in append mode (>>).
	Append bool
	// nIn splits edges, the node's part of the graph's adjacency index:
	// edges[:nIn] enter it in ToPort order, edges[nIn:] leave it in FromPort
	// order, ties in Graph.Edges order.
	nIn   int32
	edges []*Edge
	// Argv is the command vector (KindCommand) or the merge command
	// (KindMerge with AggMergeSort: e.g. ["sort", "-m"]).
	Argv []string
	// Spec is the resolved specification (KindCommand).
	Spec *spec.Effective
	// Path names the file for sources and sinks ("" = stdin/stdout).
	Path string
	// Agg is the merge discipline (KindMerge).
	Agg spec.AggKind
	// Width is the fan-out (KindSplit) or fan-in (KindMerge).
	Width int
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
//
// The graph keeps an adjacency index on its nodes (Node.edges): AddNode,
// ConnectPort, RemoveNode and Clone maintain it, so In, Out, TopoSort and
// Validate allocate nothing per query.
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
	n.edges, n.nIn = nil, 0
	g.Nodes[n.ID] = n
	return n
}

// MaxID is the largest node ID the graph has assigned: a slice of MaxID()+1
// entries can be indexed by any node's ID.
func (g *Graph) MaxID() int { return g.nextID }

// Connect adds an edge from one node to another on port 0.
func (g *Graph) Connect(from, to *Node) *Edge {
	return g.ConnectPort(from, to, 0, 0)
}

// ConnectPort adds an edge with explicit ports.
func (g *Graph) ConnectPort(from, to *Node, fromPort, toPort int) *Edge {
	e := &Edge{From: from.ID, To: to.ID, FromPort: fromPort, ToPort: toPort}
	g.Edges = append(g.Edges, e)
	from.insert(e, false)
	to.insert(e, true)
	return e
}

// insert indexes e on n as an entering or a leaving edge, after every
// indexed edge on that side whose port is not larger.
func (n *Node) insert(e *Edge, entering bool) {
	lo, hi, port := int(n.nIn), len(n.edges), e.FromPort
	if entering {
		lo, hi, port = 0, int(n.nIn), e.ToPort
		n.nIn++
	}
	i := hi
	for i > lo && portOf(n.edges[i-1], entering) > port {
		i--
	}
	n.edges = slices.Insert(n.edges, i, e)
}

func portOf(e *Edge, entering bool) int {
	if entering {
		return e.ToPort
	}
	return e.FromPort
}

// unindex drops e from n's index, into a new array: a slice In or Out
// handed out earlier keeps what it saw.
func (n *Node) unindex(e *Edge, entering bool) {
	lo, hi := int(n.nIn), len(n.edges)
	if entering {
		lo, hi = 0, int(n.nIn)
	}
	kept := make([]*Edge, 0, len(n.edges))
	for i, x := range n.edges {
		if x == e && i >= lo && i < hi {
			if entering {
				n.nIn--
			}
			continue
		}
		kept = append(kept, x)
	}
	n.edges = kept
}

// RemoveNode deletes a node and its edges.
func (g *Graph) RemoveNode(id int) {
	n := g.Nodes[id]
	if n == nil {
		return
	}
	delete(g.Nodes, id)
	for _, e := range n.in() {
		if from := g.Nodes[e.From]; from != nil {
			from.unindex(e, false)
		}
	}
	for _, e := range n.out() {
		if to := g.Nodes[e.To]; to != nil {
			to.unindex(e, true)
		}
	}
	n.edges, n.nIn = nil, 0
	kept := g.Edges[:0]
	for _, e := range g.Edges {
		if e.From != id && e.To != id {
			kept = append(kept, e)
		}
	}
	clear(g.Edges[len(kept):])
	g.Edges = kept
}

func (n *Node) in() []*Edge  { return n.edges[:n.nIn:n.nIn] }
func (n *Node) out() []*Edge { return n.edges[n.nIn:len(n.edges):len(n.edges)] }

// In returns the edges entering a node, sorted by ToPort. The slice is the
// graph's own: read it, do not modify it.
func (g *Graph) In(id int) []*Edge {
	if n := g.Nodes[id]; n != nil {
		return n.in()
	}
	return nil
}

// Out returns the edges leaving a node, sorted by FromPort. The slice is
// the graph's own: read it, do not modify it.
func (g *Graph) Out(id int) []*Edge {
	if n := g.Nodes[id]; n != nil {
		return n.out()
	}
	return nil
}

// Sources returns all source nodes, sorted by ID.
func (g *Graph) Sources() []*Node {
	var out []*Node
	for id := 1; id <= g.nextID; id++ {
		if n := g.Nodes[id]; n != nil && n.Kind == KindSource {
			out = append(out, n)
		}
	}
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

// TopoSort returns the nodes in a topological order — Kahn's, taking ready
// nodes lowest ID first — and fails on cycles (which would indicate a
// translation bug).
func (g *Graph) TopoSort() ([]*Node, error) {
	order, ok := g.kahn(make([]*Node, 0, len(g.Nodes)), make([]int, g.nextID+1))
	if !ok {
		return nil, errCycle
	}
	return order, nil
}

var errCycle = errors.New("dfg: graph has a cycle")

// kahn appends the nodes to order in TopoSort's order and reports whether
// it reached them all. indeg is zeroed scratch of at least MaxID()+1 entries.
func (g *Graph) kahn(order []*Node, indeg []int) ([]*Node, bool) {
	for _, e := range g.Edges {
		indeg[e.To]++
	}
	// order doubles as the queue: order[head:] is ready and not yet visited.
	for id := 1; id <= g.nextID; id++ {
		if n := g.Nodes[id]; n != nil && indeg[id] == 0 {
			order = append(order, n)
		}
	}
	for head := 0; head < len(order); head++ {
		ready := len(order)
		for _, e := range order[head].out() {
			indeg[e.To]--
			if indeg[e.To] == 0 {
				order = append(order, g.Nodes[e.To])
			}
		}
		slices.SortFunc(order[ready:], func(a, b *Node) int { return a.ID - b.ID })
	}
	return order, len(order) == len(g.Nodes)
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
	// The acyclicity check runs on stack scratch for the graphs the JIT
	// plans every command, so a valid graph costs no allocation.
	var orderBuf [32]*Node
	var indegBuf [32]int
	indeg := indegBuf[:]
	if g.nextID >= len(indeg) {
		indeg = make([]int, g.nextID+1)
	}
	if _, ok := g.kahn(orderBuf[:0], indeg); !ok {
		return errCycle
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
// pipeline, each word quoted as syntax.Quote quotes it, and a descriptive
// multi-line form otherwise. This is the "unparse" direction libdash
// provides.
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
		parts = append(parts, "cat "+syntax.Quote(cur.Path))
	}
	for {
		out := g.Out(cur.ID)
		if len(out) != 1 {
			return "", false
		}
		next := g.Nodes[out[0].To]
		switch next.Kind {
		case KindCommand:
			parts = append(parts, syntax.QuoteWords(next.Argv))
		case KindSink:
			s := strings.Join(parts, " | ")
			if next.Path != "" {
				op := " >"
				if next.Append {
					op = " >>"
				}
				s += op + syntax.Quote(next.Path)
			}
			return s, true
		default:
			return "", false
		}
		cur = next
	}
}
