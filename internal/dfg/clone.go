package dfg

import (
	"cmp"
	"slices"
)

// Clone returns a deep copy of the graph. Node specs are shared (they are
// immutable after resolution); argv slices are copied.
func (g *Graph) Clone() *Graph {
	cp := &Graph{Nodes: make(map[int]*Node, len(g.Nodes)), nextID: g.nextID}
	nodes := make([]Node, 0, len(g.Nodes))
	for id, n := range g.Nodes {
		nodes = append(nodes, *n)
		nn := &nodes[len(nodes)-1]
		nn.Argv = slices.Clone(n.Argv)
		nn.StreamPorts = slices.Clone(n.StreamPorts)
		nn.edges, nn.nIn = nil, 0
		cp.Nodes[id] = nn
	}
	edges := make([]Edge, len(g.Edges))
	cp.Edges = make([]*Edge, len(g.Edges))
	for i, e := range g.Edges {
		edges[i] = *e
		cp.Edges[i] = &edges[i]
	}
	cp.reindex()
	return cp
}

// reindex builds the adjacency index of a graph whose nodes have none yet
// from Edges. A node's index is its entering edges stably sorted by ToPort,
// then its leaving edges stably sorted by FromPort, both in Edges order; one
// stable sort of every (node, side, port) entry rebuilds them all.
func (g *Graph) reindex() {
	type entry struct {
		node, side, port int // side 0 enters the node, 1 leaves it
		e                *Edge
	}
	entries := make([]entry, 0, 2*len(g.Edges))
	for _, e := range g.Edges {
		entries = append(entries, entry{e.To, 0, e.ToPort, e}, entry{e.From, 1, e.FromPort, e})
	}
	slices.SortStableFunc(entries, func(a, b entry) int {
		return cmp.Or(cmp.Compare(a.node, b.node), cmp.Compare(a.side, b.side), cmp.Compare(a.port, b.port))
	})
	all := make([]*Edge, len(entries))
	for i, x := range entries {
		all[i] = x.e
	}
	for i := 0; i < len(entries); {
		n := g.Nodes[entries[i].node]
		j := i
		for j < len(entries) && entries[j].node == n.ID {
			if entries[j].side == 0 {
				n.nIn++
			}
			j++
		}
		n.edges = all[i:j:j]
		i = j
	}
}

// Chain returns the graph's main spine: starting from the given node,
// follow single-output edges until the sink. Multi-output nodes stop the
// walk.
func (g *Graph) Chain(from *Node) []*Node {
	var chain []*Node
	cur := from
	for {
		chain = append(chain, cur)
		out := g.Out(cur.ID)
		if len(out) != 1 {
			return chain
		}
		cur = g.Nodes[out[0].To]
	}
}
