// Package cluster is the §4 "Distribution" direction: a simulated cluster
// of nodes, each with its own filesystem and resource profile, connected
// by bandwidth/latency links. It executes shell dataflow pipelines over
// data scattered across nodes under two strategies:
//
//   - Central: ship every raw input to the coordinator and run the whole
//     pipeline there (what `scp && ./script.sh` does today);
//   - Placement (POSH-style): run the pipeline's splittable prefix on the
//     nodes that hold the data, ship only the (usually much smaller)
//     partial results, and finish with the aggregator plus the remaining
//     stages on the coordinator.
//
// Outputs are computed for real through the dataflow executor, so the two
// strategies can be checked for equivalence; times and bytes moved come
// from the cost model and the link parameters.
package cluster

import (
	"bytes"
	"fmt"
	"io"
	"sort"
	"strings"

	"jash/internal/cost"
	"jash/internal/dfg"
	"jash/internal/exec"
	"jash/internal/rewrite"
	"jash/internal/spec"
	"jash/internal/vfs"
)

// Node is one cluster member.
type Node struct {
	Name    string
	FS      *vfs.FS
	Profile *cost.Profile
}

// Link models the interconnect (uniform full bisection).
type Link struct {
	BandwidthBPS float64
	LatencyS     float64
}

// TransferTime returns the time to move the given bytes over the link.
func (l Link) TransferTime(bytes int64) float64 {
	if bytes <= 0 {
		return 0
	}
	return l.LatencyS + float64(bytes)/l.BandwidthBPS
}

// Cluster is a set of nodes plus the coordinator that receives results.
type Cluster struct {
	Nodes       map[string]*Node
	Coordinator string
	Net         Link
	Lib         *spec.Library
}

// New builds a cluster with n worker nodes ("node1".."nodeN") plus a
// coordinator ("coord"), all with the given per-node profile factory.
func New(n int, prof func() *cost.Profile, net Link) *Cluster {
	c := &Cluster{
		Nodes:       map[string]*Node{},
		Coordinator: "coord",
		Net:         net,
		Lib:         spec.Builtin(),
	}
	c.Nodes["coord"] = &Node{Name: "coord", FS: vfs.New(), Profile: prof()}
	for i := 1; i <= n; i++ {
		name := fmt.Sprintf("node%d", i)
		c.Nodes[name] = &Node{Name: name, FS: vfs.New(), Profile: prof()}
	}
	return c
}

// Place writes a file onto a node's filesystem.
func (c *Cluster) Place(node, path string, data []byte) error {
	n, ok := c.Nodes[node]
	if !ok {
		return fmt.Errorf("cluster: unknown node %q", node)
	}
	return n.FS.WriteFile(path, data)
}

// Job is a pipeline over files scattered across the cluster. Inputs maps
// file paths to the node that holds them; the pipeline reads the
// concatenation of those files (in the listed order), like
// `cat f1 ... fn | stages...`.
type Job struct {
	Stages [][]string
	Inputs []Input
}

// Input is one file on one node.
type Input struct {
	Node string
	Path string
}

// Report describes one distributed execution.
type Report struct {
	Strategy    string
	Output      []byte
	BytesMoved  int64
	NetworkSecs float64
	ComputeSecs float64
	TotalSecs   float64
	// PerNode lists each worker's locally processed bytes.
	PerNode map[string]int64
}

func (r Report) String() string {
	return fmt.Sprintf("%s: %.2fs total (%.2fs compute, %.2fs network), %d bytes moved",
		r.Strategy, r.TotalSecs, r.ComputeSecs, r.NetworkSecs, r.BytesMoved)
}

// RunCentral ships all raw inputs to the coordinator and runs the whole
// pipeline there.
func (c *Cluster) RunCentral(job Job) (Report, error) {
	coord := c.Nodes[c.Coordinator]
	rep := Report{Strategy: "central", PerNode: map[string]int64{}}
	var paths []string
	var maxTransfer float64
	perSource := map[string]int64{}
	for i, in := range job.Inputs {
		node, ok := c.Nodes[in.Node]
		if !ok {
			return rep, fmt.Errorf("cluster: unknown node %q", in.Node)
		}
		data, err := node.FS.ReadFile(in.Path)
		if err != nil {
			return rep, err
		}
		local := fmt.Sprintf("/central/%d%s", i, in.Path)
		if err := coord.FS.WriteFile(local, data); err != nil {
			return rep, err
		}
		paths = append(paths, local)
		if in.Node != c.Coordinator {
			rep.BytesMoved += int64(len(data))
			perSource[in.Node] += int64(len(data))
		}
	}
	// Transfers from distinct nodes proceed in parallel.
	for _, b := range perSource {
		if t := c.Net.TransferTime(b); t > maxTransfer {
			maxTransfer = t
		}
	}
	rep.NetworkSecs = maxTransfer
	argvs := append([][]string{append([]string{"cat"}, paths...)}, job.Stages...)
	g, err := dfg.FromPipeline(argvs, c.Lib, dfg.Binding{})
	if err != nil {
		return rep, err
	}
	var out bytes.Buffer
	if _, err := exec.Run(g, c.execEnv(coord, &out)); err != nil {
		return rep, err
	}
	est, err := cost.EstimateGraph(g, c.inputsFor(coord), coord.Profile, true)
	if err != nil {
		return rep, err
	}
	rep.Output = out.Bytes()
	rep.ComputeSecs = est.Seconds
	rep.TotalSecs = rep.NetworkSecs + rep.ComputeSecs
	return rep, nil
}

// RunPlacement runs the splittable prefix on the data's home nodes and
// ships only partial results.
func (c *Cluster) RunPlacement(job Job) (Report, error) {
	rep := Report{Strategy: "placement", PerNode: map[string]int64{}}
	// The prefix is the splittable run the stages begin with: a stage with
	// a file of its own (comm's dictionary) reads more than one stream, so
	// it ends the run and reads that file once, on the coordinator.
	stages := make([]*spec.Effective, len(job.Stages))
	for i, argv := range job.Stages {
		stages[i] = c.Lib.Resolve(argv)
	}
	n, agg, mergeArgv := rewrite.Splittable(stages)
	prefix, suffix := job.Stages[:n], job.Stages[n:]
	if n == 0 {
		// Nothing distributable: same as central.
		central, err := c.RunCentral(job)
		central.Strategy = "placement(degenerate)"
		return central, err
	}
	coord := c.Nodes[c.Coordinator]
	// Group inputs by node, preserving job order within each node.
	byNode := map[string][]string{}
	var nodeOrder []string
	for _, in := range job.Inputs {
		if _, ok := c.Nodes[in.Node]; !ok {
			return rep, fmt.Errorf("cluster: unknown node %q", in.Node)
		}
		if _, seen := byNode[in.Node]; !seen {
			nodeOrder = append(nodeOrder, in.Node)
		}
		byNode[in.Node] = append(byNode[in.Node], in.Path)
	}
	sort.Strings(nodeOrder)
	var partialPaths []string
	var maxNodeCompute float64
	var maxTransfer float64
	for _, nodeName := range nodeOrder {
		node := c.Nodes[nodeName]
		argvs := append([][]string{append([]string{"cat"}, byNode[nodeName]...)}, prefix...)
		g, err := dfg.FromPipeline(argvs, c.Lib, dfg.Binding{})
		if err != nil {
			return rep, err
		}
		var partial bytes.Buffer
		if _, err := exec.Run(g, c.execEnv(node, &partial)); err != nil {
			return rep, fmt.Errorf("cluster: %s: %w", nodeName, err)
		}
		est, err := cost.EstimateGraph(g, c.inputsFor(node), node.Profile, true)
		if err != nil {
			return rep, err
		}
		maxNodeCompute = max(maxNodeCompute, est.Seconds)
		var localBytes int64
		for _, p := range byNode[nodeName] {
			if fi, err := node.FS.Stat(p); err == nil {
				localBytes += fi.Size
			}
		}
		rep.PerNode[nodeName] = localBytes
		// Ship the partial to the coordinator.
		dest := fmt.Sprintf("/partial/%s.out", nodeName)
		if err := coord.FS.WriteFile(dest, partial.Bytes()); err != nil {
			return rep, err
		}
		partialPaths = append(partialPaths, dest)
		if nodeName != c.Coordinator {
			moved := int64(partial.Len())
			rep.BytesMoved += moved
			if t := c.Net.TransferTime(moved); t > maxTransfer {
				maxTransfer = t
			}
		}
	}
	rep.NetworkSecs = maxTransfer
	// Coordinator: merge partials, then run the suffix.
	g, err := c.mergeGraph(partialPaths, agg, mergeArgv, suffix)
	if err != nil {
		return rep, err
	}
	var out bytes.Buffer
	if _, err := exec.Run(g, c.execEnv(coord, &out)); err != nil {
		return rep, err
	}
	est, err := cost.EstimateGraph(g, c.inputsFor(coord), coord.Profile, true)
	if err != nil {
		return rep, err
	}
	rep.Output = out.Bytes()
	rep.ComputeSecs = maxNodeCompute + est.Seconds
	rep.TotalSecs = maxNodeCompute + rep.NetworkSecs + est.Seconds
	return rep, nil
}

// mergeGraph builds: partial sources -> merge(agg) -> suffix stages -> sink.
// The merge takes the place of the suffix's stdin; dfg.FromPipeline wires
// its side inputs.
func (c *Cluster) mergeGraph(partials []string, agg spec.AggKind, mergeArgv []string, suffix [][]string) (*dfg.Graph, error) {
	g, err := dfg.FromPipeline(append([][]string{{"cat"}}, suffix...), c.Lib, dfg.Binding{})
	if err != nil {
		return nil, err
	}
	stdin := g.Sources()[0]
	cat := g.Nodes[g.Out(stdin.ID)[0].To]
	g.RemoveNode(stdin.ID)
	merge := g.AddNode(&dfg.Node{Kind: dfg.KindMerge, Agg: agg, Argv: mergeArgv, Width: len(partials)})
	g.Connect(merge, cat)
	for i, p := range partials {
		g.ConnectPort(g.AddNode(&dfg.Node{Kind: dfg.KindSource, Path: p}), merge, 0, i)
	}
	return rewrite.Sequential(g), nil
}

func (c *Cluster) execEnv(n *Node, out io.Writer) *exec.Env {
	return &exec.Env{
		FS:     n.FS,
		Dir:    "/",
		Stdin:  strings.NewReader(""),
		Stdout: out,
		Stderr: io.Discard,
	}
}

func (c *Cluster) inputsFor(n *Node) cost.Inputs {
	return cost.Inputs{
		Size: func(p string) int64 {
			fi, err := n.FS.Stat(p)
			if err != nil {
				return 0
			}
			return fi.Size
		},
		DeviceOf: func(p string) string { return n.FS.DeviceFor(p) },
	}
}
