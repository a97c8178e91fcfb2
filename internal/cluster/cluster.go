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

// splitJob partitions the stages into the distributable prefix (stateless
// stages plus at most one trailing Parallelizable stage, none naming a
// file of its own) and the suffix that must run centrally, with the
// aggregation discipline between them.
func (c *Cluster) splitJob(stages [][]string) (prefix, suffix [][]string, agg spec.AggKind, mergeArgv []string) {
	agg = spec.AggConcat
	i := 0
	for ; i < len(stages); i++ {
		e := c.Lib.Resolve(stages[i])
		if readsNamedFile(e) {
			break // every node would read the file again: run it once, centrally
		}
		if e.Class == spec.Stateless {
			prefix = append(prefix, stages[i])
			continue
		}
		if e.Class == spec.Parallelizable {
			prefix = append(prefix, stages[i])
			agg = e.Agg
			if agg == spec.AggMergeSort {
				mergeArgv = append([]string{stages[i][0], "-m"}, stages[i][1:]...)
			}
			i++
		}
		break
	}
	suffix = stages[i:]
	return prefix, suffix, agg, mergeArgv
}

// readsNamedFile reports whether a stage has a file operand of its own
// besides the stream ("-").
func readsNamedFile(e *spec.Effective) bool {
	for _, f := range e.InputFiles {
		if f != "-" {
			return true
		}
	}
	return false
}

// RunPlacement runs the splittable prefix on the data's home nodes and
// ships only partial results.
func (c *Cluster) RunPlacement(job Job) (Report, error) {
	rep := Report{Strategy: "placement", PerNode: map[string]int64{}}
	prefix, suffix, agg, mergeArgv := c.splitJob(job.Stages)
	if len(prefix) == 0 {
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
func (c *Cluster) mergeGraph(partials []string, agg spec.AggKind, mergeArgv []string, suffix [][]string) (*dfg.Graph, error) {
	g := dfg.New()
	merge := g.AddNode(&dfg.Node{Kind: dfg.KindMerge, Agg: agg, Argv: mergeArgv, Width: len(partials)})
	for i, p := range partials {
		src := g.AddNode(&dfg.Node{Kind: dfg.KindSource, Path: p})
		g.ConnectPort(src, merge, 0, i)
	}
	prev := merge
	for _, argv := range suffix {
		e := c.Lib.Resolve(argv)
		node := g.AddNode(&dfg.Node{Kind: dfg.KindCommand, Argv: e.ArgvWithoutInputs(), Spec: e})
		// Side inputs (e.g. comm's dictionary) become extra sources.
		port := 0
		usedUpstream := false
		for _, f := range e.InputFiles {
			if f == "-" {
				g.ConnectPort(prev, node, 0, port)
				usedUpstream = true
			} else {
				src := g.AddNode(&dfg.Node{Kind: dfg.KindSource, Path: f})
				g.ConnectPort(src, node, 0, port)
			}
			port++
		}
		if len(e.InputFiles) == 0 {
			g.ConnectPort(prev, node, 0, 0)
			usedUpstream = true
		}
		if !usedUpstream {
			return nil, fmt.Errorf("cluster: suffix stage %v ignores the merged stream", argv)
		}
		prev = node
	}
	sink := g.AddNode(&dfg.Node{Kind: dfg.KindSink})
	g.Connect(prev, sink)
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return g, nil
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
