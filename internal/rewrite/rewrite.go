// Package rewrite implements the graph-rewriting system that turns
// sequential dataflow graphs into data-parallel ones (the paper's E2/E3):
// splitter insertion, lane replication, aggregator-aware merging, useless-
// cat elision, and the two planning strategies the evaluation compares —
// the PaSh-style ahead-of-time plan (full width, buffered staging, no
// resource model) and the Jash plan (cost-budgeted width search over the
// live resource profile, streaming merge, and a no-regression guarantee).
package rewrite

import (
	"fmt"

	"jash/internal/analysis"
	"jash/internal/cost"
	"jash/internal/dfg"
	"jash/internal/spec"
)

// Options controls one parallelization rewrite.
type Options struct {
	// Width is the number of parallel lanes (≥ 2 to change anything).
	Width int
	// Buffered materializes lane outputs through storage before merging,
	// PaSh's staging strategy. Streaming (false) pipes lanes directly
	// into the merger.
	Buffered bool
}

// RemoveUselessCat elides pass-through `cat` nodes (single input, single
// output, no flags), the classic cat-split fusion enabling transformation.
// It returns the number of nodes removed.
func RemoveUselessCat(g *dfg.Graph) int {
	removed := 0
	for {
		target := uselessCat(g)
		if target == nil {
			return removed
		}
		in := g.In(target.ID)[0]
		out := g.Out(target.ID)[0]
		from, to := g.Nodes[in.From], g.Nodes[out.To]
		fromPort, toPort := in.FromPort, out.ToPort
		buffered := in.Buffered || out.Buffered
		g.RemoveNode(target.ID)
		e := g.ConnectPort(from, to, fromPort, toPort)
		e.Buffered = buffered
		removed++
	}
}

// uselessCat returns a node RemoveUselessCat would elide, or nil.
func uselessCat(g *dfg.Graph) *dfg.Node {
	for _, n := range g.Nodes {
		if n.Kind != dfg.KindCommand || len(n.Argv) != 1 || n.Argv[0] != "cat" {
			continue
		}
		if len(g.In(n.ID)) == 1 && len(g.Out(n.ID)) == 1 {
			return n
		}
	}
	return nil
}

// Sequential returns the graph a sequential plan runs: g without its
// useless cats. That is g itself when it has none, and a copy otherwise, so
// g is never mutated.
func Sequential(g *dfg.Graph) *dfg.Graph {
	if uselessCat(g) == nil {
		return g
	}
	seq := g.Clone()
	RemoveUselessCat(seq)
	return seq
}

// segment is the parallelizable run found on a graph's spine.
type segment struct {
	pre      *dfg.Node   // node feeding the segment (source or command)
	stages   []*dfg.Node // consecutive stateless stages
	tail     *dfg.Node   // optional trailing Parallelizable stage
	next     *dfg.Node   // node consuming the segment's output
	nextPort int
}

// findSegment locates the maximal splittable run: it walks the spine from
// each source (side inputs like comm's dictionary have spines that yield
// no segment) and returns the first viable one.
func findSegment(g *dfg.Graph) (*segment, error) {
	srcs := g.Sources()
	if len(srcs) == 0 {
		return nil, fmt.Errorf("rewrite: graph has no source")
	}
	var firstErr error
	for _, src := range srcs {
		seg, err := segmentFrom(g, src)
		if err == nil {
			return seg, nil
		}
		if firstErr == nil {
			firstErr = err
		}
	}
	return nil, firstErr
}

func segmentFrom(g *dfg.Graph, src *dfg.Node) (*segment, error) {
	chain := g.Chain(src)
	seg := &segment{pre: src}
	i := 1
	for ; i < len(chain); i++ {
		n := chain[i]
		if n.Kind != dfg.KindCommand || n.Spec == nil {
			break
		}
		if n.Spec.Class == spec.Stateless {
			seg.stages = append(seg.stages, n)
			continue
		}
		if n.Spec.Class == spec.Parallelizable {
			seg.tail = n
			i++
		}
		break
	}
	if len(seg.stages) == 0 && seg.tail == nil {
		return nil, fmt.Errorf("rewrite: no parallelizable segment")
	}
	if i >= len(chain) {
		return nil, fmt.Errorf("rewrite: segment has no consumer")
	}
	seg.next = chain[i]
	last := seg.tail
	if last == nil {
		last = seg.stages[len(seg.stages)-1]
	}
	out := g.Out(last.ID)
	if len(out) != 1 {
		return nil, fmt.Errorf("rewrite: segment tail has %d outputs", len(out))
	}
	seg.nextPort = out[0].ToPort
	return seg, nil
}

// Parallelize returns a copy of the graph with its splittable segment
// fanned out across opts.Width lanes, or an error when the graph has no
// such segment. The original graph is never mutated.
func Parallelize(g *dfg.Graph, opts Options) (*dfg.Graph, error) {
	if opts.Width < 2 {
		return nil, fmt.Errorf("rewrite: width %d cannot parallelize", opts.Width)
	}
	ng := g.Clone()
	RemoveUselessCat(ng)
	seg, err := findSegment(ng)
	if err != nil {
		return nil, err
	}
	// Determine the merge discipline, and from it the split discipline:
	// order-aware merges (concat, sort -m) need consecutive chunks to
	// keep output byte-identical with the sequential run; only the
	// commutative sum aggregator tolerates round-robin distribution.
	agg := spec.AggConcat
	dist := dfg.DistConsecutive
	var mergeArgv []string
	if seg.tail != nil {
		agg = seg.tail.Spec.Agg
		if agg == spec.AggMergeSort {
			mergeArgv = append([]string{seg.tail.Argv[0], "-m"}, seg.tail.Argv[1:]...)
		}
		if agg == spec.AggSum {
			dist = dfg.DistRoundRobin
		}
	}
	// Disconnect the segment from the graph.
	segmentNodes := append([]*dfg.Node(nil), seg.stages...)
	if seg.tail != nil {
		segmentNodes = append(segmentNodes, seg.tail)
	}
	// Replication guard: a lane copy of a node that writes a named path
	// (sort -o, tee) races with its siblings on that path. The effect
	// summary must prove each replicated node write-free.
	for _, n := range segmentNodes {
		if err := analysis.ReplicationHazard(n.Spec); err != nil {
			return nil, fmt.Errorf("rewrite: refusing replication: %w", err)
		}
	}
	for _, n := range segmentNodes {
		ng.RemoveNode(n.ID)
	}
	// Build split -> lanes -> merge.
	split := ng.AddNode(&dfg.Node{Kind: dfg.KindSplit, Width: opts.Width, Dist: dist})
	ng.Connect(ng.Nodes[seg.pre.ID], split)
	merge := ng.AddNode(&dfg.Node{Kind: dfg.KindMerge, Agg: agg, Argv: mergeArgv, Width: opts.Width})
	for lane := 0; lane < opts.Width; lane++ {
		prev := split
		prevPort := lane
		for _, orig := range segmentNodes {
			n := ng.AddNode(&dfg.Node{
				Kind: dfg.KindCommand,
				Argv: append([]string(nil), orig.Argv...),
				Spec: orig.Spec,
			})
			ng.ConnectPort(prev, n, prevPort, 0)
			prev, prevPort = n, 0
		}
		e := ng.ConnectPort(prev, merge, prevPort, lane)
		e.Buffered = opts.Buffered
	}
	ng.ConnectPort(merge, ng.Nodes[seg.next.ID], 0, seg.nextPort)
	if err := ng.Validate(); err != nil {
		return nil, fmt.Errorf("rewrite: produced invalid graph: %w", err)
	}
	return ng, nil
}

// Decision records what a planner chose and why, for telemetry and the
// benchmark harness.
type Decision struct {
	Strategy string // "sequential", "pash-aot", "jash-jit"
	Width    int
	Buffered bool
	Estimate cost.Estimate
	// SequentialEstimate is the baseline the decision compared against.
	SequentialEstimate cost.Estimate
	// Reason is a short human-readable justification.
	Reason string
}

// PaShPlan is the ahead-of-time baseline: parallelize to full core width
// with buffered staging, without consulting any resource model. This
// reproduces the published PaSh strategy (and, on Figure 1's Standard
// volume, its regression).
func PaShPlan(g *dfg.Graph, cores int) (*dfg.Graph, Decision, error) {
	ng, err := Parallelize(g, Options{Width: cores, Buffered: true})
	if err != nil {
		// Nothing to parallelize: PaSh runs the script unchanged.
		return g, Decision{Strategy: "pash-aot", Width: 1, Reason: "no dataflow segment"}, nil
	}
	return ng, Decision{
		Strategy: "pash-aot",
		Width:    cores,
		Buffered: true,
		Reason:   fmt.Sprintf("AOT: always parallelize to %d lanes", cores),
	}, nil
}

// noRegressionDelta is the minimum relative estimated improvement before
// Jash adopts a rewrite (§3.2's "no regressions!"), and minGainSeconds the
// minimum absolute one — parallelizing a kilobyte-sized input is never
// worth the orchestration overhead, which is exactly the "determine in the
// moment whether it is even worth trying to optimize on small inputs"
// behaviour the paper calls for.
const (
	noRegressionDelta = 0.05
	minGainSeconds    = 0.05
)

// JashPlan is the resource-aware JIT plan: estimate the sequential graph
// and streaming-parallel candidates at widths 2, 4, ..., cores on the
// live profile (including current burst-credit state), and adopt the
// cheapest plan only if it beats sequential by noRegressionDelta and by
// minGainSeconds.
//
// It bounds before it searches: no estimate is negative, so no candidate
// can gain minGainSeconds over a sequential estimate smaller than that, and
// such a graph — almost every pipeline a script offers — is kept sequential
// without building one. The decision is the one the search would reach.
func JashPlan(g *dfg.Graph, in cost.Inputs, prof *cost.Profile) (*dfg.Graph, Decision, error) {
	seqGraph := Sequential(g)
	seqEst, err := cost.EstimateGraph(seqGraph, in, prof, true)
	if err != nil {
		return nil, Decision{}, err
	}
	dec := Decision{
		Strategy:           "jash-jit",
		Width:              1,
		Estimate:           seqEst,
		SequentialEstimate: seqEst,
	}
	if seqEst.Seconds < minGainSeconds {
		dec.Reason = fmt.Sprintf(
			"keep sequential: sequential estimate %.3fs is below the %.2fs minimum gain",
			seqEst.Seconds, minGainSeconds)
		return seqGraph, dec, nil
	}
	best := seqGraph
	bestEst := seqEst
	bestWidth := 1
	for width := 2; width <= prof.Cores; width *= 2 {
		cand, err := Parallelize(g, Options{Width: width, Buffered: false})
		if err != nil {
			break // no segment: widths beyond won't appear either
		}
		est, err := cost.EstimateGraph(cand, in, prof, true)
		if err != nil {
			return nil, Decision{}, err
		}
		if est.Seconds < bestEst.Seconds {
			best, bestEst, bestWidth = cand, est, width
		}
	}
	if bestWidth == 1 || bestEst.Seconds > (1-noRegressionDelta)*seqEst.Seconds ||
		seqEst.Seconds-bestEst.Seconds < minGainSeconds {
		dec.Reason = fmt.Sprintf(
			"keep sequential: best parallel estimate %.2fs does not beat sequential %.2fs by %d%%",
			bestEst.Seconds, seqEst.Seconds, int(noRegressionDelta*100))
		return seqGraph, dec, nil
	}
	dec.Width, dec.Estimate = bestWidth, bestEst
	dec.Reason = fmt.Sprintf("parallelize ×%d: estimated %.2fs vs sequential %.2fs",
		bestWidth, bestEst.Seconds, seqEst.Seconds)
	return best, dec, nil
}
