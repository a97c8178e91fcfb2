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
	"strings"

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

// removeUselessCat elides pass-through `cat` nodes (single input, single
// output, no flags), the classic cat-split fusion enabling transformation.
// It returns the number of nodes removed.
func removeUselessCat(g *dfg.Graph) int {
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

// uselessCat returns a node removeUselessCat would elide, or nil.
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
	removeUselessCat(seq)
	return seq
}

// Splittable is the one rule for which pipeline stages may be split into
// lanes; the graph rewrite and the cluster's placement both ask it. The run
// it finds begins at stages[0]: consecutive Stateless stages and at most
// one trailing Parallelizable stage, each reading a single stream and safe
// to replicate — a lane copy of a node that writes a named path (sort -o,
// tee) would race with its siblings on that path. It returns the run's
// length, 0 when stages[0] begins none, and how the lanes recombine: the
// aggregator, and for a merge sort the command that merges.
func Splittable(stages []*spec.Effective) (n int, agg spec.AggKind, mergeArgv []string) {
	agg = spec.AggConcat
	for _, e := range stages {
		if e == nil || !e.Parallelizable() || len(e.InputFiles) > 1 || analysis.ReplicationHazard(e) != nil {
			break
		}
		n++
		if e.Class == spec.Parallelizable {
			agg = e.Agg
			if agg == spec.AggMergeSort {
				argv := e.ArgvWithoutInputs()
				mergeArgv = append([]string{argv[0], "-m"}, argv[1:]...)
			}
			break
		}
	}
	return n, agg, mergeArgv
}

// Parallelize returns a copy of the graph with every splittable run on its
// spine fanned out across opts.Width lanes, or an error when it has none.
// A stage outside every run (blocking, side-input, writing) runs once, and
// a merge feeds the next run's split directly. The original graph is never
// mutated.
func Parallelize(g *dfg.Graph, opts Options) (*dfg.Graph, error) {
	if opts.Width < 2 {
		return nil, fmt.Errorf("rewrite: width %d cannot parallelize", opts.Width)
	}
	ng := g.Clone()
	removeUselessCat(ng)
	srcs := ng.Sources()
	if len(srcs) == 0 {
		return nil, fmt.Errorf("rewrite: graph has no source")
	}
	// The first source feeds the first stage, so its chain is the spine.
	spine := ng.Chain(srcs[0])
	stages := make([]*spec.Effective, len(spine))
	for i, n := range spine {
		stages[i] = n.Spec
	}
	runs := 0
	for i := 0; i < len(spine); {
		n, agg, mergeArgv := Splittable(stages[i:])
		if n == 0 {
			i++
			continue
		}
		fanOut(ng, spine[i:i+n], agg, mergeArgv, opts)
		i += n
		runs++
	}
	if runs == 0 {
		var labels []string
		for _, n := range spine {
			if n.Kind == dfg.KindCommand {
				labels = append(labels, n.Label())
			}
		}
		return nil, fmt.Errorf("rewrite: no stage of %q can be split", strings.Join(labels, " | "))
	}
	if err := ng.Validate(); err != nil {
		return nil, fmt.Errorf("rewrite: produced invalid graph: %w", err)
	}
	return ng, nil
}

// fanOut replaces run, a chain of nodes with one input and one output, by
// split -> width lane copies of run -> merge.
func fanOut(g *dfg.Graph, run []*dfg.Node, agg spec.AggKind, mergeArgv []string, opts Options) {
	in, out := g.In(run[0].ID)[0], g.Out(run[len(run)-1].ID)[0]
	pre, next, nextPort := g.Nodes[in.From], g.Nodes[out.To], out.ToPort
	for _, n := range run {
		g.RemoveNode(n.ID)
	}
	// Order-aware merges (concat, sort -m) need consecutive chunks to keep
	// the output byte-identical with the sequential run; only the
	// commutative sum tolerates round-robin distribution.
	dist := dfg.DistConsecutive
	if agg == spec.AggSum {
		dist = dfg.DistRoundRobin
	}
	split := g.AddNode(&dfg.Node{Kind: dfg.KindSplit, Width: opts.Width, Dist: dist})
	g.Connect(pre, split)
	merge := g.AddNode(&dfg.Node{Kind: dfg.KindMerge, Agg: agg, Argv: mergeArgv, Width: opts.Width})
	for lane := 0; lane < opts.Width; lane++ {
		prev := split
		prevPort := lane
		for _, orig := range run {
			n := g.AddNode(&dfg.Node{
				Kind: dfg.KindCommand,
				Argv: append([]string(nil), orig.Argv...),
				Spec: orig.Spec,
			})
			g.ConnectPort(prev, n, prevPort, 0)
			prev, prevPort = n, 0
		}
		e := g.ConnectPort(prev, merge, prevPort, lane)
		e.Buffered = opts.Buffered
	}
	g.ConnectPort(merge, next, 0, nextPort)
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
		return g, Decision{Strategy: "pash-aot", Width: 1, Reason: err.Error()}, nil
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
