package rewrite

import (
	"reflect"
	"sort"
	"strings"
	"testing"

	"jash/internal/cost"
	"jash/internal/dfg"
	"jash/internal/syntax"
)

// exhaustivePlan is JashPlan without the bound: it builds and estimates
// every width, then applies the adoption rule. It is the reference the
// bound must agree with.
func exhaustivePlan(g *dfg.Graph, in cost.Inputs, prof *cost.Profile) (*dfg.Graph, Decision, error) {
	seqGraph := Sequential(g)
	seqEst, err := cost.EstimateGraph(seqGraph, in, prof, true)
	if err != nil {
		return nil, Decision{}, err
	}
	best, bestEst, bestWidth := seqGraph, seqEst, 1
	for width := 2; width <= prof.Cores; width *= 2 {
		cand, err := Parallelize(g, Options{Width: width})
		if err != nil {
			break
		}
		est, err := cost.EstimateGraph(cand, in, prof, true)
		if err != nil {
			return nil, Decision{}, err
		}
		if est.Seconds < bestEst.Seconds {
			best, bestEst, bestWidth = cand, est, width
		}
	}
	dec := Decision{Strategy: "jash-jit", Width: bestWidth, Estimate: bestEst, SequentialEstimate: seqEst}
	if bestWidth == 1 || bestEst.Seconds > (1-noRegressionDelta)*seqEst.Seconds ||
		seqEst.Seconds-bestEst.Seconds < minGainSeconds {
		dec.Width, dec.Estimate = 1, seqEst
		return seqGraph, dec, nil
	}
	return best, dec, nil
}

// regionShapes are the pipeline shapes the region former's tests accept,
// with their words already expanded, plus the benchmark's.
var regionShapes = []string{
	"cat /in /p1 | tr a-z A-Z | sort >>/work/res",
	"sort </in >/abs",
	"cat /logs/a.log /logs/b.log | sort -r",
	"grep -c '[a-z]*' /in",
	"cat /in | sort",
	"cat /in | head -n 2",
	"cat /in | sort >/res",
	"sort </in",
	"cat /in | tr A-Z a-z | tr -cs A-Za-z '\\n' | sort | uniq -c | sort -rn",
	"grep ' 200 ' /in | cut -d ' ' -f 1 | sort -u | wc -l >/o",
	"cut -d ' ' -f 8 /in | sort | uniq -c >/o",
	"grep -c ' 404 ' /in",
	"cat /in | grep -v x | tr a-z A-Z | wc -l",
	"comm -23 /in /dict",
}

func shapeGraph(t *testing.T, src string) *dfg.Graph {
	t.Helper()
	script, err := syntax.Parse(src)
	if err != nil || len(script.Stmts) != 1 {
		t.Fatalf("parse %q: %v", src, err)
	}
	g, err := dfg.FromStmt(script.Stmts[0], lib, nil, true)
	if err != nil {
		t.Fatalf("%q: %v", src, err)
	}
	return g
}

// TestJashPlanBoundKeepsTheDecision: on every shape, at input sizes from
// 1 KiB to 8 GiB in steps of a quarter (so both sides of minGainSeconds,
// closely), on each profile including a gp2 volume with its burst credits
// drained, the bounded planner chooses what the exhaustive search chooses:
// the same width, the same graph and the same estimate.
func TestJashPlanBoundKeepsTheDecision(t *testing.T) {
	profiles := map[string]func() *cost.Profile{
		"laptop":    cost.Laptop,
		"gp2":       cost.StandardEC2,
		"gp3":       cost.IOOptEC2,
		"gp2-empty": func() *cost.Profile { p := cost.StandardEC2(); p.Devices["default"].Credits = 0; return p },
	}
	bounded, searched, parallel := 0, 0, 0
	for _, src := range regionShapes {
		g := shapeGraph(t, src)
		before := g.Script()
		for name, mk := range profiles {
			for size := 1024.0; size < 8<<30; size *= 1.25 {
				in := inputsOf(int64(size))
				got, dec, err := JashPlan(g, in, mk())
				want, ref, refErr := exhaustivePlan(g, in, mk())
				if err != nil || refErr != nil {
					t.Fatalf("%s %s %.0f: %v / %v", src, name, size, err, refErr)
				}
				if dec.Width != ref.Width || got.Script() != want.Script() ||
					!reflect.DeepEqual(dec.Estimate, ref.Estimate) ||
					!reflect.DeepEqual(dec.SequentialEstimate, ref.SequentialEstimate) {
					t.Fatalf("%q on %s at %.0f bytes: bounded width %d %v\n%s\nexhaustive width %d %v\n%s",
						src, name, size, dec.Width, dec.Estimate, got.Script(), ref.Width, ref.Estimate, want.Script())
				}
				switch {
				case strings.Contains(dec.Reason, "minimum gain"):
					bounded++
				case dec.Width > 1:
					parallel++
					searched++
				default:
					searched++
				}
			}
		}
		if g.Script() != before {
			t.Errorf("%q: planning changed the offered graph to\n%s", src, g.Script())
		}
	}
	if bounded == 0 || searched == 0 || parallel == 0 {
		t.Errorf("the sweep must cover the bound (%d), the search (%d) and a parallel plan (%d)",
			bounded, searched, parallel)
	}
}

// TestJashPlanBoundReason: a plan the bound decides says so, with the
// estimate and the minimum gain it was compared against.
func TestJashPlanBoundReason(t *testing.T) {
	_, dec, err := JashPlan(shapeGraph(t, "cat /in | sort"), inputsOf(20<<10), cost.Laptop())
	if err != nil || dec.Width != 1 {
		t.Fatalf("width %d err %v", dec.Width, err)
	}
	const want = "keep sequential: sequential estimate 0.001s is below the 0.05s minimum gain"
	if dec.Reason != want {
		t.Errorf("reason %q, want %q", dec.Reason, want)
	}
}

// TestWidthOnePlanAllocates pins what deciding a small pipeline costs:
// the bounded plan of a 4-stage graph on a kilobyte input builds no
// candidate and no copy, so what it allocates is the one estimate's
// tables, its phase list and the reason; the graph queries it and the
// executor's Validate guard make allocate nothing.
func TestWidthOnePlanAllocates(t *testing.T) {
	g := shapeGraph(t, "grep ' 200 ' /in | cut -d ' ' -f 1 | sort -u | wc -l >/o")
	in, prof := inputsOf(20<<10), cost.Laptop()
	// The graph-query and Validate pins below hold under -race too.
	if n := testing.AllocsPerRun(50, func() {
		if _, dec, err := JashPlan(g, in, prof); err != nil || dec.Width != 1 {
			t.Fatalf("width %d err %v", dec.Width, err)
		}
	}); n > 9 && !raceEnabled {
		t.Errorf("JashPlan on a small 4-stage graph allocates %v times, want at most 9 (the search without the bound made 837)", n)
	}
	for _, n := range g.Nodes {
		id := n.ID
		if allocs := testing.AllocsPerRun(20, func() { _, _ = g.In(id), g.Out(id) }); allocs != 0 {
			t.Errorf("In/Out(%d) allocate %v times", id, allocs)
		}
	}
	if allocs := testing.AllocsPerRun(20, func() {
		if err := g.Validate(); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("Validate allocates %v times", allocs)
	}
}

// naiveIn, naiveOut and naiveTopo answer the graph queries from Edges
// alone, the way they were answered before the graph kept an index.
func naiveIn(g *dfg.Graph, id int) []*dfg.Edge {
	var in []*dfg.Edge
	for _, e := range g.Edges {
		if e.To == id {
			in = append(in, e)
		}
	}
	sort.SliceStable(in, func(i, j int) bool { return in[i].ToPort < in[j].ToPort })
	return in
}

func naiveOut(g *dfg.Graph, id int) []*dfg.Edge {
	var out []*dfg.Edge
	for _, e := range g.Edges {
		if e.From == id {
			out = append(out, e)
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].FromPort < out[j].FromPort })
	return out
}

func naiveTopo(g *dfg.Graph) []int {
	indeg := map[int]int{}
	for id := range g.Nodes {
		indeg[id] = 0
	}
	for _, e := range g.Edges {
		indeg[e.To]++
	}
	var queue, order []int
	for id, d := range indeg {
		if d == 0 {
			queue = append(queue, id)
		}
	}
	sort.Ints(queue)
	for len(queue) > 0 {
		id := queue[0]
		queue = queue[1:]
		order = append(order, id)
		var next []int
		for _, e := range g.Edges {
			if e.From == id {
				if indeg[e.To]--; indeg[e.To] == 0 {
					next = append(next, e.To)
				}
			}
		}
		sort.Ints(next)
		queue = append(queue, next...)
	}
	return order
}

func checkIndex(t *testing.T, what string, g *dfg.Graph) {
	t.Helper()
	for id := range g.Nodes {
		if got, want := g.In(id), naiveIn(g, id); !reflect.DeepEqual(got, want) && len(got)+len(want) > 0 {
			t.Errorf("%s: In(%d) = %v, want %v", what, id, got, want)
		}
		if got, want := g.Out(id), naiveOut(g, id); !reflect.DeepEqual(got, want) && len(got)+len(want) > 0 {
			t.Errorf("%s: Out(%d) = %v, want %v", what, id, got, want)
		}
	}
	order, err := g.TopoSort()
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	var ids []int
	for _, n := range order {
		ids = append(ids, n.ID)
	}
	if want := naiveTopo(g); !reflect.DeepEqual(ids, want) {
		t.Errorf("%s: TopoSort = %v, want %v", what, ids, want)
	}
}

// TestGraphIndexMatchesEdges: after every way a graph is built or changed
// — translation, RemoveNode (through useless-cat removal), Clone, and
// Parallelize at every width — In, Out and TopoSort answer what scanning
// Edges answers, with ports in order, and a clone's index points at the
// clone's own edges.
func TestGraphIndexMatchesEdges(t *testing.T) {
	shapes := append([]string{"cat /in | cat | sort | cat >/o", "cat /in | cat"}, regionShapes...)
	for _, src := range shapes {
		g := shapeGraph(t, src)
		checkIndex(t, src, g)
		cp := g.Clone()
		checkIndex(t, src+" (clone)", cp)
		for _, e := range cp.Edges {
			for _, orig := range g.Edges {
				if e == orig {
					t.Fatalf("%s: the clone shares an edge with its original", src)
				}
			}
		}
		if removeUselessCat(cp) > 0 {
			checkIndex(t, src+" (cats removed)", cp)
			checkIndex(t, src+" (original after its clone changed)", g)
		}
		for width := 2; width <= 8; width *= 2 {
			if p, err := Parallelize(g, Options{Width: width}); err == nil {
				checkIndex(t, src+" (parallel)", p)
				checkIndex(t, src+" (parallel, cloned)", p.Clone())
			}
		}
	}
}
