package rewrite

import (
	"strings"
	"testing"

	"jash/internal/cost"
	"jash/internal/dfg"
	"jash/internal/spec"
)

var lib = spec.Builtin()

func graphOf(t *testing.T, argvs ...[]string) *dfg.Graph {
	t.Helper()
	g, err := dfg.FromPipeline(argvs, lib, dfg.Binding{StdinFile: "/in"})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// fig1Graph is the paper's Figure 1 workload: sort the words of a file.
func fig1Graph(t *testing.T) *dfg.Graph {
	t.Helper()
	return graphOf(t,
		[]string{"cat"},
		[]string{"tr", "A-Z", "a-z"},
		[]string{"tr", "-cs", "A-Za-z", `\n`},
		[]string{"sort"},
	)
}

func countKind(g *dfg.Graph, k dfg.NodeKind) int {
	n := 0
	for _, node := range g.Nodes {
		if node.Kind == k {
			n++
		}
	}
	return n
}

func TestRemoveUselessCat(t *testing.T) {
	g := fig1Graph(t)
	removed := removeUselessCat(g)
	if removed != 1 {
		t.Errorf("removed %d cats, want 1", removed)
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("invalid after elision: %v", err)
	}
	for _, n := range g.Nodes {
		if n.Kind == dfg.KindCommand && n.Argv[0] == "cat" {
			t.Error("cat survived")
		}
	}
}

func TestRemoveUselessCatKeepsFlaggedCat(t *testing.T) {
	g := graphOf(t, []string{"cat", "-n"}, []string{"sort"})
	if removeUselessCat(g) != 0 {
		t.Error("cat -n is not useless")
	}
}

func TestParallelizeStructure(t *testing.T) {
	g := fig1Graph(t)
	ng, err := Parallelize(g, Options{Width: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := ng.Validate(); err != nil {
		t.Fatalf("invalid: %v\n%s", err, ng.Dot())
	}
	if countKind(ng, dfg.KindSplit) != 1 || countKind(ng, dfg.KindMerge) != 1 {
		t.Errorf("split=%d merge=%d", countKind(ng, dfg.KindSplit), countKind(ng, dfg.KindMerge))
	}
	// 4 lanes × (tr, tr, sort) = 12 command nodes (cat was elided).
	if got := countKind(ng, dfg.KindCommand); got != 12 {
		t.Errorf("command nodes = %d, want 12", got)
	}
	// Merge must be a sort -m.
	for _, n := range ng.Nodes {
		if n.Kind == dfg.KindMerge {
			if n.Agg != spec.AggMergeSort {
				t.Errorf("merge agg = %v", n.Agg)
			}
			if strings.Join(n.Argv, " ") != "sort -m" {
				t.Errorf("merge argv = %v", n.Argv)
			}
		}
	}
	// Original untouched.
	if countKind(g, dfg.KindSplit) != 0 {
		t.Error("Parallelize mutated its input")
	}
}

func TestParallelizeCarriesSortFlags(t *testing.T) {
	g := graphOf(t, []string{"sort", "-rn"})
	ng, err := Parallelize(g, Options{Width: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range ng.Nodes {
		if n.Kind == dfg.KindMerge {
			if strings.Join(n.Argv, " ") != "sort -m -rn" {
				t.Errorf("merge argv = %v", n.Argv)
			}
		}
	}
}

func TestParallelizeStatelessOnlyUsesConcat(t *testing.T) {
	g := graphOf(t, []string{"tr", "A-Z", "a-z"}, []string{"grep", "-v", "x"}, []string{"uniq"})
	ng, err := Parallelize(g, Options{Width: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range ng.Nodes {
		if n.Kind == dfg.KindMerge && n.Agg != spec.AggConcat {
			t.Errorf("merge agg = %v, want concat", n.Agg)
		}
		// uniq (Blocking) must remain sequential, after the merge.
		if n.Kind == dfg.KindCommand && n.Argv[0] == "uniq" {
			in := ng.In(n.ID)
			if len(in) != 1 || ng.Nodes[in[0].From].Kind != dfg.KindMerge {
				t.Error("uniq should consume the merge output")
			}
		}
	}
}

func TestParallelizeBuffered(t *testing.T) {
	g := fig1Graph(t)
	ng, err := Parallelize(g, Options{Width: 2, Buffered: true})
	if err != nil {
		t.Fatal(err)
	}
	buffered := 0
	for _, e := range ng.Edges {
		if e.Buffered {
			buffered++
		}
	}
	if buffered != 2 {
		t.Errorf("buffered edges = %d, want 2 (one per lane)", buffered)
	}
}

func TestParallelizeRejectsBlockingOnly(t *testing.T) {
	g := graphOf(t, []string{"uniq", "-c"})
	if _, err := Parallelize(g, Options{Width: 4}); err == nil {
		t.Error("uniq-only pipeline should not parallelize")
	}
}

// writingSegmentGraph is fig1 with its middle stage given an effect
// summary that writes a concrete path (a tee-shaped spec): replicating it
// across lanes would race on that path.
func writingSegmentGraph(t *testing.T) *dfg.Graph {
	t.Helper()
	g := fig1Graph(t)
	for _, n := range g.Nodes {
		if n.Kind == dfg.KindCommand && strings.Join(n.Argv, " ") == `tr -cs A-Za-z \n` {
			ne := *n.Spec
			ne.Name = "tee"
			ne.Args = []string{"tee", "/copy"}
			n.Spec = &ne
		}
	}
	return g
}

// checkWritingNodeRunsOnce fails unless the plan has the writing node
// exactly once, outside every lane: walking back from it reaches a source
// or a merge before any split.
func checkWritingNodeRunsOnce(t *testing.T, plan *dfg.Graph) {
	t.Helper()
	var writers []*dfg.Node
	for _, n := range plan.Nodes {
		if n.Kind == dfg.KindCommand && n.Spec.Name == "tee" {
			writers = append(writers, n)
		}
	}
	if len(writers) != 1 {
		t.Fatalf("the writing node appears %d times in\n%s", len(writers), plan.Script())
	}
	for n := writers[0]; n.Kind == dfg.KindCommand; {
		if n = plan.Nodes[plan.In(n.ID)[0].From]; n.Kind == dfg.KindSplit {
			t.Fatalf("the writing node runs inside a lane of\n%s", plan.Script())
		}
	}
}

// TestParallelizeRefusesWritingNode: a writing node ends a run and runs
// once, outside every lane, at every width; the runs before and after it
// still split.
func TestParallelizeRefusesWritingNode(t *testing.T) {
	g := writingSegmentGraph(t)
	for width := 2; width <= 8; width++ {
		for _, buffered := range []bool{false, true} {
			ng, err := Parallelize(g, Options{Width: width, Buffered: buffered})
			if err != nil {
				t.Fatalf("width %d: %v", width, err)
			}
			checkWritingNodeRunsOnce(t, ng)
			if countKind(ng, dfg.KindSplit) != 2 {
				t.Errorf("width %d: the runs around the writing node did not both split:\n%s", width, ng.Script())
			}
		}
	}
	pash, _, err := PaShPlan(g, 8)
	if err != nil {
		t.Fatal(err)
	}
	checkWritingNodeRunsOnce(t, pash)
}

func TestJashPlanKeepsSequentialOnWritingNode(t *testing.T) {
	g := writingSegmentGraph(t)
	plan, _, err := JashPlan(g, inputsOf(3<<30), cost.IOOptEC2())
	if err != nil {
		t.Fatal(err)
	}
	checkWritingNodeRunsOnce(t, plan)
}

func TestParallelizeWidthOne(t *testing.T) {
	g := fig1Graph(t)
	if _, err := Parallelize(g, Options{Width: 1}); err == nil {
		t.Error("width 1 should be rejected")
	}
}

func TestPaShPlanAlwaysFullWidth(t *testing.T) {
	g := fig1Graph(t)
	ng, dec, err := PaShPlan(g, 8)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Width != 8 || !dec.Buffered {
		t.Errorf("decision = %+v", dec)
	}
	if countKind(ng, dfg.KindSplit) != 1 {
		t.Error("PaSh plan did not parallelize")
	}
}

func TestPaShPlanFallsBackGracefully(t *testing.T) {
	g := graphOf(t, []string{"uniq"})
	ng, dec, err := PaShPlan(g, 8)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Width != 1 || ng != g {
		t.Errorf("expected unchanged graph, decision %+v", dec)
	}
	// The reason is the rewrite's own: it names what could not be split.
	if want := `rewrite: no stage of "uniq" can be split`; dec.Reason != want {
		t.Errorf("reason %q, want %q", dec.Reason, want)
	}
	if _, dec, _ := PaShPlan(fig1Graph(t), 1); !strings.Contains(dec.Reason, "width 1") {
		t.Errorf("reason %q does not name the width", dec.Reason)
	}
}

func inputsOf(size int64) cost.Inputs {
	return cost.Inputs{Size: func(string) int64 { return size }}
}

func TestJashPlanParallelizesOnFastDevice(t *testing.T) {
	g := fig1Graph(t)
	prof := cost.IOOptEC2()
	ng, dec, err := JashPlan(g, inputsOf(3<<30), prof)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Width < 2 {
		t.Fatalf("Jash kept sequential on gp3: %s", dec.Reason)
	}
	if countKind(ng, dfg.KindSplit) != 1 {
		t.Error("no split node in chosen plan")
	}
	for _, e := range ng.Edges {
		if e.Buffered {
			t.Error("Jash plan must stream, not buffer")
		}
	}
}

func TestJashPlanKeepsSequentialOnTinyInput(t *testing.T) {
	g := fig1Graph(t)
	prof := cost.IOOptEC2()
	_, dec, err := JashPlan(g, inputsOf(10<<10), prof) // 10 KiB
	if err != nil {
		t.Fatal(err)
	}
	if dec.Width != 1 {
		t.Errorf("Jash parallelized a 10 KiB input: %+v", dec)
	}
}

func TestJashPlanNeverWorseThanSequentialEstimate(t *testing.T) {
	g := fig1Graph(t)
	for _, prof := range []*cost.Profile{cost.StandardEC2(), cost.IOOptEC2(), cost.Laptop()} {
		for _, size := range []int64{1 << 10, 1 << 20, 1 << 30, 3 << 30} {
			_, dec, err := JashPlan(g, inputsOf(size), prof.Clone())
			if err != nil {
				t.Fatal(err)
			}
			if dec.Estimate.Seconds > dec.SequentialEstimate.Seconds+1e-9 {
				t.Errorf("%s size=%d: chosen %.3fs > sequential %.3fs",
					prof.Name, size, dec.Estimate.Seconds, dec.SequentialEstimate.Seconds)
			}
		}
	}
}

// TestFigure1Shape verifies the model-level ordering the paper's Figure 1
// reports: on the Standard (gp2) volume PaSh's buffered full-width plan is
// slower than sequential bash while Jash is not; on the IO-opt (gp3)
// volume both PaSh and Jash beat bash and Jash ≤ PaSh.
func TestFigure1Shape(t *testing.T) {
	g := fig1Graph(t)
	const size = 3 << 30 // the paper's 3 GB input
	in := inputsOf(size)

	shape := func(prof func() *cost.Profile) (bash, pash, jash float64) {
		bashEst, err := cost.EstimateGraph(Sequential(g), in, prof(), true)
		if err != nil {
			t.Fatal(err)
		}
		pashGraph, _, err := PaShPlan(g, 8)
		if err != nil {
			t.Fatal(err)
		}
		pashEst, err := cost.EstimateGraph(pashGraph, in, prof(), true)
		if err != nil {
			t.Fatal(err)
		}
		_, dec, err := JashPlan(g, in, prof())
		if err != nil {
			t.Fatal(err)
		}
		return bashEst.Seconds, pashEst.Seconds, dec.Estimate.Seconds
	}

	bash2, pash2, jash2 := shape(cost.StandardEC2)
	if !(pash2 > bash2) {
		t.Errorf("Standard: PaSh %.1fs should exceed bash %.1fs", pash2, bash2)
	}
	if !(jash2 <= bash2*1.01) {
		t.Errorf("Standard: Jash %.1fs should not regress vs bash %.1fs", jash2, bash2)
	}

	bash3, pash3, jash3 := shape(cost.IOOptEC2)
	if !(pash3 < bash3) {
		t.Errorf("IO-opt: PaSh %.1fs should beat bash %.1fs", pash3, bash3)
	}
	if !(jash3 < bash3) {
		t.Errorf("IO-opt: Jash %.1fs should beat bash %.1fs", jash3, bash3)
	}
	if !(jash3 <= pash3*1.01) {
		t.Errorf("IO-opt: Jash %.1fs should be <= PaSh %.1fs", jash3, pash3)
	}
	t.Logf("Standard: bash=%.1fs pash=%.1fs jash=%.1fs", bash2, pash2, jash2)
	t.Logf("IO-opt:   bash=%.1fs pash=%.1fs jash=%.1fs", bash3, pash3, jash3)
}
