package dfg

import (
	"errors"
	"strings"
	"testing"

	"jash/internal/spec"
)

var lib = spec.Builtin()

func mustGraph(t *testing.T, b Binding, argvs ...[]string) *Graph {
	t.Helper()
	g, err := FromPipeline(argvs, lib, b)
	if err != nil {
		t.Fatalf("FromPipeline: %v", err)
	}
	return g
}

func TestTranslateSimplePipeline(t *testing.T) {
	g := mustGraph(t, Binding{StdinFile: "/in"},
		[]string{"tr", "A-Z", "a-z"},
		[]string{"sort"},
	)
	if len(g.Sources()) != 1 || g.Sources()[0].Path != "/in" {
		t.Errorf("sources = %v", g.Sources())
	}
	if g.Sink() == nil || g.Sink().Path != "" {
		t.Errorf("sink = %v", g.Sink())
	}
	order, err := g.TopoSort()
	if err != nil {
		t.Fatal(err)
	}
	if len(order) != 4 { // src, tr, sort, sink
		t.Errorf("got %d nodes", len(order))
	}
}

func TestTranslateCatWithFiles(t *testing.T) {
	g := mustGraph(t, Binding{},
		[]string{"cat", "/f1", "/f2"},
		[]string{"wc", "-l"},
	)
	srcs := g.Sources()
	if len(srcs) != 2 || srcs[0].Path != "/f1" || srcs[1].Path != "/f2" {
		t.Fatalf("sources = %v", srcs)
	}
	// cat node argv must have lost its file operands.
	for _, n := range g.Nodes {
		if n.Kind == KindCommand && n.Argv[0] == "cat" {
			if len(n.Argv) != 1 {
				t.Errorf("cat argv = %v", n.Argv)
			}
			in := g.In(n.ID)
			if len(in) != 2 || in[0].ToPort != 0 || in[1].ToPort != 1 {
				t.Errorf("cat inputs = %+v", in)
			}
		}
	}
}

func TestTranslateGrepKeepsPattern(t *testing.T) {
	g := mustGraph(t, Binding{},
		[]string{"grep", "-v", "999", "/data"},
	)
	for _, n := range g.Nodes {
		if n.Kind == KindCommand {
			want := "grep -v 999"
			if strings.Join(n.Argv, " ") != want {
				t.Errorf("grep argv = %v, want %q", n.Argv, want)
			}
		}
	}
	if srcs := g.Sources(); len(srcs) != 1 || srcs[0].Path != "/data" {
		t.Errorf("sources = %v", g.Sources())
	}
}

func TestTranslateCommPorts(t *testing.T) {
	g := mustGraph(t, Binding{StdinFile: "/words"},
		[]string{"sort", "-u"},
		[]string{"comm", "-13", "/dict", "-"},
	)
	var comm *Node
	for _, n := range g.Nodes {
		if n.Kind == KindCommand && n.Argv[0] == "comm" {
			comm = n
		}
	}
	if comm == nil {
		t.Fatal("no comm node")
	}
	in := g.In(comm.ID)
	if len(in) != 2 {
		t.Fatalf("comm has %d inputs", len(in))
	}
	// Port 0 = /dict source, port 1 = upstream sort.
	p0 := g.Nodes[in[0].From]
	p1 := g.Nodes[in[1].From]
	if p0.Kind != KindSource || p0.Path != "/dict" {
		t.Errorf("port0 = %v", p0.Label())
	}
	if p1.Kind != KindCommand || p1.Argv[0] != "sort" {
		t.Errorf("port1 = %v", p1.Label())
	}
}

func TestTranslateRejectsUnknown(t *testing.T) {
	_, err := FromPipeline([][]string{{"mystery"}}, lib, Binding{})
	if !errors.Is(err, ErrNotDataflow) {
		t.Errorf("err = %v", err)
	}
}

func TestTranslateRejectsSideEffectfulMidPipeline(t *testing.T) {
	_, err := FromPipeline([][]string{
		{"cat", "/f"},
		{"tee", "/copy"},
	}, lib, Binding{})
	if !errors.Is(err, ErrNotDataflow) {
		t.Errorf("err = %v", err)
	}
	_, err = FromPipeline([][]string{
		{"cat", "/f"},
		{"xargs", "rm"},
	}, lib, Binding{})
	if !errors.Is(err, ErrNotDataflow) {
		t.Errorf("xargs err = %v", err)
	}
}

func TestTranslateRejectsGeneratorMidPipeline(t *testing.T) {
	_, err := FromPipeline([][]string{
		{"cat", "/f"},
		{"seq", "10"},
	}, lib, Binding{})
	if !errors.Is(err, ErrNotDataflow) {
		t.Errorf("err = %v", err)
	}
}

func TestTranslateGeneratorFirstStage(t *testing.T) {
	g := mustGraph(t, Binding{},
		[]string{"seq", "100"},
		[]string{"wc", "-l"},
	)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestTranslateSinkBinding(t *testing.T) {
	g := mustGraph(t, Binding{StdinFile: "/in", StdoutFile: "/out", StdoutAppend: true},
		[]string{"sort"},
	)
	sink := g.Sink()
	if sink.Path != "/out" || !sink.Append {
		t.Errorf("sink = %+v", sink)
	}
}

func TestValidateCatchesBrokenGraphs(t *testing.T) {
	g := New()
	g.AddNode(&Node{Kind: KindSource, Path: "/x"})
	if err := g.Validate(); err == nil {
		t.Error("disconnected source should fail validation")
	}
	g2 := New()
	a := g2.AddNode(&Node{Kind: KindSource})
	b := g2.AddNode(&Node{Kind: KindSink})
	c := g2.AddNode(&Node{Kind: KindSink})
	g2.Connect(a, b)
	g2.Connect(a, c)
	if err := g2.Validate(); err == nil {
		t.Error("two sinks should fail validation")
	}
}

func TestDotExport(t *testing.T) {
	g := mustGraph(t, Binding{StdinFile: "/in"},
		[]string{"tr", "A-Z", "a-z"},
		[]string{"sort"},
	)
	dot := g.Dot()
	for _, want := range []string{"digraph", "src:/in", "tr A-Z a-z", "sort", "stdout"} {
		if !strings.Contains(dot, want) {
			t.Errorf("dot missing %q:\n%s", want, dot)
		}
	}
}

func TestJSONExport(t *testing.T) {
	g := mustGraph(t, Binding{StdinFile: "/in"}, []string{"sort"})
	data, err := g.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"kind": "source"`, `"kind": "command"`, `"kind": "sink"`} {
		if !strings.Contains(string(data), want) {
			t.Errorf("json missing %s:\n%s", want, data)
		}
	}
}

func TestScriptUnparse(t *testing.T) {
	for _, c := range []struct {
		g    *Graph
		want string
	}{
		{mustGraph(t, Binding{StdinFile: "/in", StdoutFile: "/out"}, []string{"tr", "A-Z", "a-z"}, []string{"sort", "-u"}),
			"cat /in | tr A-Z a-z | sort -u >/out"},
		// Each word is quoted: a field with a space is one word again.
		{mustGraph(t, Binding{StdinFile: "/w", StdoutFile: "/a b"}, []string{"grep", "a b"}, []string{"wc", "-l"}),
			"cat /w | grep 'a b' | wc -l >'/a b'"},
	} {
		if s := c.g.Script(); s != c.want {
			t.Errorf("Script() = %q, want %q", s, c.want)
		}
	}
}

func TestRemoveNode(t *testing.T) {
	g := mustGraph(t, Binding{StdinFile: "/in"},
		[]string{"tr", "a", "b"},
		[]string{"sort"},
	)
	var trID int
	for _, n := range g.Nodes {
		if n.Kind == KindCommand && n.Argv[0] == "tr" {
			trID = n.ID
		}
	}
	g.RemoveNode(trID)
	if _, ok := g.Nodes[trID]; ok {
		t.Error("node still present")
	}
	for _, e := range g.Edges {
		if e.From == trID || e.To == trID {
			t.Error("dangling edge")
		}
	}
}

func TestScriptNonLinearFallback(t *testing.T) {
	// A parallel graph is not a pipeline: Script() must fall back to the
	// node listing rather than emit wrong shell.
	g := New()
	src := g.AddNode(&Node{Kind: KindSource, Path: "/in"})
	split := g.AddNode(&Node{Kind: KindSplit, Width: 2})
	a := g.AddNode(&Node{Kind: KindCommand, Argv: []string{"tr", "a", "b"}})
	b := g.AddNode(&Node{Kind: KindCommand, Argv: []string{"tr", "a", "b"}})
	merge := g.AddNode(&Node{Kind: KindMerge, Agg: 0, Width: 2})
	sink := g.AddNode(&Node{Kind: KindSink})
	g.Connect(src, split)
	g.ConnectPort(split, a, 0, 0)
	g.ConnectPort(split, b, 1, 0)
	g.ConnectPort(a, merge, 0, 0)
	g.ConnectPort(b, merge, 0, 1)
	g.Connect(merge, sink)
	s := g.Script()
	if !strings.Contains(s, "# node") || !strings.Contains(s, "split") {
		t.Errorf("Script() = %q", s)
	}
}

func TestCloneIndependence(t *testing.T) {
	g := mustGraph(t, Binding{StdinFile: "/in"}, []string{"sort"})
	c := g.Clone()
	for _, n := range c.Nodes {
		if n.Kind == KindCommand {
			n.Argv[0] = "mutated"
		}
	}
	for _, n := range g.Nodes {
		if n.Kind == KindCommand && n.Argv[0] == "mutated" {
			t.Fatal("clone shares argv")
		}
	}
	c.Edges[0].Buffered = true
	if g.Edges[0].Buffered {
		t.Fatal("clone shares edges")
	}
}

func TestChainStopsAtFanout(t *testing.T) {
	g := mustGraph(t, Binding{StdinFile: "/in"}, []string{"tr", "a", "b"}, []string{"sort"})
	chain := g.Chain(g.Sources()[0])
	if len(chain) != 4 { // src, tr, sort, sink
		t.Errorf("chain len = %d", len(chain))
	}
	if chain[len(chain)-1].Kind != KindSink {
		t.Errorf("chain end = %v", chain[len(chain)-1].Kind)
	}
}

func TestNodeLabels(t *testing.T) {
	cases := []struct {
		n    *Node
		want string
	}{
		{&Node{Kind: KindSource}, "stdin"},
		{&Node{Kind: KindSource, Path: "/f"}, "src:/f"},
		{&Node{Kind: KindSink}, "stdout"},
		{&Node{Kind: KindSink, Path: "/o"}, "sink:/o"},
		{&Node{Kind: KindSplit, Width: 3}, "split×3"},
		{&Node{Kind: KindCommand, Argv: []string{"tr", "a", "b"}}, "tr a b"},
	}
	for _, c := range cases {
		if got := c.n.Label(); got != c.want {
			t.Errorf("Label = %q, want %q", got, c.want)
		}
	}
}

func TestTopoSortDetectsCycle(t *testing.T) {
	g := New()
	a := g.AddNode(&Node{Kind: KindCommand, Argv: []string{"a"}})
	b := g.AddNode(&Node{Kind: KindCommand, Argv: []string{"b"}})
	g.Connect(a, b)
	g.Connect(b, a)
	if _, err := g.TopoSort(); err == nil {
		t.Error("cycle not detected")
	}
}
