package exec

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"jash/internal/cost"
	"jash/internal/dfg"
	"jash/internal/pipe"
	"jash/internal/rewrite"
	"jash/internal/trace"
	"jash/internal/vfs"
	"jash/internal/workload"
)

// runWithMetrics executes g and returns the output plus per-node counters.
func runWithMetrics(t *testing.T, g *dfg.Graph, fs *vfs.FS) (string, *RunMetrics) {
	t.Helper()
	m := &RunMetrics{}
	var out bytes.Buffer
	st, err := Run(g, &Env{FS: fs, Dir: "/", Stdin: strings.NewReader(""),
		Stdout: &out, Stderr: &bytes.Buffer{}, Metrics: m})
	if err != nil || st != 0 {
		t.Fatalf("Run: status %d err %v", st, err)
	}
	return out.String(), m
}

// TestStreamingBoundedMemory is the executor's central property: a
// parallel plan over an input 100× the bounded-pipe capacity must hold at
// most a constant number of bytes in flight per node — the constant
// depending on the plan's width, never on the input size.
func TestStreamingBoundedMemory(t *testing.T) {
	const width = 4
	inputBytes := 100 * cost.PipeBufferBytes // 6.4 MiB
	// Every node's resident bytes are its outgoing bounded pipes; a
	// split node owns `width` of them.
	bound := int64(width * cost.PipeBufferBytes)

	peaksAt := func(size int) (string, *RunMetrics) {
		fs := vfs.New()
		fs.WriteFile("/big", workload.Words(13, size))
		g, err := dfg.FromPipeline([][]string{
			{"tr", "a-z", "A-Z"},
			{"sort"},
		}, lib, dfg.Binding{StdinFile: "/big"})
		if err != nil {
			t.Fatal(err)
		}
		par, err := rewrite.Parallelize(g, rewrite.Options{Width: width})
		if err != nil {
			t.Fatal(err)
		}
		out, m := runWithMetrics(t, par, fs)
		if len(m.Nodes) == 0 {
			t.Fatal("no per-node metrics recorded")
		}
		for _, nm := range m.Nodes {
			if nm.PeakBufferedBytes > bound {
				t.Errorf("size %d: node %d (%s) peak buffered %d exceeds bound %d",
					size, nm.ID, nm.Label, nm.PeakBufferedBytes, bound)
			}
		}
		return out, m
	}

	smallOut, _ := peaksAt(inputBytes / 100)
	bigOut, big := peaksAt(inputBytes)

	// The bound held at 100× the pipe capacity; it is a plan constant,
	// not a function of input size.
	if peak := big.MaxPeakBuffered(); peak > bound {
		t.Fatalf("large input: max peak buffered %d exceeds %d", peak, bound)
	}
	if big.TotalBytesMoved() < int64(inputBytes) {
		t.Errorf("large input: only %d bytes moved for a %d-byte input",
			big.TotalBytesMoved(), inputBytes)
	}
	// Sanity: both runs produced sorted non-empty output.
	for _, out := range []string{smallOut, bigOut} {
		if len(out) == 0 {
			t.Fatal("empty output")
		}
	}

	// Cross-check against the sequential plan at full scale.
	fs := vfs.New()
	fs.WriteFile("/big", workload.Words(13, inputBytes))
	g, err := dfg.FromPipeline([][]string{
		{"tr", "a-z", "A-Z"},
		{"sort"},
	}, lib, dfg.Binding{StdinFile: "/big"})
	if err != nil {
		t.Fatal(err)
	}
	seqOut, _ := runWithMetrics(t, g, fs)
	if seqOut != bigOut {
		t.Fatalf("parallel output diverges from sequential (%d vs %d bytes)",
			len(bigOut), len(seqOut))
	}
}

// TestMetricsAccounting checks the counters a linear plan reports: every
// interior node sees the same bytes in and out for a copy stage, and the
// sink's BytesOut equals the actual output size.
func TestMetricsAccounting(t *testing.T) {
	fs := vfs.New()
	input := "delta\nalpha\ncharlie\nbravo\n"
	fs.WriteFile("/in", []byte(input))
	g, err := dfg.FromPipeline([][]string{{"cat"}, {"sort"}}, lib,
		dfg.Binding{StdinFile: "/in"})
	if err != nil {
		t.Fatal(err)
	}
	out, m := runWithMetrics(t, g, fs)
	if out != "alpha\nbravo\ncharlie\ndelta\n" {
		t.Fatalf("out=%q", out)
	}
	if len(m.Nodes) == 0 {
		t.Fatal("no metrics")
	}
	var sink *NodeMetrics
	for i := range m.Nodes {
		nm := &m.Nodes[i]
		if nm.Kind == "source" && nm.BytesIn != int64(len(input)) {
			t.Errorf("source read %d bytes, want %d", nm.BytesIn, len(input))
		}
		if nm.Kind == "sink" {
			sink = nm
		}
	}
	if sink == nil {
		t.Fatal("no sink metrics")
	}
	if sink.BytesOut != int64(len(out)) {
		t.Errorf("sink wrote %d bytes, want %d", sink.BytesOut, len(out))
	}
	if got := m.TotalBytesMoved(); got < int64(len(input)) {
		t.Errorf("TotalBytesMoved=%d, want >= %d", got, len(input))
	}
}

// TestNodeSpansCarryTheNodeMetrics: a traced width-4 run reports each node
// twice, as a NodeMetrics and as a node:* span; every attribute of the span
// must be the corresponding field of the metrics, blocked time included.
func TestNodeSpansCarryTheNodeMetrics(t *testing.T) {
	fs := vfs.New()
	fs.WriteFile("/big", workload.Words(13, 4*cost.PipeBufferBytes))
	g, err := dfg.FromPipeline([][]string{{"tr", "a-z", "A-Z"}, {"sort"}}, lib,
		dfg.Binding{StdinFile: "/big"})
	if err != nil {
		t.Fatal(err)
	}
	par, err := rewrite.Parallelize(g, rewrite.Options{Width: 4})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	tr := trace.New(trace.Options{Writer: &buf})
	root := tr.Start(nil, "execute")
	m := &RunMetrics{}
	if st, err := Run(par, &Env{FS: fs, Dir: "/", Stdout: &bytes.Buffer{}, Stderr: &bytes.Buffer{},
		Metrics: m, Span: root}); err != nil || st != 0 {
		t.Fatalf("Run: status %d err %v", st, err)
	}
	root.End()
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	d, err := trace.Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	spans := map[float64]trace.SpanRecord{}
	for _, sp := range d.Spans {
		if strings.HasPrefix(sp.Name, "node:") {
			spans[sp.Attrs["node_id"].(float64)] = sp
		}
	}
	if len(m.Nodes) != len(par.Nodes) || len(spans) != len(m.Nodes) {
		t.Fatalf("%d plan nodes, %d metrics, %d node spans", len(par.Nodes), len(m.Nodes), len(spans))
	}
	var blocked int64
	for _, nm := range m.Nodes {
		sp := spans[float64(nm.ID)]
		want := map[string]any{
			"kind": nm.Kind, "node_id": float64(nm.ID),
			"bytes_in": float64(nm.BytesIn), "bytes_out": float64(nm.BytesOut),
			"peak_buffered_bytes": float64(nm.PeakBufferedBytes),
			"blocked_read_us":     float64(nm.BlockedRead.Microseconds()),
			"blocked_write_us":    float64(nm.BlockedWrite.Microseconds()),
		}
		if sp.Name != "node:"+nm.Label || fmt.Sprint(sp.Attrs) != fmt.Sprint(want) {
			t.Errorf("node %d (%s): span %q says %v, metrics say %v", nm.ID, nm.Label, sp.Name, sp.Attrs, want)
		}
		blocked += nm.BlockedRead.Microseconds() + nm.BlockedWrite.Microseconds()
	}
	if blocked == 0 {
		t.Error("a traced run clocked no blocked time on any pipe")
	}
}

// TestSplitDisciplines pins the two split modes' observable behavior:
// consecutive preserves global line order across lanes (concat of lane
// outputs == input), round-robin feeds every lane.
func TestSplitDisciplines(t *testing.T) {
	var input strings.Builder
	for i := 0; i < 5000; i++ {
		fmt.Fprintf(&input, "line-%04d\n", i)
	}
	fs := vfs.New()
	fs.WriteFile("/in", []byte(input.String()))

	// Consecutive: a width-4 stateless plan must reproduce input order.
	g, err := dfg.FromPipeline([][]string{{"tr", "-d", "x"}}, lib, dfg.Binding{StdinFile: "/in"})
	if err != nil {
		t.Fatal(err)
	}
	par, err := rewrite.Parallelize(g, rewrite.Options{Width: 4})
	if err != nil {
		t.Fatal(err)
	}
	out, m := runWithMetrics(t, par, fs)
	if out != input.String() {
		t.Fatalf("consecutive split broke order (%d vs %d bytes)", len(out), input.Len())
	}
	// Round-robin: the wc -l plan must use it and still count every line.
	g2, err := dfg.FromPipeline([][]string{{"wc", "-l"}}, lib, dfg.Binding{StdinFile: "/in"})
	if err != nil {
		t.Fatal(err)
	}
	par2, err := rewrite.Parallelize(g2, rewrite.Options{Width: 4})
	if err != nil {
		t.Fatal(err)
	}
	foundRR := false
	for _, n := range par2.Nodes {
		if n.Kind == dfg.KindSplit && n.Dist == dfg.DistRoundRobin {
			foundRR = true
		}
	}
	if !foundRR {
		t.Fatal("wc -l plan did not choose a round-robin split")
	}
	out2, m2 := runWithMetrics(t, par2, fs)
	if strings.TrimSpace(out2) != "5000" {
		t.Fatalf("round-robin wc -l = %q, want 5000", out2)
	}
	// Round-robin lanes must all have carried data.
	for _, nm := range m2.Nodes {
		if nm.Kind == "command" && nm.BytesIn == 0 {
			t.Errorf("lane %d (%s) starved under round-robin", nm.ID, nm.Label)
		}
	}
	_ = m
}

// TestPoolScribbleLeavesFilesIntact: the blocks a plan's pipes recycle
// are never a file's. After `cat f | tr a-z A-Z >g`, scribbling over
// recycled pool blocks must leave both files byte-identical.
func TestPoolScribbleLeavesFilesIntact(t *testing.T) {
	fs := vfs.New()
	fs.WriteFile("/f", workload.Words(17, 5*pipe.BlockSize+123))
	g := pipelineGraph(t, dfg.Binding{StdoutFile: "/g"},
		[]string{"cat", "/f"},
		[]string{"tr", "a-z", "A-Z"},
	)
	par, err := rewrite.Parallelize(g, rewrite.Options{Width: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, plan := range []*dfg.Graph{g, par} {
		if _, st := runGraph(t, plan, fs, ""); st != 0 {
			t.Fatalf("status %d", st)
		}
		f, _ := fs.ReadFile("/f")
		out, _ := fs.ReadFile("/g")
		if !bytes.Equal(out, bytes.ToUpper(f)) {
			t.Fatal("plan output differs from the reference")
		}
		blocks := make([][]byte, 64)
		for i := range blocks {
			blocks[i] = pipe.GetBlock()[:pipe.BlockSize]
			for j := range blocks[i] {
				blocks[i][j] = 0xFF
			}
		}
		for _, b := range blocks {
			pipe.PutBlock(b)
		}
		if f2, _ := fs.ReadFile("/f"); !bytes.Equal(f2, f) {
			t.Error("/f changed when pool blocks were scribbled on")
		}
		if out2, _ := fs.ReadFile("/g"); !bytes.Equal(out2, out) {
			t.Error("/g changed when pool blocks were scribbled on")
		}
	}
}
