package exec

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"jash/internal/dfg"
	"jash/internal/rewrite"
	"jash/internal/spec"
	"jash/internal/vfs"
)

var lib = spec.Builtin()

func runGraph(t *testing.T, g *dfg.Graph, fs *vfs.FS, stdin string) (string, int) {
	t.Helper()
	var out bytes.Buffer
	st, err := Run(g, &Env{
		FS:     fs,
		Dir:    "/",
		Stdin:  strings.NewReader(stdin),
		Stdout: &out,
		Stderr: &out,
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return out.String(), st
}

func pipelineGraph(t *testing.T, b dfg.Binding, argvs ...[]string) *dfg.Graph {
	t.Helper()
	g, err := dfg.FromPipeline(argvs, lib, b)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestRunLinearPipeline(t *testing.T) {
	fs := vfs.New()
	fs.WriteFile("/in", []byte("Charlie\nalice\nBOB\n"))
	g := pipelineGraph(t, dfg.Binding{StdinFile: "/in"},
		[]string{"tr", "A-Z", "a-z"},
		[]string{"sort"},
	)
	out, st := runGraph(t, g, fs, "")
	if st != 0 || out != "alice\nbob\ncharlie\n" {
		t.Errorf("out=%q st=%d", out, st)
	}
}

func TestRunSinkToFile(t *testing.T) {
	fs := vfs.New()
	fs.WriteFile("/in", []byte("b\na\n"))
	g := pipelineGraph(t, dfg.Binding{StdinFile: "/in", StdoutFile: "/out"},
		[]string{"sort"},
	)
	_, st := runGraph(t, g, fs, "")
	if st != 0 {
		t.Fatalf("st=%d", st)
	}
	data, _ := fs.ReadFile("/out")
	if string(data) != "a\nb\n" {
		t.Errorf("file=%q", data)
	}
}

func TestRunMultiSourceCat(t *testing.T) {
	fs := vfs.New()
	fs.WriteFile("/f1", []byte("one\n"))
	fs.WriteFile("/f2", []byte("two\n"))
	g := pipelineGraph(t, dfg.Binding{},
		[]string{"cat", "/f1", "/f2"},
		[]string{"tr", "a-z", "A-Z"},
	)
	out, st := runGraph(t, g, fs, "")
	if st != 0 || out != "ONE\nTWO\n" {
		t.Errorf("out=%q st=%d", out, st)
	}
}

func TestRunCommPorts(t *testing.T) {
	fs := vfs.New()
	fs.WriteFile("/dict", []byte("apple\nbanana\n"))
	fs.WriteFile("/words", []byte("Apple\nbanananana\n"))
	g := pipelineGraph(t, dfg.Binding{StdinFile: "/words"},
		[]string{"tr", "A-Z", "a-z"},
		[]string{"sort", "-u"},
		[]string{"comm", "-13", "/dict", "-"},
	)
	out, st := runGraph(t, g, fs, "")
	if st != 0 || out != "banananana\n" {
		t.Errorf("out=%q st=%d", out, st)
	}
}

func TestRunStdinSource(t *testing.T) {
	g := pipelineGraph(t, dfg.Binding{}, []string{"wc", "-l"})
	out, st := runGraph(t, g, vfs.New(), "a\nb\nc\n")
	if st != 0 || strings.TrimSpace(out) != "3" {
		t.Errorf("out=%q st=%d", out, st)
	}
}

func TestSplitLinesInvariants(t *testing.T) {
	data := []byte("l1\nl2\nl3\nl4\nl5\n")
	for n := 1; n <= 6; n++ {
		chunks := splitLines(data, n)
		if len(chunks) != n {
			t.Fatalf("n=%d: %d chunks", n, len(chunks))
		}
		var whole []byte
		for _, c := range chunks {
			whole = append(whole, c...)
			if len(c) > 0 && c[len(c)-1] != '\n' && !bytes.Equal(c, chunks[len(chunks)-1]) {
				t.Errorf("n=%d: chunk tears a line: %q", n, c)
			}
		}
		if !bytes.Equal(whole, data) {
			t.Errorf("n=%d: concat != original", n)
		}
	}
}

func TestQuickSplitLinesLossless(t *testing.T) {
	f := func(lines []string, n uint8) bool {
		width := int(n%8) + 1
		var data []byte
		for _, l := range lines {
			l = strings.ReplaceAll(l, "\n", "")
			data = append(data, l...)
			data = append(data, '\n')
		}
		chunks := splitLines(data, width)
		var whole []byte
		for _, c := range chunks {
			whole = append(whole, c...)
		}
		return bytes.Equal(whole, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// wordsInput builds a deterministic multi-case word corpus.
func wordsInput(lines int) string {
	words := []string{"Apple", "banana", "CHERRY", "date", "apple", "Banana", "fig", "grape"}
	var b strings.Builder
	for i := 0; i < lines; i++ {
		b.WriteString(words[i%len(words)])
		b.WriteString(fmt.Sprintf(" extra%d", i%17))
		b.WriteByte('\n')
	}
	return b.String()
}

// TestParallelPlansOutputEquivalent is the semantic core of the
// reproduction: for the paper's pipelines, the PaSh/Jash rewritten graphs
// must produce byte-identical output to the sequential graph, at every
// width.
func TestParallelPlansOutputEquivalent(t *testing.T) {
	pipelines := [][][]string{
		{ // fig1: sort the words of a file
			{"cat"},
			{"tr", "A-Z", "a-z"},
			{"tr", "-cs", "A-Za-z", `\n`},
			{"sort"},
		},
		{ // stateless only
			{"tr", "A-Z", "a-z"},
			{"grep", "-v", "extra3"},
		},
		{ // parallelizable tail with flags
			{"cut", "-d", " ", "-f", "2"},
			{"sort", "-r"},
		},
		{ // wc with sum aggregation
			{"tr", "A-Z", "a-z"},
			{"wc", "-l"},
		},
		{ // grep -c with sum aggregation
			{"grep", "-c", "apple"},
		},
	}
	input := wordsInput(500)
	fs := vfs.New()
	fs.WriteFile("/in", []byte(input))
	for pi, argvs := range pipelines {
		seq := pipelineGraph(t, dfg.Binding{StdinFile: "/in"}, argvs...)
		want, wantSt := runGraph(t, seq, fs, "")
		for _, width := range []int{2, 3, 4, 8} {
			for _, buffered := range []bool{false, true} {
				par, err := rewrite.Parallelize(seq, rewrite.Options{Width: width, Buffered: buffered})
				if err != nil {
					t.Fatalf("pipeline %d width %d: %v", pi, width, err)
				}
				got, gotSt := runGraph(t, par, fs, "")
				if got != want {
					t.Errorf("pipeline %d width %d buffered=%v: output diverged\n got: %.120q\nwant: %.120q",
						pi, width, buffered, got, want)
				}
				if gotSt != wantSt {
					t.Errorf("pipeline %d width %d: status %d, want %d", pi, width, gotSt, wantSt)
				}
			}
		}
	}
}

func TestParallelSpellPipelineEquivalent(t *testing.T) {
	fs := vfs.New()
	fs.WriteFile("/dict", []byte("apple\nbanana\ncherry\n"))
	fs.WriteFile("/doc", []byte(wordsInput(300)))
	argvs := [][]string{
		{"cat", "/doc"},
		{"tr", "A-Z", "a-z"},
		{"tr", "-cs", "A-Za-z", `\n`},
		{"sort", "-u"},
		{"comm", "-13", "/dict", "-"},
	}
	seq := pipelineGraph(t, dfg.Binding{}, argvs...)
	want, _ := runGraph(t, seq, fs, "")
	if !strings.Contains(want, "extra") || strings.Contains(want, "apple\n") {
		t.Fatalf("unexpected sequential output: %.200q", want)
	}
	par, err := rewrite.Parallelize(seq, rewrite.Options{Width: 4})
	if err != nil {
		t.Fatal(err)
	}
	got, _ := runGraph(t, par, fs, "")
	if got != want {
		t.Errorf("parallel spell output diverged:\n got %.200q\nwant %.200q", got, want)
	}
}

func TestRunUnknownCommand(t *testing.T) {
	g := dfg.New()
	src := g.AddNode(&dfg.Node{Kind: dfg.KindSource})
	cmd := g.AddNode(&dfg.Node{Kind: dfg.KindCommand, Argv: []string{"no-such-cmd"}})
	sink := g.AddNode(&dfg.Node{Kind: dfg.KindSink})
	g.Connect(src, cmd)
	g.Connect(cmd, sink)
	_, st := runGraph(t, g, vfs.New(), "")
	if st != 127 {
		t.Errorf("status = %d, want 127", st)
	}
}

func TestRunMissingSourceFile(t *testing.T) {
	g := pipelineGraph(t, dfg.Binding{StdinFile: "/definitely-missing"}, []string{"sort"})
	var out bytes.Buffer
	_, err := Run(g, &Env{FS: vfs.New(), Dir: "/", Stdout: &out, Stderr: &out})
	if err == nil {
		t.Error("missing source should surface an error")
	}
}

// splitLines divides data into n consecutive chunks on line boundaries,
// sized as evenly as the lines allow. It is the reference specification of
// the consecutive chunking the streaming splitter performs incrementally.
func splitLines(data []byte, n int) [][]byte {
	chunks := make([][]byte, n)
	if len(data) == 0 {
		return chunks
	}
	target := (len(data) + n - 1) / n
	start := 0
	for i := 0; i < n-1; i++ {
		end := start + target
		if end >= len(data) {
			end = len(data)
		} else {
			// Extend to the next newline so no line is torn.
			nl := bytes.IndexByte(data[end:], '\n')
			if nl < 0 {
				end = len(data)
			} else {
				end += nl + 1
			}
		}
		chunks[i] = data[start:end]
		start = end
	}
	chunks[n-1] = data[start:]
	return chunks
}
