package exec

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"
	"time"

	"jash/internal/dfg"
	"jash/internal/rewrite"
	"jash/internal/vfs"
	"jash/internal/workload"
)

// TestEarlyConsumerHangup: head closes its input early; upstream stages
// must end instead of blocking on a full pipe or reading on, sequential
// or split into lanes. A lane whose reader has gone ends the split, and
// the split's end ends the source: it reads a bounded prefix of /big, not
// the whole file.
func TestEarlyConsumerHangup(t *testing.T) {
	big := workload.Words(1, 8<<20)
	for _, tc := range []struct {
		name  string
		argvs [][]string
		width int
		want  string
	}{
		{"sequential", [][]string{{"tr", "A-Z", "a-z"}, {"head", "-n", "3"}}, 1,
			strings.ToLower(strings.Join(strings.SplitAfter(string(big), "\n")[:3], ""))},
		{"width 4", [][]string{{"tr", "a-z", "A-Z"}, {"grep", "E"}, {"head", "-n1"}}, 4, ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fs := vfs.New()
			fs.WriteFile("/big", big)
			g := pipelineGraph(t, dfg.Binding{StdinFile: "/big"}, tc.argvs...)
			if tc.width > 1 {
				var err error
				if g, err = rewrite.Parallelize(g, rewrite.Options{Width: tc.width}); err != nil {
					t.Fatal(err)
				}
			}
			done := make(chan struct{})
			var out bytes.Buffer
			var m RunMetrics
			go func() {
				defer close(done)
				Run(g, &Env{FS: fs, Dir: "/", Stdin: strings.NewReader(""),
					Stdout: &out, Stderr: &bytes.Buffer{}, Metrics: &m})
			}()
			select {
			case <-done:
			case <-time.After(30 * time.Second):
				t.Fatal("pipeline with early-exiting head deadlocked")
			}
			if tc.want != "" && out.String() != tc.want {
				t.Errorf("head emitted %q, want %q", out.String(), tc.want)
			}
			if n := strings.Count(out.String(), "\n"); tc.want == "" && n != 1 {
				t.Errorf("head emitted %d lines", n)
			}
			for _, nm := range m.Nodes {
				if nm.Kind == "source" && nm.BytesIn > int64(len(big))/8 {
					t.Errorf("the source read %d of /big's %d bytes after head had gone", nm.BytesIn, len(big))
				}
			}
		})
	}
}

// TestYesHeadTerminates: the classic infinite producer, and filters
// between it and head, which must stop reading once head has gone.
func TestYesHeadTerminates(t *testing.T) {
	for _, tc := range []struct {
		argvs [][]string
		want  string
	}{
		{[][]string{{"yes", "spam"}, {"head", "-n", "5"}}, strings.Repeat("spam\n", 5)},
		{[][]string{{"yes"}, {"grep", "y"}, {"head", "-n1"}}, "y\n"},
		{[][]string{{"yes"}, {"cut", "-c1"}, {"head", "-n1"}}, "y\n"},
		{[][]string{{"yes"}, {"awk", "{print}"}, {"head", "-n1"}}, "y\n"},
	} {
		g := dfg.New()
		prev := g.AddNode(&dfg.Node{Kind: dfg.KindSource})
		for _, argv := range tc.argvs {
			n := g.AddNode(&dfg.Node{Kind: dfg.KindCommand, Argv: argv})
			g.Connect(prev, n)
			prev = n
		}
		g.Connect(prev, g.AddNode(&dfg.Node{Kind: dfg.KindSink}))
		done := make(chan string, 1)
		go func() {
			var out bytes.Buffer
			Run(g, &Env{FS: vfs.New(), Dir: "/", Stdin: strings.NewReader(""),
				Stdout: &out, Stderr: &bytes.Buffer{}})
			done <- out.String()
		}()
		select {
		case out := <-done:
			if out != tc.want {
				t.Errorf("%v: out=%q, want %q", tc.argvs, out, tc.want)
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("%v never terminated", tc.argvs)
		}
	}
}

// TestFailingLaneDoesNotHang: grep lanes that match nothing exit 1; the
// merge and remaining lanes must still complete with correct output.
func TestFailingLaneDoesNotHang(t *testing.T) {
	fs := vfs.New()
	// Only the first chunk contains the needle, so later lanes' greps
	// find nothing and exit non-zero.
	data := "needle here\n" + strings.Repeat("hay\n", 5000)
	fs.WriteFile("/in", []byte(data))
	g := pipelineGraph(t, dfg.Binding{StdinFile: "/in"},
		[]string{"grep", "needle"},
	)
	par, err := rewrite.Parallelize(g, rewrite.Options{Width: 4})
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if _, err := Run(par, &Env{FS: fs, Dir: "/", Stdin: strings.NewReader(""),
		Stdout: &out, Stderr: &bytes.Buffer{}}); err != nil {
		t.Fatal(err)
	}
	if out.String() != "needle here\n" {
		t.Errorf("out=%q", out.String())
	}
}

// TestMissingSideInput: comm's dictionary vanishes; the run must surface
// an error and still terminate.
func TestMissingSideInput(t *testing.T) {
	fs := vfs.New()
	fs.WriteFile("/words", []byte("a\nb\n"))
	g := pipelineGraph(t, dfg.Binding{StdinFile: "/words"},
		[]string{"sort", "-u"},
		[]string{"comm", "-13", "/no-dict", "-"},
	)
	done := make(chan error, 1)
	go func() {
		_, err := Run(g, &Env{FS: fs, Dir: "/", Stdin: strings.NewReader(""),
			Stdout: &bytes.Buffer{}, Stderr: &bytes.Buffer{}})
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Error("missing side input should surface an error")
		}
	case <-time.After(30 * time.Second):
		t.Fatal("missing side input deadlocked")
	}
}

// TestWideParallelStress runs a 16-lane plan over a larger corpus to
// shake out pipe-wiring races (run with -race in CI).
func TestWideParallelStress(t *testing.T) {
	fs := vfs.New()
	fs.WriteFile("/in", workload.Words(5, 200_000))
	g := pipelineGraph(t, dfg.Binding{StdinFile: "/in"},
		[]string{"tr", "A-Z", "a-z"},
		[]string{"tr", "-cs", "A-Za-z", `\n`},
		[]string{"sort"},
	)
	want, _ := runGraph(t, g, fs, "")
	for i := 0; i < 5; i++ {
		par, err := rewrite.Parallelize(g, rewrite.Options{Width: 16})
		if err != nil {
			t.Fatal(err)
		}
		got, st := runGraph(t, par, fs, "")
		if st != 0 || got != want {
			t.Fatalf("iteration %d: st=%d, outputs equal=%v", i, st, got == want)
		}
	}
}

// TestEmptyInputAllWidths: zero-byte inputs through every plan shape.
func TestEmptyInputAllWidths(t *testing.T) {
	fs := vfs.New()
	fs.WriteFile("/empty", nil)
	g := pipelineGraph(t, dfg.Binding{StdinFile: "/empty"},
		[]string{"tr", "a", "b"},
		[]string{"sort"},
	)
	want, _ := runGraph(t, g, fs, "")
	for _, w := range []int{2, 4, 8} {
		par, err := rewrite.Parallelize(g, rewrite.Options{Width: w})
		if err != nil {
			t.Fatal(err)
		}
		got, _ := runGraph(t, par, fs, "")
		if got != want {
			t.Errorf("width %d: %q vs %q", w, got, want)
		}
	}
}

// midStreamErrReader hands out its data and then fails, as a disk or a
// network read does partway through a file.
type midStreamErrReader struct{ data []byte }

var errMidStream = errors.New("read error mid-file")

func (r *midStreamErrReader) Read(p []byte) (int, error) {
	if len(r.data) == 0 {
		return 0, errMidStream
	}
	n := copy(p, r.data)
	r.data = r.data[n:]
	return n, nil
}

// TestSourceReadErrorFailsThePlan: a source whose reader fails partway
// through must fail the plan with that error — never exit 0 with the short
// output the reads before it produced. A consumer that stops reading early
// is the other way a source's copy ends, and that stays a success.
func TestSourceReadErrorFailsThePlan(t *testing.T) {
	g := pipelineGraph(t, dfg.Binding{}, []string{"wc", "-l"})
	var out bytes.Buffer
	for _, stdin := range []io.Reader{
		&midStreamErrReader{data: []byte("a\nb\n")},
		// A reader with its own copy loop (WriteTo) fails the same way.
		io.MultiReader(strings.NewReader("a\nb\n"), &midStreamErrReader{}),
	} {
		out.Reset()
		st, err := Run(g, &Env{FS: vfs.New(), Dir: "/", Stdin: stdin,
			Stdout: &out, Stderr: &bytes.Buffer{}})
		if !errors.Is(err, errMidStream) || st == 0 {
			t.Errorf("%T: status %d err %v stdout %q: want a non-zero status and the read error", stdin, st, err, out.String())
		}
	}

	g = pipelineGraph(t, dfg.Binding{}, []string{"head", "-n", "1"})
	out.Reset()
	st, err := Run(g, &Env{FS: vfs.New(), Dir: "/",
		Stdin:  bytes.NewReader(workload.Words(1, 1<<20)),
		Stdout: &out, Stderr: &bytes.Buffer{}})
	if st != 0 || err != nil || strings.Count(out.String(), "\n") != 1 {
		t.Errorf("early-closing consumer: status %d err %v stdout %q", st, err, out.String())
	}
}
