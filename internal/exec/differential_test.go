package exec_test

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"jash/internal/dfg"
	"jash/internal/exec"
	"jash/internal/interp"
	"jash/internal/pipe"
	"jash/internal/rewrite"
	"jash/internal/spec"
	"jash/internal/syntax"
	"jash/internal/vfs"
	"jash/internal/workload"
)

// The differential tests drive the interpreter, whose pipelines run on this
// package, so they live in a package of their own.

var lib = spec.Builtin()

// diffStage pairs an argv with its shell-script rendering.
type diffStage struct {
	argv   []string
	script string
}

// stagePool is the set of stages the differential fuzzer composes. Every
// stage reads stdin and is covered by the spec library.
var stagePool = []diffStage{
	{[]string{"tr", "a-z", "A-Z"}, "tr a-z A-Z"},
	{[]string{"tr", "-d", "aeiou"}, "tr -d aeiou"},
	{[]string{"tr", "-s", " "}, "tr -s ' '"},
	{[]string{"grep", "-v", "the"}, "grep -v the"},
	{[]string{"grep", "a"}, "grep a"},
	{[]string{"cut", "-c", "1-20"}, "cut -c 1-20"},
	{[]string{"cut", "-d", " ", "-f", "1"}, "cut -d ' ' -f 1"},
	{[]string{"sed", "s/a/X/"}, "sed s/a/X/"},
	{[]string{"sed", "s/e//g"}, "sed s/e//g"},
	{[]string{"awk", "{print $1}"}, "awk '{print $1}'"},
	{[]string{"rev"}, "rev"},
	{[]string{"sort"}, "sort"},
	{[]string{"sort", "-r"}, "sort -r"},
	{[]string{"sort", "-u"}, "sort -u"},
	{[]string{"uniq"}, "uniq"},
	{[]string{"uniq", "-c"}, "uniq -c"},
	{[]string{"wc", "-l"}, "wc -l"},
	{[]string{"head", "-n", "7"}, "head -n 7"},
	{[]string{"tail", "-n", "5"}, "tail -n 5"},
	{[]string{"fold", "-w", "13"}, "fold -w 13"},
}

// TestDifferentialRandomPipelines is the Smoosh-style oracle test: for
// randomly composed pipelines, the AST interpreter, the sequential
// dataflow executor, and every parallelized plan must produce identical
// bytes. This cross-checks four subsystems (interp, dfg translation,
// rewrite, exec) against each other.
func TestDifferentialRandomPipelines(t *testing.T) {
	rng := workload.NewRNG(2026)
	input := workload.Words(9, 20_000)
	fs := vfs.New()
	fs.WriteFile("/in", []byte(input))

	const trials = 80
	tested, parallelTested := 0, 0
	for trial := 0; trial < trials; trial++ {
		n := 1 + rng.Intn(4)
		stages := make([]diffStage, n)
		for i := range stages {
			stages[i] = stagePool[rng.Intn(len(stagePool))]
		}
		var argvs [][]string
		var scriptParts []string
		for _, s := range stages {
			argvs = append(argvs, s.argv)
			scriptParts = append(scriptParts, s.script)
		}
		script := "cat /in | " + strings.Join(scriptParts, " | ") + "\n"

		// Oracle 1: the AST interpreter.
		in := interp.New(fs)
		var interpOut bytes.Buffer
		in.Stdout = &interpOut
		in.Stderr = &bytes.Buffer{}
		if _, err := in.RunScript(script); err != nil {
			t.Fatalf("trial %d: interp error for %q: %v", trial, script, err)
		}

		// Oracle 2: the sequential dataflow plan.
		g, err := dfg.FromPipeline(argvs, lib, dfg.Binding{StdinFile: "/in"})
		if err != nil {
			t.Fatalf("trial %d: translate %q: %v", trial, script, err)
		}
		var seqOut bytes.Buffer
		if _, err := exec.Run(g, &exec.Env{FS: fs, Dir: "/", Stdin: strings.NewReader(""),
			Stdout: &seqOut, Stderr: &bytes.Buffer{}}); err != nil {
			t.Fatalf("trial %d: exec %q: %v", trial, script, err)
		}
		if interpOut.String() != seqOut.String() {
			t.Fatalf("trial %d: interp vs dataflow diverge for %q\ninterp: %.200q\n  exec: %.200q",
				trial, script, interpOut.String(), seqOut.String())
		}
		tested++

		// Every achievable parallel width must agree too.
		for _, width := range []int{2, 3, 5} {
			par, err := rewrite.Parallelize(g, rewrite.Options{Width: width, Buffered: width == 3})
			if err != nil {
				continue // no splittable segment: fine
			}
			var parOut bytes.Buffer
			if _, err := exec.Run(par, &exec.Env{FS: fs, Dir: "/", Stdin: strings.NewReader(""),
				Stdout: &parOut, Stderr: &bytes.Buffer{}}); err != nil {
				t.Fatalf("trial %d width %d: exec: %v", trial, width, err)
			}
			if parOut.String() != seqOut.String() {
				t.Fatalf("trial %d: width-%d plan diverges for %q\n  seq: %.200q\n  par: %.200q",
					trial, width, script, seqOut.String(), parOut.String())
			}
			parallelTested++
		}
	}
	if tested != trials {
		t.Fatalf("tested %d/%d", tested, trials)
	}
	if parallelTested < trials {
		t.Errorf("only %d parallel plans exercised; pool too blocking-heavy?", parallelTested)
	}
	t.Logf("differential: %d pipelines, %d parallel plans, all agree", tested, parallelTested)
}

// TestDifferentialLargeInputs runs a representative pipeline set over a
// multi-megabyte corpus — many times the bounded-pipe capacity — and
// checks the interpreter, the sequential plan, and wide parallel plans
// produce identical bytes. This is the fuzzer's scale check: the
// streaming splitter, the order-aware merges, and the round-robin sum
// path all cross chunk boundaries thousands of times here.
func TestDifferentialLargeInputs(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-MB corpus")
	}
	input := workload.Words(11, 4<<20) // 64× the pipe capacity
	fs := vfs.New()
	fs.WriteFile("/in", []byte(input))

	cases := []struct {
		script string
		argvs  [][]string
	}{
		// Stateless chain, concat merge.
		{"cat /in | tr a-z A-Z | grep E", [][]string{{"tr", "a-z", "A-Z"}, {"grep", "E"}}},
		// Order-aware merge-sort aggregation.
		{"cat /in | sort", [][]string{{"sort"}}},
		{"cat /in | tr a-z A-Z | sort -r", [][]string{{"tr", "a-z", "A-Z"}, {"sort", "-r"}}},
		// Round-robin split with a sum aggregator.
		{"cat /in | wc -l", [][]string{{"wc", "-l"}}},
		{"cat /in | grep -v the | wc -l", [][]string{{"grep", "-v", "the"}, {"wc", "-l"}}},
		// Blocking tail after a parallel segment.
		{"cat /in | sort | head -n 20", [][]string{{"sort"}, {"head", "-n", "20"}}},
	}
	for _, tc := range cases {
		in := interp.New(fs)
		var interpOut bytes.Buffer
		in.Stdout = &interpOut
		in.Stderr = &bytes.Buffer{}
		if _, err := in.RunScript(tc.script + "\n"); err != nil {
			t.Fatalf("interp %q: %v", tc.script, err)
		}
		g, err := dfg.FromPipeline(tc.argvs, lib, dfg.Binding{StdinFile: "/in"})
		if err != nil {
			t.Fatalf("translate %q: %v", tc.script, err)
		}
		var seqOut bytes.Buffer
		if _, err := exec.Run(g, &exec.Env{FS: fs, Dir: "/", Stdin: strings.NewReader(""),
			Stdout: &seqOut, Stderr: &bytes.Buffer{}}); err != nil {
			t.Fatalf("exec %q: %v", tc.script, err)
		}
		if interpOut.String() != seqOut.String() {
			t.Fatalf("%q: interp vs dataflow diverge (%d vs %d bytes)",
				tc.script, interpOut.Len(), seqOut.Len())
		}
		for _, width := range []int{2, 4, 8} {
			par, err := rewrite.Parallelize(g, rewrite.Options{Width: width})
			if err != nil {
				continue
			}
			var parOut bytes.Buffer
			if _, err := exec.Run(par, &exec.Env{FS: fs, Dir: "/", Stdin: strings.NewReader(""),
				Stdout: &parOut, Stderr: &bytes.Buffer{}}); err != nil {
				t.Fatalf("%q width %d: %v", tc.script, width, err)
			}
			if parOut.String() != seqOut.String() {
				t.Fatalf("%q: width-%d plan diverges (%d vs %d bytes)",
					tc.script, width, seqOut.Len(), parOut.Len())
			}
		}
	}
}

// TestDifferentialMultiRegion: a pipeline with several splittable runs, or
// with a blocking, side-input or writing stage between them, is fanned out
// run by run. Every plan, at every width from 2 to 8, buffered and
// streaming, must print the sequential graph's bytes and exit with its
// status, on inputs at the edges of line splitting.
func TestDifferentialMultiRegion(t *testing.T) {
	shapes := []string{
		"cat /in | tr A-Z a-z | sort | uniq -c | sort -rn | tr a-z A-Z | grep -v zz",
		"cat /in | head -n 100000 | tr a-z A-Z | grep -v zz | wc -l",
		"cat /in | tr A-Z a-z | grep shell - /x | wc -l",
		"cat /in | sort | tac | sort -r | cut -c 1-3",
		"cat /in | sort | tr a-z A-Z | grep -v zz | wc -l",
	}
	inputs := map[string][]byte{
		"empty":        nil,
		"unterminated": []byte("Alpha shell\nbeta zz\ngamma Shell"),
		"single-line":  []byte("one Shell line\n"),
		"long-line":    []byte("first\n" + strings.Repeat("ab shell zz ", pipe.BlockSize/8) + "\nlast shell\n"),
		"words":        workload.Words(5, 200<<10),
	}
	for _, src := range shapes {
		script, err := syntax.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		g, err := dfg.FromStmt(script.Stmts[0], lib, nil, true)
		if err != nil {
			t.Fatalf("%q: %v", src, err)
		}
		for name, input := range inputs {
			fs := vfs.New()
			fs.WriteFile("/in", input)
			fs.WriteFile("/x", []byte("shell side\nno\n"))
			run := func(p *dfg.Graph) (string, int) {
				var out bytes.Buffer
				st, err := exec.Run(p, &exec.Env{FS: fs, Dir: "/", Stdin: strings.NewReader(""),
					Stdout: &out, Stderr: &bytes.Buffer{}})
				if err != nil {
					t.Fatalf("%q on %s: %v", src, name, err)
				}
				return out.String(), st
			}
			want, wantSt := run(rewrite.Sequential(g))
			if name == "words" && len(want) < 3 {
				t.Fatalf("%q prints %q on words: too little to tell plans apart", src, want)
			}
			for width := 2; width <= 8; width++ {
				for _, buffered := range []bool{false, true} {
					plan, err := rewrite.Parallelize(g, rewrite.Options{Width: width, Buffered: buffered})
					if err != nil {
						t.Fatalf("%q width %d: %v", src, width, err)
					}
					if got, st := run(plan); got != want || st != wantSt {
						t.Fatalf("%q on %s, width %d buffered %v: status %d, %.200q; sequential status %d, %.200q",
							src, name, width, buffered, st, got, wantSt, want)
					}
				}
			}
		}
	}
}

// TestDifferentialSeededVariants re-runs a smaller sweep with different
// corpus shapes (numeric, duplicate-heavy, empty lines).
func TestDifferentialSeededVariants(t *testing.T) {
	corpora := map[string]string{
		"numeric":    genNumeric(),
		"duplicates": strings.Repeat("alpha\nbeta\nalpha\n\ngamma\n", 200),
		"longlines":  strings.Repeat(strings.Repeat("xy z", 500)+"\n", 20),
	}
	for name, corpus := range corpora {
		fs := vfs.New()
		fs.WriteFile("/in", []byte(corpus))
		rng := workload.NewRNG(7)
		for trial := 0; trial < 20; trial++ {
			n := 1 + rng.Intn(3)
			var argvs [][]string
			var parts []string
			for i := 0; i < n; i++ {
				s := stagePool[rng.Intn(len(stagePool))]
				argvs = append(argvs, s.argv)
				parts = append(parts, s.script)
			}
			script := "cat /in | " + strings.Join(parts, " | ") + "\n"
			in := interp.New(fs)
			var interpOut bytes.Buffer
			in.Stdout = &interpOut
			in.Stderr = &bytes.Buffer{}
			if _, err := in.RunScript(script); err != nil {
				t.Fatalf("%s trial %d: %v", name, trial, err)
			}
			g, err := dfg.FromPipeline(argvs, lib, dfg.Binding{StdinFile: "/in"})
			if err != nil {
				t.Fatal(err)
			}
			var execOut bytes.Buffer
			if _, err := exec.Run(g, &exec.Env{FS: fs, Dir: "/", Stdin: strings.NewReader(""),
				Stdout: &execOut, Stderr: &bytes.Buffer{}}); err != nil {
				t.Fatal(err)
			}
			if interpOut.String() != execOut.String() {
				t.Fatalf("%s trial %d: diverge for %q", name, trial, script)
			}
		}
	}
}

func genNumeric() string {
	rng := workload.NewRNG(3)
	var b strings.Builder
	for i := 0; i < 1000; i++ {
		fmt.Fprintf(&b, "%d %d\n", rng.Intn(100), rng.Intn(1000))
	}
	return b.String()
}

// TestDifferentialMaxLineBoundary holds the interpreter and the dataflow
// plans to identical behavior at the 16 MiB line limit the coreutils
// enforce: a line at the limit passes through both paths byte-identically
// (through the pooled line buffers), and a line just above it fails both
// paths with a clean diagnostic — never truncated or partial output.
func TestDifferentialMaxLineBoundary(t *testing.T) {
	if testing.Short() {
		t.Skip("16 MiB lines")
	}
	const maxLine = 16 << 20 // mirrors internal/coreutils
	for _, tc := range []struct {
		name    string
		n       int
		wantErr bool
	}{
		{"below", maxLine - 1, false},
		{"at", maxLine, false},
		{"above", maxLine + 1, true},
	} {
		line := strings.Repeat("a", tc.n)
		corpus := "start a line\n" + line + "\nlast a line\n"
		fs := vfs.New()
		fs.WriteFile("/in", []byte(corpus))
		script := "cat /in | grep a\n"
		argvs := [][]string{{"grep", "a"}}

		in := interp.New(fs)
		var interpOut, interpErr bytes.Buffer
		in.Stdout = &interpOut
		in.Stderr = &interpErr
		interpSt, err := in.RunScript(script)
		if err != nil {
			t.Fatalf("%s: interp: %v", tc.name, err)
		}

		g, gerr := dfg.FromPipeline(argvs, lib, dfg.Binding{StdinFile: "/in"})
		if gerr != nil {
			t.Fatalf("%s: translate: %v", tc.name, gerr)
		}
		var seqOut, seqErr bytes.Buffer
		seqSt, rerr := exec.Run(g, &exec.Env{FS: fs, Dir: "/", Stdin: strings.NewReader(""),
			Stdout: &seqOut, Stderr: &seqErr})
		if rerr != nil {
			t.Fatalf("%s: exec: %v", tc.name, rerr)
		}

		if interpOut.String() != seqOut.String() {
			t.Fatalf("%s: stdout diverges (%d vs %d bytes)", tc.name, interpOut.Len(), seqOut.Len())
		}
		if interpSt != seqSt {
			t.Fatalf("%s: status diverges: interp=%d exec=%d", tc.name, interpSt, seqSt)
		}
		if tc.wantErr {
			if interpSt == 0 {
				t.Fatalf("%s: over-limit line must fail, got status 0", tc.name)
			}
			for which, errs := range map[string]string{"interp": interpErr.String(), "exec": seqErr.String()} {
				if !strings.Contains(errs, "line too long") {
					t.Fatalf("%s: %s stderr %q lacks the line-too-long diagnostic", tc.name, which, errs)
				}
			}
			if interpOut.Len() != 0 && !strings.HasSuffix(interpOut.String(), "\n") {
				t.Fatalf("%s: truncated partial output escaped", tc.name)
			}
		} else {
			if interpSt != 0 {
				t.Fatalf("%s: status %d, stderr %q", tc.name, interpSt, interpErr.String())
			}
			if interpOut.String() != corpus {
				t.Fatalf("%s: grep dropped bytes (%d vs %d)", tc.name, interpOut.Len(), len(corpus))
			}
		}

		// The parallel plan must agree wherever one exists.
		par, perr := rewrite.Parallelize(g, rewrite.Options{Width: 2})
		if perr == nil {
			var parOut bytes.Buffer
			parSt, rerr := exec.Run(par, &exec.Env{FS: fs, Dir: "/", Stdin: strings.NewReader(""),
				Stdout: &parOut, Stderr: &bytes.Buffer{}})
			if rerr == nil {
				if parOut.String() != seqOut.String() {
					t.Fatalf("%s: parallel stdout diverges (%d vs %d bytes)",
						tc.name, parOut.Len(), seqOut.Len())
				}
				if parSt != seqSt {
					t.Fatalf("%s: parallel status %d vs %d", tc.name, parSt, seqSt)
				}
			} else if !tc.wantErr {
				t.Fatalf("%s: parallel run failed: %v", tc.name, rerr)
			}
		}
	}
}
