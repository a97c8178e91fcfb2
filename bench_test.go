// Component micro-benchmarks (parser, interpreter, executor, cost model,
// planner, coreutils, linter), sized so `go test -bench=. -benchmem`
// completes in minutes. The paper's figures are not here: they are the
// tests of internal/paperfig, and measured end-to-end performance is
// `go run ./bench`.
package jash

import (
	"bytes"
	"fmt"
	"io"
	"slices"
	"strings"
	"testing"

	"jash/internal/core"
	"jash/internal/cost"
	"jash/internal/dfg"
	"jash/internal/exec"
	"jash/internal/interp"
	"jash/internal/rewrite"
	"jash/internal/syntax"
	"jash/internal/vfs"
	"jash/internal/workload"
)

var benchScript = `DICT=/usr/dict
FILES="/doc1 /doc2"
if test -f $DICT; then
  cat $FILES | tr A-Z a-z | tr -cs A-Za-z '\n' | sort -u | comm -13 $DICT - >/misspelled
fi
for f in $FILES; do wc -l <$f >>counts; done
`

// BenchmarkParse measures the parser on a representative script.
func BenchmarkParse(b *testing.B) {
	b.SetBytes(int64(len(benchScript)))
	for i := 0; i < b.N; i++ {
		if _, err := syntax.Parse(benchScript); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkParsePrintRoundTrip measures parse + unparse (the libdash
// round trip the JIT performs per command).
func BenchmarkParsePrintRoundTrip(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s, err := syntax.Parse(benchScript)
		if err != nil {
			b.Fatal(err)
		}
		_ = syntax.Print(s)
	}
}

// BenchmarkInterpPipeline measures interpreting a 4-stage pipeline over
// 256 KiB through the evaluator and hermetic coreutils, and, over a
// two-line file, what running a 5-stage pipeline costs on its own: the
// subshells, the node runner and its pipes.
func BenchmarkInterpPipeline(b *testing.B) {
	b.Run("words=256KiB", func(b *testing.B) {
		data := workload.Words(1, 256<<10)
		fs := vfs.New()
		fs.WriteFile("/w", data)
		b.SetBytes(int64(len(data)))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sh := core.New(fs, cost.Laptop(), core.ModeBash)
			sh.Interp.Stdout = &bytes.Buffer{}
			if st, err := sh.Run("cat /w | tr A-Z a-z | sort | uniq -c >/dev/null\n"); err != nil || st != 0 {
				b.Fatalf("st=%d err=%v", st, err)
			}
		}
	})
	b.Run("tiny", func(b *testing.B) {
		fs := vfs.New()
		fs.WriteFile("/f", []byte("one\ntwo\n"))
		script, err := syntax.Parse("cat /f | cat | cat | cat | cat\n")
		if err != nil {
			b.Fatal(err)
		}
		in := interp.New(fs)
		var out bytes.Buffer
		in.Stdout = &out
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			out.Reset()
			if st, err := in.RunStmts(script.Stmts); err != nil || st != 0 || out.Len() != 8 {
				b.Fatalf("st=%d err=%v out=%q", st, err, out.String())
			}
		}
	})
}

// BenchmarkExecSequentialVsParallel compares the dataflow executor's real
// wall time for the fig1 plan at widths 1..8 on 1 MiB (in-process lanes
// parallelize across real cores), and measures the fixed cost of a
// width-1 plan over a two-line file.
func BenchmarkExecSequentialVsParallel(b *testing.B) {
	b.Run("tiny/width=1", func(b *testing.B) {
		fs := vfs.New()
		fs.WriteFile("/f", []byte("one\ntwo\n"))
		g, err := dfg.FromPipeline([][]string{{"cat"}, {"cat"}, {"cat"}, {"cat"}, {"cat"}},
			Specs(), dfg.Binding{StdinFile: "/f"})
		if err != nil {
			b.Fatal(err)
		}
		var out bytes.Buffer
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			out.Reset()
			st, err := exec.Run(g, &exec.Env{
				FS: fs, Dir: "/", Stdin: strings.NewReader(""),
				Stdout: &out, Stderr: io.Discard,
			})
			if err != nil || st != 0 || out.Len() != 8 {
				b.Fatalf("st=%d err=%v out=%q", st, err, out.String())
			}
		}
	})
	data := workload.Words(1, 1<<20)
	fs := vfs.New()
	fs.WriteFile("/w", data)
	g, err := dfg.FromPipeline([][]string{
		{"tr", "A-Z", "a-z"},
		{"tr", "-cs", "A-Za-z", `\n`},
		{"sort"},
	}, Specs(), dfg.Binding{StdinFile: "/w"})
	if err != nil {
		b.Fatal(err)
	}
	for _, width := range []int{1, 2, 4, 8} {
		plan := g
		if width > 1 {
			plan, err = rewrite.Parallelize(g, rewrite.Options{Width: width})
			if err != nil {
				b.Fatal(err)
			}
		}
		b.Run(fmt.Sprintf("width=%d", width), func(b *testing.B) {
			b.SetBytes(int64(len(data)))
			for i := 0; i < b.N; i++ {
				st, err := exec.Run(plan, &exec.Env{
					FS: fs, Dir: "/", Stdin: strings.NewReader(""),
					Stdout: &bytes.Buffer{}, Stderr: &bytes.Buffer{},
				})
				if err != nil || st != 0 {
					b.Fatalf("st=%d err=%v", st, err)
				}
			}
		})
	}
}

// BenchmarkCostEstimate measures one plan estimation — the inner loop of
// every JIT decision.
func BenchmarkCostEstimate(b *testing.B) {
	g, err := dfg.FromPipeline([][]string{
		{"tr", "A-Z", "a-z"}, {"sort"},
	}, Specs(), dfg.Binding{StdinFile: "/w"})
	if err != nil {
		b.Fatal(err)
	}
	prof := cost.StandardEC2()
	in := cost.Inputs{Size: func(string) int64 { return 3 << 30 }}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cost.EstimateGraph(g, in, prof, true); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkJashPlan measures the full width-search planning step.
func BenchmarkJashPlan(b *testing.B) {
	g, err := dfg.FromPipeline([][]string{
		{"cat"}, {"tr", "A-Z", "a-z"}, {"tr", "-cs", "A-Za-z", `\n`}, {"sort"},
	}, Specs(), dfg.Binding{StdinFile: "/w"})
	if err != nil {
		b.Fatal(err)
	}
	in := cost.Inputs{Size: func(string) int64 { return 3 << 30 }}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := rewrite.JashPlan(g, in, cost.StandardEC2()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCoreutilsSort measures the in-process sort on 1 MiB of words:
// whole lines, a numeric second-field key, -u, `sort -m` over four sorted
// lanes, and wordfreq's tail `sort | uniq -c`.
func BenchmarkCoreutilsSort(b *testing.B) {
	data := workload.Words(1, 1<<20)
	fs := vfs.New()
	fs.WriteFile("/w", data)
	lines := strings.SplitAfter(strings.TrimSuffix(string(data), "\n"), "\n")
	var numbered strings.Builder
	for i, l := range lines {
		fmt.Fprintf(&numbered, "%d %d %s", i, i*7919%100003, l)
	}
	fs.WriteFile("/n", []byte(numbered.String()))
	var lanes []string
	for i := 0; i < 4; i++ {
		lane := slices.Clone(lines[i*len(lines)/4 : (i+1)*len(lines)/4])
		slices.Sort(lane)
		name := fmt.Sprintf("/l%d", i)
		fs.WriteFile(name, []byte(strings.Join(lane, "")))
		lanes = append(lanes, name)
	}
	sh := core.New(fs, cost.Laptop(), core.ModeBash)
	for _, bc := range []struct{ name, script string }{
		{"whole-line", "sort /w >/dev/null\n"},
		{"n-k2", "sort -n -k2 /n >/dev/null\n"},
		{"u", "sort -u /w >/dev/null\n"},
		{"m-4lanes", "sort -m " + strings.Join(lanes, " ") + " >/dev/null\n"},
		{"uniq-c", "sort /w | uniq -c >/dev/null\n"},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.SetBytes(int64(len(data)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sh.Interp.Stdout = &bytes.Buffer{}
				if st, _ := sh.Run(bc.script); st != 0 {
					b.Fatal("sort failed")
				}
			}
		})
	}
}

// BenchmarkCoreutilsSed measures the streaming sed on 8 MiB of words: a
// literal substitution (list_write's), a group reference under g, a $
// address that holds every line until the next read, and y.
func BenchmarkCoreutilsSed(b *testing.B) {
	data := workload.Words(1, 8<<20)
	fs := vfs.New()
	fs.WriteFile("/w", data)
	sh := core.New(fs, cost.Laptop(), core.ModeBash)
	for _, bc := range []struct{ name, script string }{
		{"s", "sed s/the/THE/ /w >/dev/null\n"},
		{"s-group-g", "sed 's/\\(t\\)he/\\1HE/g' /w >/dev/null\n"},
		{"n-last-p", "sed -n '$p' /w >/dev/null\n"},
		{"y", "sed y/abc/xyz/ /w >/dev/null\n"},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.SetBytes(int64(len(data)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if st, _ := sh.Run(bc.script); st != 0 {
					b.Fatal("sed failed")
				}
			}
		})
	}
}

// BenchmarkCoreutilsGrep measures grep on 8 MiB of words: fixed strings
// that select every line (filter_chain's -v), a few lines, or only count
// them, and a regexp for the line-at-a-time path.
func BenchmarkCoreutilsGrep(b *testing.B) {
	data := workload.Words(1, 8<<20)
	fs := vfs.New()
	fs.WriteFile("/w", data)
	sh := core.New(fs, cost.Laptop(), core.ModeBash)
	for _, bc := range []struct{ name, script string }{
		{"v", "grep -v zzz /w >/dev/null\n"},
		{"n", "grep -n the /w >/dev/null\n"},
		{"c", "grep -c the /w >/dev/null\n"},
		{"regexp", "grep 'th.e' /w >/dev/null\n"},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.SetBytes(int64(len(data)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if st, _ := sh.Run(bc.script); st != 0 {
					b.Fatal("grep failed")
				}
			}
		})
	}
}

// BenchmarkCoreutilsComm measures comm over two sorted 4 MiB inputs, one
// line of each held at a time.
func BenchmarkCoreutilsComm(b *testing.B) {
	fs := vfs.New()
	var size int64
	for i, name := range []string{"/a", "/b"} {
		lines := strings.SplitAfter(strings.TrimSuffix(string(workload.Words(uint64(i+1), 4<<20)), "\n"), "\n")
		slices.Sort(lines)
		data := strings.Join(lines, "")
		size += int64(len(data))
		fs.WriteFile(name, []byte(data))
	}
	sh := core.New(fs, cost.Laptop(), core.ModeBash)
	b.SetBytes(size)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if st, _ := sh.Run("comm /a /b >/dev/null\n"); st != 0 {
			b.Fatal("comm failed")
		}
	}
}

// BenchmarkLint measures linting throughput.
func BenchmarkLint(b *testing.B) {
	src := strings.Repeat(benchScript, 10)
	b.SetBytes(int64(len(src)))
	for i := 0; i < b.N; i++ {
		Lint(src)
	}
}

// offerLoop runs 200 iterations of statements the JIT declines by shape:
// an arithmetic assignment, a test, a function call and an echo of its
// result. Bash mode makes no offer; jash mode offers each once.
const offerLoop = `classify() {
	case "$1" in
	*0) k=tens ;;
	*) k=other ;;
	esac
}
i=0
while [ "$i" -lt 200 ]; do
	i=$((i+1))
	classify "$i"
	echo "$k"
done >/dev/null
`

// BenchmarkJITOffer measures what the JIT costs over the plain
// interpreter, per run of a script including its parse: a loop of offers
// it declines, and each of the three pipelines of the benchmark's
// script_mix workload that it accepts, over one 200-line access log. The
// bash/jash pair of each is the JIT's floor for that statement.
func BenchmarkJITOffer(b *testing.B) {
	fs := vfs.New()
	fs.WriteFile("/log", workload.AccessLog(11, 200))
	fs.MkdirAll("/out")
	for _, c := range []struct {
		name, src string
		optimized int
	}{
		{"declined-loop", offerLoop, 0},
		{"clients", "grep ' 200 ' /log | cut -d ' ' -f 1 | sort -u | wc -l >/out/clients\n", 1},
		{"status", "cut -d ' ' -f 8 /log | sort | uniq -c >/out/status\n", 1},
		{"count404", "n=$(grep -c ' 404 ' /log)\n", 1},
	} {
		for _, mode := range []core.Mode{core.ModeBash, core.ModeJash} {
			b.Run(c.name+"/"+mode.String(), func(b *testing.B) {
				sh := core.New(fs, cost.Laptop(), mode)
				want := 0
				if mode == core.ModeJash {
					want = c.optimized
				}
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					sh.Stats = core.Stats{}
					if st, err := sh.Exec(c.src); err != nil || st != 0 {
						b.Fatalf("st=%d err=%v", st, err)
					}
					if sh.Stats.Optimized != want {
						b.Fatalf("optimized %d pipelines, want %d", sh.Stats.Optimized, want)
					}
				}
			})
		}
	}
}
