// Package paperfig regenerates the paper's figures: every table the paper
// reports (and every quantitative claim its prose makes) has a function
// here that returns it as printable rows. The package's tests are the only
// runner: each asserts its figure's shape and logs its table, so
// `go test -v ./internal/paperfig` prints every table EXPERIMENTS.md cites.
// The shell knows nothing of these experiments; they call it. Measured
// performance is `go run ./bench`.
package paperfig

import (
	"bytes"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"jash/internal/cluster"
	"jash/internal/core"
	"jash/internal/cost"
	"jash/internal/dfg"
	"jash/internal/exec"
	"jash/internal/incr"
	"jash/internal/infer"
	"jash/internal/lint"
	"jash/internal/rewrite"
	"jash/internal/spec"
	"jash/internal/vfs"
	"jash/internal/workload"
)

// Row is one line of an experiment's result table.
type Row struct {
	Experiment string
	Config     string
	System     string
	// Seconds is the experiment's primary metric (modelled or measured,
	// per the experiment's description).
	Seconds float64
	// Note carries secondary metrics ("width=4", "bytes moved=...").
	Note string
}

func (r Row) String() string {
	return fmt.Sprintf("%-14s %-22s %-10s %10.2fs  %s", r.Experiment, r.Config, r.System, r.Seconds, r.Note)
}

// Print renders rows as an aligned table.
func Print(w io.Writer, rows []Row) {
	fmt.Fprintf(w, "%-14s %-22s %-10s %11s  %s\n", "experiment", "config", "system", "seconds", "notes")
	for _, r := range rows {
		fmt.Fprintln(w, r.String())
	}
}

var lib = spec.Builtin()

// fig1Pipeline is Figure 1's workload: sort the words of a large file.
func fig1Pipeline() [][]string {
	return [][]string{
		{"cat"},
		{"tr", "A-Z", "a-z"},
		{"tr", "-cs", "A-Za-z", `\n`},
		{"sort"},
	}
}

const fig1PaperBytes = 3 << 30 // the paper's 3 GB input

// Fig1 reproduces Figure 1: the execution time of the word-sorting script
// under bash, PaSh, and Jash on the Standard (gp2) and IO-opt (gp3)
// configurations. Times are the cost model's predictions at the paper's
// 3 GB scale; the plans themselves are validated for output equivalence
// on a real validateBytes-sized corpus first (pass 0 to skip validation).
func Fig1(validateBytes int) ([]Row, error) {
	if validateBytes > 0 {
		if err := fig1Validate(validateBytes); err != nil {
			return nil, err
		}
	}
	g, err := dfg.FromPipeline(fig1Pipeline(), lib, dfg.Binding{StdinFile: "/words"})
	if err != nil {
		return nil, err
	}
	in := cost.Inputs{Size: func(string) int64 { return fig1PaperBytes }}
	var rows []Row
	profiles := []struct {
		name string
		mk   func() *cost.Profile
	}{
		{"Standard (gp2)", cost.StandardEC2},
		{"IO-opt (gp3)", cost.IOOptEC2},
	}
	for _, p := range profiles {
		// bash: sequential interpretation.
		bashEst, err := cost.EstimateGraph(rewrite.Sequential(g), in, p.mk(), true)
		if err != nil {
			return nil, err
		}
		rows = append(rows, Row{"fig1", p.name, "bash", bashEst.Seconds, "sequential"})
		// PaSh: AOT full width, buffered.
		pashGraph, pashDec, err := rewrite.PaShPlan(g, 8)
		if err != nil {
			return nil, err
		}
		pashEst, err := cost.EstimateGraph(pashGraph, in, p.mk(), true)
		if err != nil {
			return nil, err
		}
		rows = append(rows, Row{"fig1", p.name, "pash", pashEst.Seconds,
			fmt.Sprintf("width=%d buffered", pashDec.Width)})
		// Jash: JIT resource-aware.
		_, jashDec, err := rewrite.JashPlan(g, in, p.mk())
		if err != nil {
			return nil, err
		}
		rows = append(rows, Row{"fig1", p.name, "jash", jashDec.Estimate.Seconds,
			fmt.Sprintf("width=%d streaming", jashDec.Width)})
	}
	return rows, nil
}

// fig1Validate runs the three systems end-to-end on real data and checks
// their outputs are byte-identical.
func fig1Validate(bytes_ int) error {
	data := workload.Words(1, bytes_)
	script := "cat /words | tr A-Z a-z | tr -cs A-Za-z '\\n' | sort >/result\n"
	var outputs [][]byte
	for _, mode := range []core.Mode{core.ModeBash, core.ModePaSh, core.ModeJash} {
		fs := vfs.New()
		fs.WriteFile("/words", data)
		sh := core.New(fs, cost.IOOptEC2(), mode)
		if st, err := sh.Run(script); err != nil || st != 0 {
			return fmt.Errorf("fig1 validation (%v): status %d, err %v", mode, st, err)
		}
		out, err := fs.ReadFile("/result")
		if err != nil {
			return err
		}
		outputs = append(outputs, out)
	}
	if !bytes.Equal(outputs[0], outputs[1]) || !bytes.Equal(outputs[0], outputs[2]) {
		return fmt.Errorf("fig1 validation: system outputs diverge")
	}
	return nil
}

// Temperature reproduces the §2.1 claim: the 48-character pipeline
// matches a purpose-built (100-lines-of-Java stand-in) program's answer,
// with comparable performance. Seconds are measured wall time over real
// data; the row notes carry the answers.
func Temperature(records int) ([]Row, error) {
	data := workload.TemperatureRecords(3, records)
	oracle, ok := workload.MaxTemperature(data)
	if !ok {
		return nil, fmt.Errorf("temperature: no valid readings")
	}
	// Native program (the "Java" side).
	start := time.Now()
	native, _ := workload.MaxTemperature(data)
	nativeSecs := time.Since(start).Seconds()
	// Pipeline, interpreted.
	fs := vfs.New()
	fs.WriteFile("/ncdc", data)
	sh := core.New(fs, cost.Laptop(), core.ModeBash)
	var out bytes.Buffer
	sh.Interp.Stdout = &out
	start = time.Now()
	st, err := sh.Run("cat /ncdc | cut -c 89-92 | grep -v 999 | sort -rn | head -n1\n")
	pipeSecs := time.Since(start).Seconds()
	if err != nil || st != 0 {
		return nil, fmt.Errorf("temperature pipeline: status %d err %v", st, err)
	}
	answer := strings.TrimSpace(out.String())
	if answer != oracle || native != oracle {
		return nil, fmt.Errorf("temperature: pipeline %q vs oracle %q", answer, oracle)
	}
	cfg := fmt.Sprintf("%d records", records)
	return []Row{
		{"temperature", cfg, "native-go", nativeSecs, "answer=" + native},
		{"temperature", cfg, "pipeline", pipeSecs, "answer=" + answer + " (48-char pipeline)"},
	}, nil
}

// Spell reproduces §3.2's motivating example: the spell script's inputs
// hide behind $FILES and $DICT, so an AOT system cannot even see the
// dataflow; the JIT expands first and optimizes. Rows report whether each
// system optimized, plus the modelled time at the given scale. Bash mode
// is plain interpretation and models nothing, so its row is the sequential
// estimate of the graph Jash compiled, as Fig1's bash row is.
func Spell(docBytes int) ([]Row, error) {
	script := `DICT=/usr/share/dict
FILES="/docs/a.txt /docs/b.txt"
cat $FILES | tr A-Z a-z | tr -cs A-Za-z '\n' | sort -u | comm -13 $DICT -
`
	var rows []Row
	var outputs []string
	for _, mode := range []core.Mode{core.ModeBash, core.ModePaSh, core.ModeJash} {
		fs := vfs.New()
		fs.WriteFile("/usr/share/dict", workload.Dictionary(400))
		docs := workload.Documents(5, 2, docBytes/2)
		fs.WriteFile("/docs/a.txt", docs[0])
		fs.WriteFile("/docs/b.txt", docs[1])
		sh := core.New(fs, cost.IOOptEC2(), mode)
		var out bytes.Buffer
		sh.Interp.Stdout = &out
		if st, err := sh.Run(script); err != nil || st != 0 {
			return nil, fmt.Errorf("spell (%v): status %d err %v", mode, st, err)
		}
		outputs = append(outputs, out.String())
		note := "interpreted"
		switch {
		case sh.Stats.Optimized > 0:
			d, _ := sh.LastDecision()
			note = fmt.Sprintf("JIT expanded and compiled: %s width=%d", d.Strategy, d.Width)
			rows[0].Seconds = d.SequentialSeconds // bash ran first
		case mode == core.ModeBash:
			note = "interpreted (seconds: sequential estimate of the graph jash compiled)"
		case mode == core.ModePaSh:
			note = "cannot optimize: $FILES/$DICT are not static (the paper's claim)"
		}
		rows = append(rows, Row{"spell", fmt.Sprintf("%dB docs", docBytes), mode.String(), sh.Stats.VirtualSeconds, note})
		if mode == core.ModePaSh && sh.Stats.Optimized != 0 {
			return nil, fmt.Errorf("spell: PaSh (AOT) must not optimize the dynamic script")
		}
		if mode == core.ModeJash && sh.Stats.Optimized == 0 {
			return nil, fmt.Errorf("spell: Jash failed to optimize after expansion")
		}
	}
	for _, o := range outputs[1:] {
		if o != outputs[0] {
			return nil, fmt.Errorf("spell outputs diverge between modes")
		}
	}
	return rows, nil
}

// NoRegression sweeps input sizes and devices, asserting the paper's
// "performance benefits and no regressions" claim: Jash's modelled time
// never exceeds bash's by more than epsilon, while PaSh's does on gp2.
func NoRegression() ([]Row, error) {
	g, err := dfg.FromPipeline(fig1Pipeline(), lib, dfg.Binding{StdinFile: "/words"})
	if err != nil {
		return nil, err
	}
	var rows []Row
	sizes := []int64{1 << 20, 64 << 20, 1 << 30, 8 << 30}
	profiles := []struct {
		name string
		mk   func() *cost.Profile
	}{
		{"gp2", cost.StandardEC2},
		{"gp3", cost.IOOptEC2},
	}
	pashRegressed := false
	for _, p := range profiles {
		for _, size := range sizes {
			in := cost.Inputs{Size: func(string) int64 { return size }}
			bashEst, err := cost.EstimateGraph(rewrite.Sequential(g), in, p.mk(), true)
			if err != nil {
				return nil, err
			}
			pashGraph, _, err := rewrite.PaShPlan(g, 8)
			if err != nil {
				return nil, err
			}
			pashEst, err := cost.EstimateGraph(pashGraph, in, p.mk(), true)
			if err != nil {
				return nil, err
			}
			_, jashDec, err := rewrite.JashPlan(g, in, p.mk())
			if err != nil {
				return nil, err
			}
			cfg := fmt.Sprintf("%s %s", p.name, sizeName(size))
			note := ""
			if jashDec.Estimate.Seconds > bashEst.Seconds*1.001 {
				note = "REGRESSION"
			}
			if pashEst.Seconds > bashEst.Seconds*1.05 {
				pashRegressed = true
			}
			rows = append(rows, Row{"noregression", cfg, "bash", bashEst.Seconds, ""})
			rows = append(rows, Row{"noregression", cfg, "pash", pashEst.Seconds, ""})
			rows = append(rows, Row{"noregression", cfg, "jash", jashDec.Estimate.Seconds,
				strings.TrimSpace(fmt.Sprintf("width=%d %s", jashDec.Width, note))})
			if note != "" {
				return rows, fmt.Errorf("noregression: jash regressed at %s", cfg)
			}
		}
	}
	if !pashRegressed {
		return rows, fmt.Errorf("noregression: expected PaSh to regress somewhere on gp2")
	}
	return rows, nil
}

func sizeName(b int64) string {
	switch {
	case b >= 1<<30:
		return fmt.Sprintf("%dGiB", b>>30)
	case b >= 1<<20:
		return fmt.Sprintf("%dMiB", b>>20)
	default:
		return fmt.Sprintf("%dB", b)
	}
}

// ScalingWidth sweeps the parallelism width for the fig1 pipeline on both
// devices, showing the per-device optimum the JIT's search finds.
func ScalingWidth() ([]Row, error) {
	g, err := dfg.FromPipeline(fig1Pipeline(), lib, dfg.Binding{StdinFile: "/words"})
	if err != nil {
		return nil, err
	}
	in := cost.Inputs{Size: func(string) int64 { return fig1PaperBytes }}
	var rows []Row
	for _, p := range []struct {
		name string
		mk   func() *cost.Profile
	}{{"gp2", cost.StandardEC2}, {"gp3", cost.IOOptEC2}} {
		best := ""
		bestSecs := 0.0
		for _, width := range []int{1, 2, 4, 8, 16} {
			var est cost.Estimate
			if width == 1 {
				est, err = cost.EstimateGraph(rewrite.Sequential(g), in, p.mk(), true)
			} else {
				var ng *dfg.Graph
				ng, err = rewrite.Parallelize(g, rewrite.Options{Width: width})
				if err != nil {
					return nil, err
				}
				est, err = cost.EstimateGraph(ng, in, p.mk(), true)
			}
			if err != nil {
				return nil, err
			}
			cfg := fmt.Sprintf("%s width=%d", p.name, width)
			rows = append(rows, Row{"scaling", cfg, "jash-stream", est.Seconds, ""})
			if best == "" || est.Seconds < bestSecs {
				best, bestSecs = cfg, est.Seconds
			}
		}
		rows = append(rows, Row{"scaling", p.name, "optimum", bestSecs, best})
	}
	return rows, nil
}

// Incremental reproduces the §4 incremental-computation experiment:
// cold run, identical re-run (memo hit), and a +1% append (suffix run)
// of a stateless log pipeline. Seconds are measured wall time at the given
// scale.
func Incremental(logBytes int) ([]Row, error) {
	e, err := runIncremental(logBytes)
	if err != nil {
		return nil, err
	}
	return e.rows(), nil
}

func (e incremental) rows() []Row {
	cfg := sizeName(int64(e.logLen))
	return []Row{
		{"incremental", cfg, "cold", e.cold.secs, "full execution"},
		{"incremental", cfg, "warm", e.warm.secs, "memo hit, zero reprocessing"},
		{"incremental", cfg, "append+1%", e.appended.secs, fmt.Sprintf("suffix-only, %d bytes saved", e.appended.stats.BytesSaved)},
	}
}

// incrRun is one run of the incremental experiment: its wall time, what
// the runner counted during it, and its output.
type incrRun struct {
	secs  float64
	stats incr.Stats
	out   string
}

// incremental is the experiment's runs: cold, warm and append on one
// runner, and grown, a cold run over the appended log on a fresh runner
// (the reference for the append run's output). logLen is the log's length
// before the append.
type incremental struct {
	cold, warm, appended, grown incrRun
	logLen                      int
}

func runIncremental(logBytes int) (incremental, error) {
	fs := vfs.New()
	data := workload.AccessLog(17, logBytes/75)
	fs.WriteFile("/access.log", data)
	g, err := dfg.FromPipeline([][]string{
		{"grep", "-v", " 200 "},
		{"cut", "-d", " ", "-f", "1"},
	}, lib, dfg.Binding{StdinFile: "/access.log"})
	if err != nil {
		return incremental{}, err
	}
	run := func(r *incr.Runner, want string) (incrRun, error) {
		var out bytes.Buffer
		env := &exec.Env{FS: fs, Dir: "/", Stdin: strings.NewReader(""), Stdout: &out, Stderr: io.Discard}
		r.Stats = incr.Stats{}
		start := time.Now()
		_, kind, err := r.Run(g, env)
		secs := time.Since(start).Seconds()
		if err == nil && kind != want {
			err = fmt.Errorf("incremental: run was a %s, want a %s", kind, want)
		}
		return incrRun{secs, r.Stats, out.String()}, err
	}
	e := incremental{logLen: len(data)}
	r := incr.NewRunner()
	if e.cold, err = run(r, "miss"); err != nil {
		return e, err
	}
	if e.warm, err = run(r, "hit"); err != nil {
		return e, err
	}
	fs.AppendFile("/access.log", workload.AccessLog(18, logBytes/7500))
	if e.appended, err = run(r, "incremental"); err != nil {
		return e, err
	}
	e.grown, err = run(incr.NewRunner(), "miss")
	return e, err
}

// Distribution reproduces the §4 distribution experiment: the spell
// prefix over 4 nodes, placement-aware vs centralized, reporting modelled
// time and bytes moved.
func Distribution(docBytes int) ([]Row, error) {
	stages := [][]string{
		{"tr", "A-Z", "a-z"},
		{"tr", "-cs", "A-Za-z", `\n`},
		{"sort", "-u"},
	}
	build := func() (*cluster.Cluster, cluster.Job) {
		c := cluster.New(4, cost.Laptop, cluster.Link{BandwidthBPS: 10 << 20, LatencyS: 0.005})
		job := cluster.Job{Stages: stages}
		docs := workload.Documents(21, 4, docBytes/4)
		for i, doc := range docs {
			node := fmt.Sprintf("node%d", i+1)
			c.Place(node, "/doc.txt", doc)
			job.Inputs = append(job.Inputs, cluster.Input{Node: node, Path: "/doc.txt"})
		}
		return c, job
	}
	c1, j1 := build()
	central, err := c1.RunCentral(j1)
	if err != nil {
		return nil, err
	}
	c2, j2 := build()
	placement, err := c2.RunPlacement(j2)
	if err != nil {
		return nil, err
	}
	if !bytes.Equal(central.Output, placement.Output) {
		return nil, fmt.Errorf("distribution: outputs diverge")
	}
	cfg := fmt.Sprintf("4 nodes, %s", sizeName(int64(docBytes)))
	return []Row{
		{"distribution", cfg, "central", central.TotalSecs, fmt.Sprintf("%d bytes moved", central.BytesMoved)},
		{"distribution", cfg, "placement", placement.TotalSecs, fmt.Sprintf("%d bytes moved", placement.BytesMoved)},
	}, nil
}

// Lint runs the linter over a corpus of buggy scripts and reports
// per-analysis detection counts.
func Lint() ([]Row, error) {
	corpus := []string{
		"rm -rf $BUILD/$TARGET",
		"cp $SRC $DST",
		"if [ $x = ok ]; then echo fine; fi",
		"x = 5",
		"sort -z data.txt",
		"read line",
		"cat one.txt | grep needle",
		"grep x f | while read l; do n=$((n+1)); done",
		"for f in $(ls /tmp); do echo $f; done",
		"DATE=`date`",
		"cd /build\nmake install\n",
		"sort data.txt >data.txt",
	}
	l := lint.New()
	counts := map[string]int{}
	total := 0
	for _, src := range corpus {
		for _, f := range l.LintSource(src) {
			counts[f.Code]++
			total++
		}
	}
	var codes []string
	for code := range counts {
		codes = append(codes, code)
	}
	sort.Strings(codes)
	rows := []Row{{"lint", fmt.Sprintf("%d scripts", len(corpus)), "total", float64(total), "findings"}}
	for _, code := range codes {
		rows = append(rows, Row{"lint", code, "findings", float64(counts[code]), ""})
	}
	return rows, nil
}

// InferAgreement runs specification inference over the standard command
// set and reports agreement with the hand-written library.
func InferAgreement() ([]Row, error) {
	cases := [][]string{
		{"tr", "a-z", "A-Z"}, {"grep", "the"}, {"grep", "-c", "the"},
		{"cut", "-c", "1-3"}, {"sort"}, {"sort", "-rn"}, {"wc", "-l"},
		{"uniq"}, {"uniq", "-c"}, {"head", "-n", "2"}, {"tail", "-n", "2"},
		{"sed", "s/x/y/"}, {"awk", "{print $1}"}, {"rev"}, {"tac"},
		{"expand"}, {"fold", "-w", "10"},
	}
	verdicts, ratio, err := infer.Agreement(lib, cases)
	if err != nil {
		return nil, err
	}
	disagreements := []string{}
	for cmd, ok := range verdicts {
		if !ok {
			disagreements = append(disagreements, cmd)
		}
	}
	sort.Strings(disagreements)
	note := "all classes match hand-written specs"
	if len(disagreements) > 0 {
		note = "disagreements: " + strings.Join(disagreements, "; ")
	}
	return []Row{
		{"infer", fmt.Sprintf("%d invocations", len(cases)), "agreement", ratio, note},
	}, nil
}

// DataMovement cross-checks the cost model against the streaming
// executor's measured counters: the fig1 pipeline runs for real at the
// given scale under a width-4 parallel plan, and the rows report the
// model's predicted input volume next to the bytes the executor actually
// moved, plus the largest amount any node held buffered — which must stay
// bounded by the per-edge pipe capacity regardless of input size.
func DataMovement(inputBytes int) ([]Row, error) {
	const width = 4
	fs := vfs.New()
	fs.WriteFile("/words", workload.Words(7, inputBytes))
	g, err := dfg.FromPipeline(fig1Pipeline(), lib, dfg.Binding{StdinFile: "/words", StdoutFile: "/out"})
	if err != nil {
		return nil, err
	}
	ng, err := rewrite.Parallelize(g, rewrite.Options{Width: width})
	if err != nil {
		return nil, err
	}
	in := cost.Inputs{Size: func(string) int64 { return int64(inputBytes) }}
	est, err := cost.EstimateGraph(ng, in, cost.Laptop(), true)
	if err != nil {
		return nil, err
	}
	var predicted int64
	for _, ph := range est.Phases {
		predicted += ph.Bytes
	}
	metrics := &exec.RunMetrics{}
	env := &exec.Env{FS: fs, Dir: "/", Stdin: strings.NewReader(""),
		Stdout: io.Discard, Stderr: io.Discard, Metrics: metrics}
	start := time.Now()
	if st, err := exec.Run(ng, env); err != nil || st != 0 {
		return nil, fmt.Errorf("datamovement: status %d err %v", st, err)
	}
	wall := time.Since(start).Seconds()
	bound := int64(width * cost.PipeBufferBytes)
	if peak := metrics.MaxPeakBuffered(); peak > bound {
		return nil, fmt.Errorf("datamovement: peak buffered %d exceeds bound %d", peak, bound)
	}
	cfg := fmt.Sprintf("%s width=%d", sizeName(int64(inputBytes)), width)
	return []Row{
		{"datamovement", cfg, "model", est.Seconds,
			fmt.Sprintf("predicted %d bytes over %d phases", predicted, len(est.Phases))},
		{"datamovement", cfg, "executor", wall,
			fmt.Sprintf("measured %d bytes moved, max peak buffered %d (cap %d/edge)",
				metrics.TotalBytesMoved(), metrics.MaxPeakBuffered(), cost.PipeBufferBytes)},
	}, nil
}

// Ablation isolates Jash's two design ingredients (DESIGN.md §4): the
// resource-aware width search and the streaming (non-buffered) merge.
// Four variants run the fig1 workload at paper scale on the Standard
// volume:
//
//	full           width search + streaming      (Jash)
//	fixed-width    always 8 lanes, streaming     (no resource model)
//	buffered       width search + buffered merge (PaSh's staging)
//	neither        always 8 lanes, buffered      (≈ PaSh)
func Ablation() ([]Row, error) {
	g, err := dfg.FromPipeline(fig1Pipeline(), lib, dfg.Binding{StdinFile: "/words"})
	if err != nil {
		return nil, err
	}
	in := cost.Inputs{Size: func(string) int64 { return fig1PaperBytes }}
	estimate := func(graph *dfg.Graph) (float64, error) {
		est, err := cost.EstimateGraph(graph, in, cost.StandardEC2(), true)
		return est.Seconds, err
	}
	var rows []Row
	// full: the real planner.
	_, dec, err := rewrite.JashPlan(g, in, cost.StandardEC2())
	if err != nil {
		return nil, err
	}
	rows = append(rows, Row{"ablation", "Standard 3GB", "full",
		dec.Estimate.Seconds, fmt.Sprintf("width search + streaming (chose %d)", dec.Width)})
	// fixed-width streaming.
	fixed, err := rewrite.Parallelize(g, rewrite.Options{Width: 8})
	if err != nil {
		return nil, err
	}
	secs, err := estimate(fixed)
	if err != nil {
		return nil, err
	}
	rows = append(rows, Row{"ablation", "Standard 3GB", "fixed-w8", secs, "no resource model, streaming"})
	// width search, buffered merge.
	bestBuf := 0.0
	bestW := 0
	for w := 2; w <= 8; w *= 2 {
		cand, err := rewrite.Parallelize(g, rewrite.Options{Width: w, Buffered: true})
		if err != nil {
			return nil, err
		}
		s, err := estimate(cand)
		if err != nil {
			return nil, err
		}
		if bestW == 0 || s < bestBuf {
			bestBuf, bestW = s, w
		}
	}
	rows = append(rows, Row{"ablation", "Standard 3GB", "buffered",
		bestBuf, fmt.Sprintf("width search + buffered merge (best %d)", bestW)})
	// neither: PaSh.
	pashGraph, _, err := rewrite.PaShPlan(g, 8)
	if err != nil {
		return nil, err
	}
	secs, err = estimate(pashGraph)
	if err != nil {
		return nil, err
	}
	rows = append(rows, Row{"ablation", "Standard 3GB", "neither", secs, "fixed w8 + buffered (= PaSh)"})
	return rows, nil
}
