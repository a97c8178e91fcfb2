package main

import (
	"bytes"
	"fmt"
	"io"
	"runtime"
	"sync"
	"time"

	"jash/internal/analysis"
	"jash/internal/core"
	"jash/internal/coreutils"
	"jash/internal/cost"
	"jash/internal/dfg"
	"jash/internal/exec"
	"jash/internal/expand"
	"jash/internal/interp"
	"jash/internal/rewrite"
	"jash/internal/spec"
	"jash/internal/syntax"
	"jash/internal/trace"
)

// The traced pass times each layer from outside. A "layered op" runs the
// workload script on a bare interpreter whose Observer hook is the
// harness itself: for every pipeline the interpreter offers, the harness
// makes the same calls core.Shell's JIT makes — expand, translate,
// preflight, plan, estimate, execute — through the layers' public
// functions, with a harness-owned span around each. Its output is checked
// against the reference like any other op, so the replica cannot drift
// from the real path unnoticed.

const (
	// minLayerRounds..maxLayerRounds bound how often the traced pass
	// repeats; within them the first round's length and the pass's time
	// budget decide. Every per-layer value is a median over the rounds.
	minLayerRounds = 2
	maxLayerRounds = 5
	// createSamples is how many one-line files vfs.create_us is the
	// median over, per round.
	createSamples = 32
)

// runMode says how a layered op executes the pipelines it compiles.
type runMode int

const (
	runPlanned    runMode = iota // the plan rewrite.JashPlan chooses
	runSequential                // the same graphs, unparallelized
	runStages                    // each stage standalone via coreutils.Lookup
)

// counts accumulates what one layered op did.
type counts struct {
	// expand and dfgBuild include pipelines the translation then
	// declined: the JIT pays for those before it hands them back.
	expand, dfgBuild time.Duration
	words            int
	pipelines        int // compiled and executed
	hazards          int
	dfgNodes         int
	planNodes        int
	planWidth        int
	listWidth        int
	modelS           float64
	nodeWall         map[string]time.Duration // executor node lifetime by node kind
	bytesMoved       int64
	peakBuffered     int64
	sinkBytes        int64
	retries          int
	stage            map[string]time.Duration // standalone time by command name
}

// layered runs layered ops for one instance.
type layered struct {
	in  *instance
	rec *recorder
	lib *spec.Library

	mode runMode
	// cur is the span of the statement list the interpreter is running:
	// the parent of the spans of the pipelines it offers.
	cur *span
	// mu guards acc and err: pipeline stages call observe from their own
	// goroutines.
	mu  sync.Mutex
	acc counts
	err error
}

// expander is the invoking interpreter's state as an Expander that can
// neither run commands nor assign variables, as planning requires.
func expander(in *interp.Interp) *expand.Expander {
	return &expand.Expander{
		Lookup: func(name string) (string, bool) {
			v, ok := in.Vars[name]
			return v.Value, ok
		},
		Params: in.Params,
		Name0:  in.Name0,
		Status: in.Status,
		PID:    in.PID,
		FS:     in.FS,
		Dir:    in.Dir,
		NoGlob: in.NoGlob,
	}
}

func absPath(dir, p string) string {
	if p == "" || p[0] == '/' {
		return p
	}
	if dir == "" || dir == "/" {
		return "/" + p
	}
	return dir + "/" + p
}

// expandPipeline applies the JIT's eligibility rules to a pipeline and
// expands its words under the interpreter's bindings. words counts the
// words handed to ExpandWords whether or not the pipeline qualifies.
func expandPipeline(in *interp.Interp, pl *syntax.Pipeline) (argvs [][]string, b dfg.Binding, words int, ok bool) {
	x := expander(in)
	target := func(w *syntax.Word) (string, bool) {
		if !expand.AnalyzeWord(w).SafeToExpandEarly() {
			return "", false
		}
		v, err := x.ExpandString(w)
		return absPath(in.Dir, v), err == nil
	}
	for i, cmd := range pl.Cmds {
		sc, isSimple := cmd.(*syntax.SimpleCommand)
		if !isSimple || len(sc.Assigns) > 0 || len(sc.Args) == 0 {
			return nil, b, words, false
		}
		for _, r := range sc.Redirections {
			switch {
			case i == 0 && r.Op == syntax.RedirIn && r.DefaultFD() == 0:
				if b.StdinFile, ok = target(r.Target); !ok {
					return nil, b, words, false
				}
			case i == len(pl.Cmds)-1 && (r.Op == syntax.RedirOut || r.Op == syntax.RedirAppend) && r.DefaultFD() == 1:
				if b.StdoutFile, ok = target(r.Target); !ok {
					return nil, b, words, false
				}
				b.StdoutAppend = r.Op == syntax.RedirAppend
			default:
				return nil, b, words, false
			}
		}
		if !expand.AnalyzeWords(sc.Args).SafeToExpandEarly() {
			return nil, b, words, false
		}
		words += len(sc.Args)
		fields, err := x.ExpandWords(sc.Args)
		if err != nil || len(fields) == 0 {
			return nil, b, words, false
		}
		argvs = append(argvs, fields)
	}
	return argvs, b, words, true
}

// observe is the harness standing where core.Shell's JIT stands.
func (l *layered) observe(in *interp.Interp, st *syntax.Stmt) (int, bool) {
	pl := st.AndOr.First
	if st.Background || pl.Negated || len(st.AndOr.Rest) > 0 {
		return 0, false
	}
	t0 := l.rec.now()
	argvs, binding, words, ok := expandPipeline(in, pl)
	t1 := l.rec.now()
	var graph *dfg.Graph
	if ok {
		var err error
		graph, err = dfg.FromPipeline(argvs, l.lib, binding)
		ok = err == nil
	}
	t2 := l.rec.now()
	l.mu.Lock()
	l.acc.expand += t1 - t0
	l.acc.dfgBuild += t2 - t1
	l.acc.words += words
	l.mu.Unlock()
	if !ok {
		return 0, false
	}
	// Every source must be a file that exists: a terminal has no size to
	// plan against.
	for _, src := range graph.Sources() {
		if src.Path == "" || !in.FS.Exists(absPath(in.Dir, src.Path)) {
			return 0, false
		}
	}
	facts := cost.Inputs{
		Size: func(p string) int64 {
			fi, err := in.FS.Stat(absPath(in.Dir, p))
			if err != nil {
				return 0
			}
			return fi.Size
		},
		DeviceOf: func(p string) string { return in.FS.DeviceFor(absPath(in.Dir, p)) },
	}
	// Only now is the pipeline known to be worth a span; its first two
	// children were timed above.
	psp := l.cur.childAt("pipeline", t0)
	defer psp.end()
	psp.childAt("expand.words", t0).endAt(t1)
	psp.childAt("dfg.build", t1).endAt(t2)

	sp := psp.child("analysis.preflight")
	hazards := analysis.GraphHazards(graph, l.lib, in.Dir)
	sp.end()
	if len(hazards) > 0 {
		l.mu.Lock()
		l.acc.hazards++
		l.mu.Unlock()
		return 0, false
	}
	if l.mode == runStages {
		status, err := l.runStages(in, argvs, binding)
		return l.ran(status, err, graph)
	}
	prof := cost.Laptop()
	if l.mode == runSequential {
		prof.Cores = 1
	}
	sp = psp.child("rewrite.plan")
	plan, dec, err := rewrite.JashPlan(graph, facts, prof)
	sp.end()
	if err != nil {
		return 0, false
	}
	sp = psp.child("cost.estimate")
	est, err := cost.EstimateGraph(plan, facts, prof, false)
	sp.end()
	if err != nil {
		return 0, false
	}
	metrics := &exec.RunMetrics{}
	env := &exec.Env{FS: in.FS, Dir: in.Dir, Stdin: in.Stdin, Stdout: in.Stdout, Stderr: in.Stderr,
		Getenv: in.Getenv, Metrics: metrics, Lib: l.lib}
	sp = psp.child("exec.run")
	status, err := exec.Run(plan, env)
	sp.end()
	if err == nil {
		l.bookPlan(plan, dec, est, metrics)
	}
	return l.ran(status, err, graph)
}

// ran books one executed pipeline. An executor failure voids the op: the
// benchmark's workloads are chosen so that none happens.
func (l *layered) ran(status int, err error, graph *dfg.Graph) (int, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err != nil {
		if l.err == nil {
			l.err = err
		}
		return 1, true
	}
	l.acc.pipelines++
	l.acc.dfgNodes += len(graph.Nodes)
	return status, true
}

// bookPlan adds what the planner chose and the executor measured.
func (l *layered) bookPlan(plan *dfg.Graph, dec rewrite.Decision, est cost.Estimate, m *exec.RunMetrics) {
	l.mu.Lock()
	defer l.mu.Unlock()
	a := &l.acc
	a.planNodes += len(plan.Nodes)
	if dec.Width > a.planWidth {
		a.planWidth = dec.Width
	}
	a.modelS += est.Seconds
	for _, n := range m.Nodes {
		a.nodeWall[n.Kind] += n.Wall
	}
	a.bytesMoved += m.TotalBytesMoved()
	if p := m.MaxPeakBuffered(); p > a.peakBuffered {
		a.peakBuffered = p
	}
	a.sinkBytes += m.SinkBytes
	a.retries += m.Retries
}

// runStages runs the pipeline one stage at a time, each utility alone on
// the bytes the stages before it produce. Every stage runs twice: once
// timed with its output discarded, once more to capture the next stage's
// input.
func (l *layered) runStages(in *interp.Interp, argvs [][]string, b dfg.Binding) (int, error) {
	var input []byte
	if b.StdinFile != "" {
		data, err := in.FS.ReadFile(b.StdinFile)
		if err != nil {
			return 1, err
		}
		input = data
	}
	status := 0
	for _, argv := range argvs {
		fn, ok := coreutils.Lookup(argv[0])
		if !ok {
			return 1, fmt.Errorf("coreutils: no %s", argv[0])
		}
		run := func(out io.Writer) int {
			return fn(&coreutils.Context{FS: in.FS, Dir: in.Dir, Stdin: bytes.NewReader(input),
				Stdout: out, Stderr: io.Discard, Getenv: in.Getenv}, argv)
		}
		start := time.Now()
		run(io.Discard)
		d := time.Since(start)
		l.mu.Lock()
		l.acc.stage[argv[0]] += d
		l.mu.Unlock()
		var out bytes.Buffer
		status = run(&out)
		input = out.Bytes()
	}
	switch {
	case b.StdoutFile == "":
		_, err := in.Stdout.Write(input)
		return status, err
	case b.StdoutAppend:
		return status, in.FS.AppendFile(b.StdoutFile, input)
	}
	return status, in.FS.WriteFile(b.StdoutFile, input)
}

// listOptions gives the list planner the interpreter state core gives it.
func listOptions(in *interp.Interp, lib *spec.Library) rewrite.ListOptions {
	return rewrite.ListOptions{
		Lib:   lib,
		Dir:   in.Dir,
		Cores: cost.Laptop().Cores,
		IsFunc: func(name string) bool {
			_, ok := in.Funcs[name]
			return ok
		},
		IsReadonly: func(name string) bool { return in.Vars[name].ReadOnly },
		Lookup: func(name string) (string, bool) {
			v, ok := in.Vars[name]
			return v.Value, ok
		},
		FuncBody: func(name string) syntax.Command { return in.Funcs[name] },
	}
}

// op runs one layered op and returns what it measured, by metric name.
func (l *layered) op(id int, mode runMode) (map[string]float64, error) {
	in := l.in
	if err := in.clearOutputs(); err != nil {
		return nil, err
	}
	l.mode, l.err = mode, nil
	l.acc = counts{nodeWall: map[string]time.Duration{}, stage: map[string]time.Duration{}}
	var stdout bytes.Buffer
	sh := interp.New(in.fs)
	sh.Stdout, sh.Stderr = &stdout, io.Discard
	sh.Observer = l.observe
	first := l.rec.len()
	runtime.GC()
	root := l.rec.root(id, "op")
	// Line by line, as Shell.Run does: each command is parsed only when
	// the ones before it have run.
	for rest := in.spec.script; rest != ""; {
		sp := root.child("syntax.parse_command")
		stmts, n, err := syntax.ParseCommand(rest)
		sp.end()
		if err != nil {
			return nil, err
		}
		if n == 0 {
			break
		}
		rest = rest[n:]
		for _, st := range stmts {
			sp := root.child("analysis.stmt_summary")
			analysis.SummarizeStmt(st, l.lib)
			sp.end()
		}
		if len(stmts) >= 2 {
			sp := root.child("rewrite.list_plan")
			_, dec := rewrite.ParallelizeList(stmts, listOptions(sh, l.lib))
			sp.end()
			l.acc.listWidth = dec.Width
		}
		l.cur = root.child("interp.run_stmts")
		_, err = sh.RunStmts(stmts)
		l.cur.end()
		if err != nil {
			return nil, err
		}
		if sh.Exited {
			break
		}
	}
	sh.RunExitTrap()
	wall := root.end()
	if l.err != nil {
		return nil, fmt.Errorf("executor: %w", l.err)
	}
	if sh.Status != 0 {
		return nil, fmt.Errorf("exit status %d", sh.Status)
	}
	if err := in.check(stdout.Bytes()); err != nil {
		return nil, err
	}
	spans := l.rec.since(first)
	dur, self := totals(spans), selfTimes(spans)
	a := &l.acc
	switch mode {
	case runSequential:
		return map[string]float64{"exec.seq_run_ms": ms(dur["exec.run"])}, nil
	case runStages:
		v := map[string]float64{}
		var sum, max time.Duration
		for name, d := range a.stage {
			v["coreutils."+name+"_ms"] = ms(d)
			if sum += d; d > max {
				max = d
			}
		}
		v["coreutils.stage_sum_ms"], v["coreutils.max_stage_ms"] = ms(sum), ms(max)
		return v, nil
	}
	v := map[string]float64{
		"layered.op_ms":            ms(wall),
		"layered.pipelines":        float64(a.pipelines),
		"syntax.parse_command_us":  us(dur["syntax.parse_command"]),
		"analysis.stmt_summary_us": us(dur["analysis.stmt_summary"]),
		"expand.words_us":          us(a.expand),
		"expand.words":             float64(a.words),
		"dfg.build_us":             us(a.dfgBuild),
		"dfg.nodes":                float64(a.dfgNodes),
		"analysis.preflight_us":    us(dur["analysis.preflight"]),
		"analysis.hazards":         float64(a.hazards),
		"rewrite.plan_us":          us(dur["rewrite.plan"]),
		"rewrite.plan_width":       float64(a.planWidth),
		"rewrite.plan_nodes":       float64(a.planNodes),
		"cost.estimate_us":         us(dur["cost.estimate"]),
		"cost.model_s":             a.modelS,
		"exec.run_ms":              ms(dur["exec.run"]),
		"exec.command_wall_ms":     ms(a.nodeWall["command"]),
		"exec.sink_wall_ms":        ms(a.nodeWall["sink"]),
		"exec.bytes_moved_mb":      float64(a.bytesMoved) / (1 << 20),
		"exec.peak_buffered_kb":    float64(a.peakBuffered) / (1 << 10),
		"exec.sink_mb":             float64(a.sinkBytes) / (1 << 20),
		"exec.retries":             float64(a.retries),
		"interp.self_ms":           ms(self["interp.run_stmts"]),
	}
	for _, kind := range []string{"split", "merge"} {
		if d, ok := a.nodeWall[kind]; ok {
			v["exec."+kind+"_wall_ms"] = ms(d)
		}
	}
	// Per-pipeline latency needs a tail to be worth reporting: at 100
	// pipelines an op has ten samples beyond the 90th percentile.
	if a.pipelines >= 100 {
		var each []float64
		for _, s := range spans {
			if s.Name == "pipeline" {
				each = append(each, us(time.Duration(s.End-s.Start)))
			}
		}
		v["harness.pipeline_p50_us"], v["harness.pipeline_p90_us"] = median(each), percentile(each, 90)
	}
	if d, ok := dur["rewrite.list_plan"]; ok {
		v["rewrite.list_plan_us"], v["rewrite.list_width"] = us(d), float64(a.listWidth)
	}
	return v, nil
}

// countingWriter counts the lines written to it: the span records a
// Tracer streams.
type countingWriter struct{ lines int }

func (c *countingWriter) Write(p []byte) (int, error) {
	c.lines += bytes.Count(p, []byte{'\n'})
	return len(p), nil
}

// micro times the calls that need no op around them: a whole-script
// parse and the VFS at workload size.
func (l *layered) micro(id int) (map[string]float64, error) {
	in := l.in
	root := l.rec.root(id, "micro")
	defer root.end()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	sp := root.child("syntax.parse")
	script, err := syntax.Parse(in.spec.script)
	parse := sp.end()
	runtime.ReadMemStats(&after)
	if err != nil {
		return nil, err
	}
	stmts := 0
	syntax.Walk(script, func(n syntax.Node) bool {
		if _, ok := n.(*syntax.Stmt); ok {
			stmts++
		}
		return true
	})
	v := map[string]float64{
		"syntax.parse_us":     us(parse),
		"syntax.parse_allocs": float64(after.Mallocs - before.Mallocs),
		"syntax.stmts":        float64(stmts),
	}

	mb := float64(in.inputBytes) / (1 << 20)
	sp = root.child("vfs.read")
	for _, p := range in.inputPaths {
		r, err := in.fs.Open(p)
		if err != nil {
			return nil, err
		}
		if _, err := io.Copy(io.Discard, r); err != nil {
			return nil, err
		}
		r.Close()
	}
	v["vfs.read_mb_per_s"] = mb / sp.end().Seconds()

	const scratch = "/.bench"
	defer in.fs.RemoveAll(scratch)
	var payload [][]byte
	for _, p := range in.inputPaths {
		data, err := in.fs.ReadFile(p)
		if err != nil {
			return nil, err
		}
		payload = append(payload, data)
	}
	sp = root.child("vfs.write")
	for i, data := range payload {
		w, err := in.fs.Create(fmt.Sprintf("%s/w%d", scratch, i))
		if err != nil {
			return nil, err
		}
		if _, err := w.Write(data); err != nil {
			return nil, err
		}
		if err := w.Close(); err != nil {
			return nil, err
		}
	}
	v["vfs.write_mb_per_s"] = mb / sp.end().Seconds()

	creates := make([]float64, createSamples)
	for i := range creates {
		sp = root.child("vfs.create")
		w, err := in.fs.Create(fmt.Sprintf("%s/c%d", scratch, i))
		if err != nil {
			return nil, err
		}
		if _, err := io.WriteString(w, "one line\n"); err != nil {
			return nil, err
		}
		if err := w.Close(); err != nil {
			return nil, err
		}
		creates[i] = us(sp.end())
	}
	v["vfs.create_us"] = median(creates)
	return v, nil
}

// bare runs the script on interp.New alone — no observer, no JIT — and
// returns its wall time in ms.
func (in *instance) bare(noCompile bool) (float64, error) {
	if err := in.clearOutputs(); err != nil {
		return 0, err
	}
	var stdout bytes.Buffer
	sh := interp.New(in.fs)
	sh.Stdout, sh.Stderr = &stdout, io.Discard
	sh.NoCompile = noCompile
	runtime.GC()
	start := time.Now()
	status, err := sh.RunScript(in.spec.script)
	wall := time.Since(start)
	if err != nil {
		return 0, err
	}
	if status != 0 {
		return 0, fmt.Errorf("exit status %d", status)
	}
	return ms(wall), in.check(stdout.Bytes())
}

// layerResult is the outcome of a traced pass.
type layerResult struct {
	// values holds the median over the rounds of every layer metric
	// measured, the ones every workload has and the ones only this one has.
	values map[string]float64
	rounds int
	wall   time.Duration
}

// layerPass runs the traced pass: rounds of layered ops, whole-op
// comparison modes and micro timings, after the timed region and never
// inside it. budget caps its length through the number of rounds.
func (in *instance) layerPass(rec *recorder, budget time.Duration) (*layerResult, error) {
	l := &layered{in: in, rec: rec, lib: spec.Builtin()}
	samples := map[string][]float64{}
	add := func(v map[string]float64, err error) error {
		for name, x := range v {
			samples[name] = append(samples[name], x)
		}
		return err
	}
	wholeOp := func(name string, mode core.Mode, tweak func(*core.Shell)) (opResult, error) {
		res, err := in.op(mode, tweak)
		if err != nil {
			return res, fmt.Errorf("%s: %w", name, err)
		}
		return res, add(map[string]float64{name: ms(res.wall)}, nil)
	}
	start := time.Now()
	rounds, id := maxLayerRounds, 0
	for r := 0; r < rounds; r++ {
		for _, mode := range []runMode{runPlanned, runSequential, runStages} {
			id++
			if err := add(l.op(id, mode)); err != nil {
				return nil, fmt.Errorf("layered op: %w", err)
			}
		}
		id++
		if err := add(l.micro(id)); err != nil {
			return nil, fmt.Errorf("micro timings: %w", err)
		}
		// Traced and untraced ops alternate which goes first, so a drift of
		// the host falls on both sides.
		spans := &countingWriter{}
		traced := func() error {
			_, err := wholeOp("core.traced_ms", core.ModeJash, func(sh *core.Shell) {
				sh.EnableTracing(trace.New(trace.Options{Writer: spans}))
			})
			return err
		}
		if r%2 == 1 {
			if err := traced(); err != nil {
				return nil, err
			}
		}
		res, err := wholeOp("core.run_ms", core.ModeJash, nil)
		if err != nil {
			return nil, err
		}
		if r%2 == 0 {
			if err := traced(); err != nil {
				return nil, err
			}
		}
		st := &res.shell.Stats
		add(map[string]float64{
			"trace.spans_per_op":  float64(spans.lines),
			"core.optimized":      float64(st.Optimized),
			"core.interpreted":    float64(st.Interpreted),
			"core.list_parallel":  float64(st.ListParallel),
			"core.fallbacks":      float64(st.Fallbacks),
			"core.hazard_rejects": float64(st.HazardRejects),
		}, nil)
		if _, err := wholeOp("core.bash_ms", core.ModeBash, nil); err != nil {
			return nil, err
		}
		if _, err := wholeOp("core.pash_ms", core.ModePaSh, nil); err != nil {
			return nil, err
		}
		if _, err := wholeOp("core.nolistpar_ms", core.ModeJash, func(sh *core.Shell) { sh.NoListParallel = true }); err != nil {
			return nil, err
		}
		for _, b := range []struct {
			name      string
			noCompile bool
		}{{"interp.script_ms", false}, {"interp.walk_script_ms", true}} {
			wall, err := in.bare(b.noCompile)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", b.name, err)
			}
			add(map[string]float64{b.name: wall}, nil)
		}
		if r == 0 {
			if rounds = int(budget / time.Since(start)); rounds < minLayerRounds {
				rounds = minLayerRounds
			} else if rounds > maxLayerRounds {
				rounds = maxLayerRounds
			}
		}
	}
	v := map[string]float64{}
	for name, xs := range samples {
		v[name] = median(xs)
	}
	// Ratios are taken between medians, each with its base in its name.
	v["exec.par_speedup"] = v["exec.seq_run_ms"] / v["exec.run_ms"]
	v["exec.overhead_ms"] = v["exec.seq_run_ms"] - v["coreutils.stage_sum_ms"]
	v["cost.model_error"] = v["cost.model_s"] / (v["exec.run_ms"] / 1000)
	v["interp.compile_speedup"] = v["interp.walk_script_ms"] / v["interp.script_ms"]
	v["core.speedup_vs_bash"] = v["core.bash_ms"] / v["core.run_ms"]
	v["core.list_speedup"] = v["core.nolistpar_ms"] / v["core.run_ms"]
	// Statements of a list region overlap, so the session that runs them
	// in order is the one to set against the executor's summed time.
	v["core.jit_overhead_us"] = (v["core.nolistpar_ms"] - v["exec.run_ms"]) * 1000 / v["layered.pipelines"]
	v["trace.overhead_pct"] = (v["core.traced_ms"] - v["core.run_ms"]) / v["core.run_ms"] * 100
	return &layerResult{values: v, rounds: rounds, wall: time.Since(start)}, nil
}
