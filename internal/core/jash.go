// Package core implements Jash ("Just a shell"), the paper's proposed
// system (E3): a dynamically-triggered, resource-aware optimization regime
// for the POSIX shell.
//
// Jash is line-oriented: it consumes one complete command at a time,
// interpreting everything through the Smoosh-style evaluator (package
// interp) and interposing on pipelines just before they run. At that
// moment — and only then — the shell's dynamic state is concrete:
// variables have values, globs have matches, input files have sizes, and
// the storage layer has a live burst-credit balance. The JIT
//
//  1. checks that every word in the pipeline is *safe to expand early*
//     (package expand's symbolic analysis: no command substitutions, no
//     ${x=w}/${x?w}, no arithmetic assignment),
//  2. expands the words with the interpreter's own expander,
//  3. translates the pipeline to a dataflow graph against the PaSh-style
//     specification library,
//  4. probes the filesystem for input sizes and devices,
//  5. asks the cost-budgeted rewriter for a plan (with the paper's
//     no-regression rule), and
//  6. executes the chosen graph on the dataflow executor, or falls back
//     to plain interpretation when any step declines.
//
// Anything dynamic, side-effectful, or unknown simply interprets — Jash
// is sound by construction, never by assumption.
package core

import (
	"context"
	"errors"
	"fmt"
	"io"
	"strings"
	"sync"
	"time"

	"jash/internal/analysis"
	"jash/internal/cost"
	"jash/internal/dfg"
	"jash/internal/exec"
	"jash/internal/exec/faultinject"
	"jash/internal/incr"
	"jash/internal/interp"
	"jash/internal/rewrite"
	"jash/internal/spec"
	"jash/internal/syntax"
	"jash/internal/trace"
	"jash/internal/vfs"
)

// Mode selects the optimization strategy, matching Figure 1's systems.
type Mode int

const (
	// ModeBash never optimizes: plain interpretation.
	ModeBash Mode = iota
	// ModePaSh applies the ahead-of-time PaSh plan (full width, buffered
	// staging, resource-oblivious) to every eligible pipeline.
	ModePaSh
	// ModeJash applies the JIT, resource-aware, cost-budgeted plan.
	ModeJash
)

var modeNames = [...]string{"bash", "pash", "jash"}

func (m Mode) String() string { return modeNames[m] }

// Decision is the record of one interposition: what the JIT saw, chose
// and measured for one pipeline or one statement list. Shell.settle is its
// only writer; Stats, the -log-decisions line, the span attributes, the
// registry counters and the JSON stats are each a function of it.
type Decision struct {
	Pipeline string `json:"pipeline"` // the pipeline as the user wrote it (unparsed)
	// Strategy names the outcome: "interpret" (bash mode, which only
	// charges modelled time, or the planner declined), "hazard-reject",
	// "quarantine", "sequential-df" / "parallel-df" (ran on the dataflow
	// executor at width 1 / Width), "fallback-interpret" (the plan failed
	// and re-ran via the interpreter), "cancelled" (the session's context
	// tore the plan down), and for statement lists "sequential-list" /
	// "parallel-list". An offer the eligibility analysis declines is the
	// zero Decision: counted as interpreted, never listed.
	Strategy string `json:"strategy"`
	Width    int    `json:"width,omitempty"`
	Reason   string `json:"reason,omitempty"`
	// EstimatedSeconds is the cost model's prediction for the chosen
	// plan; SequentialSeconds for the unoptimized graph. Zero when the
	// pipeline was interpreted without estimation.
	EstimatedSeconds  float64       `json:"estimated_seconds,omitempty"`
	SequentialSeconds float64       `json:"sequential_seconds,omitempty"`
	PlanningWall      time.Duration `json:"-"` // real time spent deciding (JIT overhead)
	InputBytes        int64         `json:"input_bytes,omitempty"`
	// Nodes holds the executor's measured per-node counters for the run
	// (bytes moved, peak buffered bytes, wall time) — the ground truth
	// `jash -stats` shows next to the model's predictions. Empty when the
	// pipeline was interpreted rather than executed as dataflow.
	Nodes []exec.NodeMetrics `json:"nodes,omitempty"`
	// Witnesses lists the value-flow concretizations that helped admit
	// this decision, one `$f ⇒ /tmp/a.txt` line per dynamic word the
	// abstract interpreter proved — shown by jashexplain.
	Witnesses []string `json:"witnesses,omitempty"`

	// Facts the views need that have no column of their own.
	statements  int    // parallel-list: statements placed in concurrent regions
	concretized int    // ⊤ words resolved (a list deduplicates Witnesses, so ≥ their count)
	failures    int    // quarantine: the region's failure count
	sinkBytes   int64  // line-aligned bytes the plan committed to its sink
	breakerOpen bool   // fallback-interpret: this failure opened the breaker
	incremental string // the incremental cache's verdict, when one is attached
}

// tallies is the one strategy→counter table: what a record of each
// strategy adds to the session totals and, under the names Stats.counters
// pairs them with, to the registry.
var tallies = map[string]Stats{
	"":                   {Interpreted: 1},
	"interpret":          {Interpreted: 1},
	"hazard-reject":      {Interpreted: 1, HazardRejects: 1},
	"quarantine":         {Interpreted: 1, Quarantined: 1},
	"sequential-df":      {Optimized: 1},
	"parallel-df":        {Optimized: 1},
	"fallback-interpret": {Optimized: 1, Fallbacks: 1},
	"cancelled":          {Optimized: 1},
}

// logLine is the -log-decisions view of the record.
func (d *Decision) logLine() string {
	line := fmt.Sprintf("%s -> %s width=%d est=%.3fs (%s)",
		d.Pipeline, d.Strategy, d.Width, d.EstimatedSeconds, d.Reason)
	if d.incremental != "" {
		line += " incremental cache: " + d.incremental
	}
	return line
}

// annotatePlan stamps the planner's verdict on the plan span and ends it.
func (d *Decision) annotatePlan(psp *trace.Span) {
	if d.Strategy == "interpret" {
		psp.SetStr("verdict", "declined").SetStr("reason", d.Reason)
	} else {
		psp.SetStr("verdict", "compiled").SetStr("strategy", d.Strategy)
		psp.SetInt("width", int64(d.Width)).SetStr("reason", d.Reason)
		psp.SetFloat("est_seconds", d.EstimatedSeconds)
		psp.SetFloat("seq_seconds", d.SequentialSeconds)
		psp.SetInt("input_bytes", d.InputBytes)
		psp.SetInt("witnesses", int64(len(d.Witnesses)))
		if psp != nil && len(d.Witnesses) > 0 {
			psp.SetStr("witness_list", strings.Join(d.Witnesses, "; "))
		}
	}
	psp.End()
}

// annotate is the span view of a settled record: the pipeline span's
// outcome and the events of the self-healing machinery.
func (d *Decision) annotate(sp *trace.Span) {
	if sp == nil {
		return
	}
	sp.SetStr("outcome", d.Strategy)
	switch d.Strategy {
	case "quarantine":
		sp.EventInt("quarantine", "failures", int64(d.failures))
	case "fallback-interpret":
		if d.breakerOpen {
			sp.EventStr("breaker-open", "region", d.Pipeline)
		}
		if d.sinkBytes == 0 {
			sp.EventStr("fallback", "kind", "pristine")
		} else {
			sp.EventKV("fallback", map[string]any{
				"kind": "journaled", "committed_bytes": d.sinkBytes,
			})
		}
	}
}

// Stats accumulates a session's decisions and modelled execution time.
type Stats struct {
	// VirtualSeconds is the cost model's predicted wall time for the
	// session's dataflow work — the number the Figure 1 harness reports.
	VirtualSeconds float64 `json:"virtual_seconds"`
	Optimized      int     `json:"optimized"`
	Interpreted    int     `json:"interpreted"`
	// Fallbacks counts optimized plans that failed and were transparently
	// re-run through the interpreter — the paper's no-regression rule
	// extended to faults. A plan that died before its first output byte
	// re-runs from pristine state; one that died mid-stream re-runs
	// against the sink's line-aligned journal, skipping the committed
	// prefix.
	Fallbacks int `json:"fallbacks,omitempty"`
	// HazardRejects counts pipelines the static preflight refused to
	// compile: their nodes would race on a file if run concurrently
	// (write-write or read-after-write), so they interpret instead.
	HazardRejects int `json:"hazard_rejects,omitempty"`
	// Retries totals the executor's supervised node re-runs across the
	// session's optimized executions.
	Retries int `json:"retries,omitempty"`
	// Quarantined counts executions the JIT circuit breaker refused to
	// compile: the region failed BreakerThreshold times, so it runs
	// interpreted until a half-open probe re-admits it after BreakerDecay.
	Quarantined int `json:"quarantined,omitempty"`
	// ListParallel counts statements executed inside concurrent list
	// regions: runs of a `cmd1; cmd2; ...` list (or an unrolled static for
	// loop) proven pairwise non-interfering and run on worker clones, with
	// outputs replayed in program order.
	ListParallel int `json:"list_parallel,omitempty"`
	// Concretized counts dynamic words — $f operands, variable redirect
	// targets — the abstract interpreter resolved to concrete values
	// while admitting an optimization: each one is a ⊤ effect the
	// purely-syntactic analysis would have charged.
	Concretized int `json:"concretized,omitempty"`
	// Decisions lists every settled record, in the order they settled.
	Decisions []Decision `json:"decisions"`
}

// counters pairs each session total with the registry counter of the same
// quantity; add moves both by the same amount.
func (st *Stats) counters() ([8]*int, [8]string) {
	return [8]*int{&st.Optimized, &st.Interpreted, &st.Fallbacks, &st.HazardRejects,
			&st.Retries, &st.Quarantined, &st.ListParallel, &st.Concretized},
		[8]string{trace.MetricPlansOptimized, trace.MetricPlansInterp, trace.MetricFallbacks, trace.MetricHazardRejects,
			trace.MetricRetries, trace.MetricQuarantined, trace.MetricListParallel, trace.MetricConcretized}
}

// add is the counters' view of a settled record: it goes to the session
// totals and to the registry (nil when untraced) in one step, and joins
// Decisions unless it is a declined offer, reported as false.
func (st *Stats) add(d *Decision, reg *trace.Registry) bool {
	inc := tallies[d.Strategy]
	inc.ListParallel, inc.Concretized = d.statements, d.concretized
	var moved int64
	for _, n := range d.Nodes {
		inc.Retries += n.Retries
		moved += n.BytesOut
	}
	totals, names := st.counters()
	incs, _ := inc.counters()
	for i, n := range incs {
		if *n != 0 {
			*totals[i] += *n
			reg.Counter(names[i]).Add(int64(*n))
		}
	}
	if d.Strategy == "" {
		return false
	}
	// plans_total: every listed pipeline record is one or the other.
	reg.Counter(trace.MetricPlansTotal).Add(int64(inc.Optimized + inc.Interpreted))
	reg.Counter(trace.MetricBytesMoved).Add(moved)
	reg.Counter(trace.MetricSinkBytes).Add(d.sinkBytes)
	if d.PlanningWall > 0 {
		// Dispatch latency: interposition start to plan hand-off.
		reg.Histogram(trace.MetricDispatchLatency).Observe(d.PlanningWall)
	}
	st.VirtualSeconds += d.EstimatedSeconds
	st.Decisions = append(st.Decisions, *d)
	return true
}

// Shell is a Jash session.
type Shell struct {
	FS      *vfs.FS
	Interp  *interp.Interp
	Lib     *spec.Library
	Profile *cost.Profile
	Mode    Mode
	// Trace, when non-nil, receives one line per settled decision.
	Trace io.Writer
	// Tracer, when non-nil, records structured telemetry for the session
	// (internal/trace): a span tree per top-level command — parse, then
	// per pipeline the expansion, analysis preflight (hazard verdicts),
	// JIT decision, and per-node execution — plus fallback, breaker, and
	// list-parallel events, and a registry of counters and latency
	// histograms that settle bumps together with Stats. Attach with
	// EnableTracing so the interpreter side is wired too. A nil Tracer
	// costs nothing.
	Tracer *trace.Tracer
	// Incremental, when non-nil, routes stdout-bound dataflow regions
	// through the memoizing runner (§4's incremental computation built on
	// the JIT's up-to-date knowledge of input state). Enable with
	// EnableIncremental.
	Incremental *incr.Runner
	// Ctx, when non-nil, bounds every optimized execution: cancellation or
	// deadline expiry tears running plans down and makes the session exit
	// with status 124 (the timeout(1) convention). External cancellation
	// never triggers the interpreter fallback.
	Ctx context.Context
	// Faults, when non-nil, is forwarded to the executor's fault-injection
	// harness (tests only).
	Faults *faultinject.Set
	// Retries is the executor's per-node retry budget for
	// effect-idempotent nodes (`jash -retries`). Zero keeps the executor
	// fail-fast.
	Retries int
	// StallTimeout arms the executor's stall watchdog
	// (`jash -stall-timeout`); zero disables it.
	StallTimeout time.Duration
	// NoListParallel disables command-list parallelism (`jash
	// -no-list-parallel`): every statement list runs in program order.
	NoListParallel bool
	// breakers is the JIT circuit breaker's per-region failure ledger,
	// keyed by pipeline text: a pipeline that fails cost.BreakerThreshold
	// times is quarantined (interpreted directly) until cost.BreakerDecay
	// has passed, after which one half-open probe may re-admit it.
	breakers map[string]*breakerState
	// now is the breaker's clock; tests override it to step time.
	now func() time.Time
	// cmdSpan is the span of the top-level command currently running, the
	// parent of every pipeline span it triggers. Written only by Run's
	// goroutine between commands; list-region workers read it after the
	// write, so no lock is needed.
	cmdSpan *trace.Span

	// mu serializes the session state the observer mutates — Stats, the
	// breaker ledger, the profile's burst-credit balance, and the trace
	// stream. Statements of a concurrent list region run on interpreter
	// clones that all share this Shell, so their JIT interpositions race
	// without it.
	mu sync.Mutex

	Stats Stats
}

// breakerState is one region's entry in the circuit breaker's ledger.
type breakerState struct {
	failures  int
	openUntil time.Time
}

func (s *Shell) clock() time.Time {
	if s.now != nil {
		return s.now()
	}
	return time.Now()
}

// quarantined reports whether the breaker currently refuses to compile
// the region. An open breaker whose decay interval has passed lets one
// half-open probe through: success closes it, failure re-opens it.
func (s *Shell) quarantined(region string) bool {
	b := s.breakers[region]
	if b == nil || b.failures < cost.BreakerThreshold {
		return false
	}
	return s.clock().Before(b.openUntil)
}

// breakerFailure records a plan defect (not an external cancellation)
// against the region, opening the breaker at the threshold.
func (s *Shell) breakerFailure(region string) {
	if s.breakers == nil {
		s.breakers = map[string]*breakerState{}
	}
	b := s.breakers[region]
	if b == nil {
		b = &breakerState{}
		s.breakers[region] = b
	}
	b.failures++
	if b.failures >= cost.BreakerThreshold {
		b.openUntil = s.clock().Add(cost.BreakerDecay)
	}
}

// breakerSuccess closes the region's breaker: a clean run (including a
// half-open probe) clears its failure history.
func (s *Shell) breakerSuccess(region string) {
	delete(s.breakers, region)
}

// EnableIncremental attaches a fresh incremental cache to the session.
func (s *Shell) EnableIncremental() *incr.Runner {
	s.Incremental = incr.NewRunner()
	return s.Incremental
}

// EnableTracing attaches a tracer to the session and its interpreter, so
// both JIT-executed and interpreted pipelines record spans.
func (s *Shell) EnableTracing(tr *trace.Tracer) {
	s.Tracer = tr
	s.Interp.Tracer = tr
}

// New creates a shell over the filesystem with the given resource profile
// and mode. Standard streams default to discard; set them on Interp.
func New(fs *vfs.FS, profile *cost.Profile, mode Mode) *Shell {
	s := &Shell{
		FS:      fs,
		Interp:  interp.New(fs),
		Lib:     spec.Builtin(),
		Profile: profile,
		Mode:    mode,
	}
	s.Interp.Observer = s.observe
	return s
}

// Run executes a script through the line-oriented JIT loop: one complete
// command is parsed, dispatched, and finished before the next is even
// parsed — so each command sees the shell state its predecessors left.
func (s *Shell) Run(src string) (int, error) {
	if s.Ctx != nil {
		// Interpreted commands honor the session deadline too: coreutils
		// compute loops poll it.
		s.Interp.Ctx = s.Ctx
	}
	rest := src
	status := 0
	for rest != "" {
		// A session deadline that expired between commands stops the
		// script with the timeout convention's status, after giving the
		// script's INT/TERM/EXIT handlers their last word.
		if s.Ctx != nil && s.Ctx.Err() != nil {
			s.runDeadlineTraps()
			return 124, s.Ctx.Err()
		}
		csp := s.Tracer.Start(nil, "command")
		psp := csp.Child("parse")
		stmts, n, err := syntax.ParseCommand(rest)
		psp.End()
		if err != nil {
			csp.SetStr("error", err.Error())
			csp.End()
			return 2, err
		}
		if n == 0 {
			csp.End()
			break
		}
		rest = rest[n:]
		if len(stmts) == 0 {
			csp.End()
			continue
		}
		if csp != nil {
			csp.SetStr("text", syntax.PrintStmts(stmts))
		}
		s.cmdSpan = csp
		status, err = s.runStmtsTop(stmts)
		s.cmdSpan = nil
		csp.SetInt("status", int64(status))
		csp.End()
		if err != nil {
			return status, err
		}
		// A deadline that expired while the command ran (its compute
		// loops unwound via Interp.Ctx) also reports the timeout —
		// again running pending INT/TERM/EXIT traps first.
		if s.Ctx != nil && s.Ctx.Err() != nil {
			s.runDeadlineTraps()
			return 124, s.Ctx.Err()
		}
		if s.Interp.Exited {
			break
		}
	}
	// The EXIT trap fires when the session ends (builtinExit already
	// consumed it if the script exited explicitly).
	s.Interp.RunExitTrap()
	if !s.Interp.Exited {
		status = s.Interp.Status
	}
	return status, nil
}

// runDeadlineTraps fires pending INT/TERM/EXIT trap actions before the
// session exits on the timeout convention. The bodies run interpreted
// and unbounded: the deadline has already expired, and re-entering the
// JIT (or honouring the expired context) would kill the very
// handlers the user installed for this moment.
func (s *Shell) runDeadlineTraps() {
	savedObs, savedCtx := s.Interp.Observer, s.Interp.Ctx
	s.Interp.Observer, s.Interp.Ctx = nil, nil
	s.Interp.RunPendingTraps("INT", "TERM", "EXIT")
	s.Interp.Observer, s.Interp.Ctx = savedObs, savedCtx
}

// settle publishes one interposition's record, complete: nothing is
// amended afterwards. It is the only code in this package that adds to
// Stats, prints the -log-decisions line, sets a span's outcome or bumps a
// registry counter, and it computes each of those views from d alone. sp is
// the span the outcome belongs on (nil when untraced and for list
// decisions). A declined offer — almost every offer of a script — costs a
// counter, no span and no allocation.
func (s *Shell) settle(sp *trace.Span, d Decision) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.Stats.add(&d, s.Tracer.Metrics()) {
		return
	}
	if s.Trace != nil {
		fmt.Fprintf(s.Trace, "jash[%s]: %s\n", s.Mode, d.logLine())
	}
	d.annotate(sp)
}

// observe is the interposition hook: the interpreter offers every
// pipeline here before running it. `in` is the invoking interpreter —
// possibly a subshell or command-substitution clone — whose state and
// streams this decision must use. It is a straight line — region,
// preflight, plan, run — that fills in one Decision; wherever it returns,
// that record is settled once.
func (s *Shell) observe(in *interp.Interp, st *syntax.Stmt) (int, bool) {
	if s.Mode == ModeBash {
		// Baseline still charges modelled time for eligible pipelines so
		// the harness can compare systems on equal footing.
		if graph, facts, text, ok := s.analyze(in, st, false); ok {
			seq := graph.Clone()
			rewrite.RemoveUselessCat(seq)
			s.mu.Lock()
			est, err := cost.EstimateGraph(seq, facts, s.Profile, false)
			s.mu.Unlock()
			if err == nil {
				s.settle(nil, Decision{Pipeline: text, Strategy: "interpret",
					Reason: "bash mode", EstimatedSeconds: est.Seconds,
					SequentialSeconds: est.Seconds, InputBytes: totalInput(graph, facts)})
			}
		}
		return 0, false
	}
	// PaSh is ahead-of-time: it sees the script text, not the shell state,
	// so any word that needs expansion hides the dataflow from it (§3.2:
	// "neither PaSh nor POSH optimize this script"). Jash expands first.
	start := time.Now()
	graph, facts, text, ok := s.analyze(in, st, s.Mode == ModePaSh)
	if !ok {
		s.settle(nil, Decision{})
		return 0, false
	}
	// Only a region analyze accepts gets a span, backdated to the offer so
	// the expand child still covers the analysis.
	root := s.Tracer.StartAt(s.cmdSpan, "pipeline", start)
	root.SetStr("text", text)
	s.Tracer.StartAt(root, "expand", start).End()
	d := Decision{Pipeline: text}
	defer func() {
		s.settle(root, d)
		root.End()
	}()
	// Static preflight: a dataflow plan runs every node concurrently, so
	// any pair of nodes whose effect summaries conflict on a file would
	// race. Such a region is never compiled — the interpreter's
	// left-to-right, stage-by-stage semantics are the only safe ones.
	pre := root.Child("preflight")
	if hz := analysis.GraphHazards(graph, s.Lib, in.Dir); len(hz) > 0 {
		pre.SetStr("verdict", "hazard").SetStr("hazard", hz[0].String())
		pre.End()
		d.Strategy, d.Reason = "hazard-reject", hz[0].String()
		return 0, false
	}
	pre.SetStr("verdict", "clear")
	pre.End()
	// JIT circuit breaker: a region that keeps failing at runtime is not
	// re-compiled forever — after BreakerThreshold failures it is
	// quarantined to the interpreter until the decay interval admits a
	// half-open probe.
	s.mu.Lock()
	if s.quarantined(text) {
		d.failures = s.breakers[text].failures
		s.mu.Unlock()
		d.Strategy = "quarantine"
		d.Reason = fmt.Sprintf("region failed %d times; interpreting (half-open probe after %v)", d.failures, cost.BreakerDecay)
		return 0, false
	}
	// Planning runs outside the lock on a snapshot: its what-if estimates
	// read the devices' burst credits, which a concurrent list-region
	// worker settles (under the lock) when it charges its own plan.
	profile := s.Profile.Clone()
	s.mu.Unlock()
	psp := root.Child("plan")
	var chosen *dfg.Graph
	var dec rewrite.Decision
	var err error
	switch s.Mode {
	case ModePaSh:
		chosen, dec, err = rewrite.PaShPlan(graph, profile.Cores)
	default:
		chosen, dec, err = rewrite.JashPlan(graph, facts, profile)
	}
	d.PlanningWall = time.Since(start)
	var est cost.Estimate
	if err == nil {
		// Charge the model for the chosen plan, consuming burst credits.
		s.mu.Lock()
		est, err = cost.EstimateGraph(chosen, facts, s.Profile, false)
		s.mu.Unlock()
	}
	if err != nil {
		d.Strategy, d.Reason = "interpret", err.Error()
		d.annotatePlan(psp)
		return 0, false
	}
	d.Strategy = "sequential-df"
	if dec.Width > 1 {
		d.Strategy = "parallel-df"
	}
	d.Width, d.Reason = dec.Width, dec.Reason
	d.EstimatedSeconds, d.SequentialSeconds = est.Seconds, dec.SequentialEstimate.Seconds
	d.InputBytes = totalInput(graph, facts)
	// Value-flow witnesses: which dynamic words this pipeline needed the
	// runtime state to resolve. Each is a ⊤ the static analysis would
	// have charged — the precision the JIT (and now the abstract
	// interpreter) buys, surfaced via Stats.Concretized and jashexplain.
	d.Witnesses = concretizeWitnesses(in, st.AndOr.First)
	d.concretized = len(d.Witnesses)
	d.annotatePlan(psp)
	// Execute the plan for real over the VFS, through the incremental
	// cache when one is attached.
	esp := root.Child("execute")
	esp.SetStr("strategy", d.Strategy)
	metrics := &exec.RunMetrics{}
	env := &exec.Env{
		FS:           s.FS,
		Dir:          in.Dir,
		Stdin:        in.Stdin,
		Stdout:       in.Stdout,
		Stderr:       in.Stderr,
		Getenv:       in.Getenv,
		Metrics:      metrics,
		Faults:       s.Faults,
		Lib:          s.Lib,
		Retries:      s.Retries,
		StallTimeout: s.StallTimeout,
		Span:         esp,
	}
	ctx := s.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	var status int
	var runErr error
	if s.Incremental != nil {
		var kind string
		status, kind, runErr = s.Incremental.RunContext(ctx, chosen, env)
		if runErr == nil {
			d.incremental = kind
			esp.SetStr("incremental", kind)
		}
	} else {
		status, runErr = exec.RunContext(ctx, chosen, env)
	}
	d.Nodes, d.sinkBytes = metrics.Nodes, metrics.SinkBytes
	esp.SetInt("status", int64(status))
	esp.SetInt("sink_bytes", metrics.SinkBytes)
	esp.SetInt("bytes_moved", metrics.TotalBytesMoved())
	esp.SetInt("retries", int64(metrics.Retries))
	if runErr != nil {
		esp.SetStr("error", runErr.Error())
	}
	esp.End()
	if runErr == nil {
		s.mu.Lock()
		s.breakerSuccess(text)
		s.mu.Unlock()
		return status, true
	}
	if errors.Is(runErr, context.Canceled) || errors.Is(runErr, context.DeadlineExceeded) {
		// External cancellation is a user-imposed bound, not a plan defect:
		// surface it (timeout convention, status 124) instead of re-running
		// the region — a fallback would evade the user's deadline. No
		// diagnostic here: Run's deadline check reports it once. The
		// breaker ignores it too.
		d.Strategy, d.Reason = "cancelled", runErr.Error()
		return 124, true
	}
	s.mu.Lock()
	s.breakerFailure(text)
	d.breakerOpen = s.quarantined(text)
	s.mu.Unlock()
	d.Strategy = "fallback-interpret"
	if d.sinkBytes == 0 {
		// Fallback-before-first-byte: if the failed plan emitted nothing,
		// the interpreter can re-run the pipeline from pristine state —
		// the paper's no-regression rule extended to faults. Analyze
		// already guaranteed every source is a regular file (never live
		// stdin), so the re-run reads the same inputs.
		d.Reason = fmt.Sprintf("plan failed before first output byte (%v); re-run via interpreter", runErr)
		return 0, false
	}
	// Journaled mid-stream fallback: the sink committed a line-aligned
	// prefix (sinkBytes is its exact length), so the interpreter can
	// re-run the pipeline and skip the committed bytes instead of
	// giving up — no duplicated and no missing lines.
	d.Reason = fmt.Sprintf("plan failed mid-stream (%v) after %d committed bytes; journaled re-run via interpreter", runErr, d.sinkBytes)
	return s.replayJournaled(in, st, chosen, d.sinkBytes)
}

// skipWriter discards the first skip bytes it is handed and passes the
// rest through — the replay side of the sink's line-aligned journal.
type skipWriter struct {
	w    io.Writer
	skip int64
}

func (sw *skipWriter) Write(p []byte) (int, error) {
	total := len(p)
	if sw.skip > 0 {
		if int64(total) <= sw.skip {
			sw.skip -= int64(total)
			return total, nil
		}
		p = p[sw.skip:]
		sw.skip = 0
	}
	if _, err := sw.w.Write(p); err != nil {
		return 0, err
	}
	return total, nil
}

// replayJournaled re-runs the failed region through the interpreter,
// skipping the sink's committed prefix. A stdout-bound region replays
// onto the session stdout behind a skipWriter; a file-bound region is
// replayed with its stdout redirection stripped and the surviving output
// appended to the partially committed file (truncate already happened on
// the first run, so append is correct for both > and >>).
func (s *Shell) replayJournaled(in *interp.Interp, st *syntax.Stmt, g *dfg.Graph, committed int64) (int, bool) {
	// The replay must interpret: re-entering the observer would
	// re-optimize (and likely re-fail) the same region.
	savedObs, savedOut := in.Observer, in.Stdout
	in.Observer = nil
	defer func() { in.Observer, in.Stdout = savedObs, savedOut }()
	stmt := st
	var fileOut io.WriteCloser
	if sink := g.Sink(); sink != nil && sink.Path != "" {
		w, err := s.FS.Append(sink.Path)
		if err != nil {
			fmt.Fprintf(in.Stderr, "jash: fallback: %v\n", err)
			return 1, true
		}
		fileOut = w
		in.Stdout = &skipWriter{w: w, skip: committed}
		stmt = stripStdoutRedir(st)
	} else {
		dst := savedOut
		if dst == nil {
			dst = io.Discard
		}
		in.Stdout = &skipWriter{w: dst, skip: committed}
	}
	status, err := in.RunStmts([]*syntax.Stmt{stmt})
	if fileOut != nil {
		if cerr := fileOut.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	if err != nil {
		fmt.Fprintf(in.Stderr, "jash: fallback: %v\n", err)
		if status == 0 {
			status = 1
		}
	}
	return status, true
}

// stripStdoutRedir clones the statement with the last pipeline stage's
// stdout redirection removed, so a journaled replay can route output
// through the shell instead of re-truncating the destination.
func stripStdoutRedir(st *syntax.Stmt) *syntax.Stmt {
	stCopy := *st
	ao := *st.AndOr
	pl := *ao.First
	cmds := append([]syntax.Command(nil), pl.Cmds...)
	last, ok := cmds[len(cmds)-1].(*syntax.SimpleCommand)
	if !ok {
		return st
	}
	lc := *last
	var keep []*syntax.Redirect
	for _, r := range lc.Redirections {
		if (r.Op == syntax.RedirOut || r.Op == syntax.RedirAppend) && r.DefaultFD() == 1 {
			continue
		}
		keep = append(keep, r)
	}
	lc.Redirections = keep
	cmds[len(cmds)-1] = &lc
	pl.Cmds = cmds
	ao.First = &pl
	stCopy.AndOr = &ao
	return &stCopy
}

// analyze asks the region former (dfg.FromStmt, expanding through the
// invoking interpreter's EarlyExpander) whether the statement is a dataflow
// region, then adds what only the running shell knows: every source is a
// file that exists, and how big it is and where it lives. aheadOfTime models
// an AOT optimizer, which has no shell state to expand with. The text is
// printed only for a region it accepts.
func (s *Shell) analyze(in *interp.Interp, st *syntax.Stmt, aheadOfTime bool) (*dfg.Graph, cost.Inputs, string, bool) {
	graph, err := dfg.FromStmt(st, s.Lib, in.EarlyExpander(), aheadOfTime)
	if err != nil {
		return nil, cost.Inputs{}, "", false
	}
	// A terminal-stdin source has unknown volume, so fall back.
	dir := in.Dir
	for _, src := range graph.Sources() {
		if src.Path == "" || !s.FS.Exists(analysis.NormalizePath(dir, src.Path)) {
			return nil, cost.Inputs{}, "", false
		}
	}
	facts := cost.Inputs{
		Size: func(p string) int64 {
			fi, err := s.FS.Stat(analysis.NormalizePath(dir, p))
			if err != nil {
				return 0
			}
			return fi.Size
		},
		DeviceOf: func(p string) string {
			return s.FS.DeviceFor(analysis.NormalizePath(dir, p))
		},
	}
	return graph, facts, syntax.PrintStmts([]*syntax.Stmt{st}), true
}

func totalInput(g *dfg.Graph, in cost.Inputs) int64 {
	var total int64
	for _, src := range g.Sources() {
		if src.Path != "" && in.Size != nil {
			total += in.Size(src.Path)
		}
	}
	return total
}

// LastDecision returns the most recent decision, if any.
func (s *Shell) LastDecision() (Decision, bool) {
	if len(s.Stats.Decisions) == 0 {
		return Decision{}, false
	}
	return s.Stats.Decisions[len(s.Stats.Decisions)-1], true
}
