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
// only writer; Stats and the span attributes are each a function of it.
type Decision struct {
	Pipeline string // the pipeline as the user wrote it (unparsed)
	// Strategy names the outcome: "interpret" (the planner declined),
	// "hazard-reject", "quarantine", "sequential-df" / "parallel-df" (ran
	// on the dataflow executor at width 1 / Width), "fallback-interpret"
	// (the plan failed and re-ran via the interpreter), "cancelled" (the
	// session's context tore the plan down), and for statement lists
	// "sequential-list" / "parallel-list". An offer the eligibility
	// analysis declines is the zero Decision: counted as interpreted, never
	// listed.
	Strategy string
	Width    int
	Reason   string
	// EstimatedSeconds is the cost model's prediction for the chosen
	// plan; SequentialSeconds for the unoptimized graph. Zero when the
	// pipeline was interpreted without estimation.
	EstimatedSeconds  float64
	SequentialSeconds float64
	InputBytes        int64
	// Nodes holds the executor's measured per-node counters for the run
	// (bytes moved, peak buffered bytes, wall time) — the ground truth the
	// trace's node spans show next to the model's predictions. Empty when
	// the pipeline was interpreted rather than executed as dataflow.
	Nodes []exec.NodeMetrics
	// Witnesses lists the value-flow concretizations that helped admit
	// this decision, one `$f ⇒ /tmp/a.txt` line per dynamic word the
	// abstract interpreter proved — the trace's witness_list.
	Witnesses []string

	// Facts the views need that have no column of their own.
	statements  int   // parallel-list: statements placed in concurrent regions
	concretized int   // ⊤ words resolved (a list deduplicates Witnesses, so ≥ their count)
	failures    int   // quarantine: the region's failure count
	sinkBytes   int64 // line-aligned bytes the plan committed to its sink
	breakerOpen bool  // fallback-interpret: this failure opened the breaker
}

// tallies is the one strategy→counter table: what a record of each
// strategy adds to the session totals.
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

// annotatePlan stamps the planner's verdict on the plan span and ends it.
// Its reason stays the planner's even when the settled record's becomes a
// fallback's.
func (d *Decision) annotatePlan(psp *trace.Span) {
	if d.Strategy == "interpret" {
		psp.SetStr("verdict", "declined").SetStr("reason", d.Reason)
	} else {
		psp.SetStr("verdict", "compiled").SetStr("strategy", d.Strategy)
		psp.SetStr("reason", d.Reason)
		psp.SetFloat("seq_seconds", d.SequentialSeconds)
		psp.SetInt("input_bytes", d.InputBytes)
		psp.SetInt("witnesses", int64(len(d.Witnesses)))
		if psp != nil && len(d.Witnesses) > 0 {
			psp.SetStr("witness_list", strings.Join(d.Witnesses, "; "))
		}
	}
	psp.End()
}

// annotate is the span view of a settled record: the outcome, reason,
// width and estimate on the span the record belongs to, and the events of
// the self-healing machinery.
func (d *Decision) annotate(sp *trace.Span) {
	if sp == nil {
		return
	}
	sp.SetStr("outcome", d.Strategy).SetStr("reason", d.Reason)
	if d.Width > 0 {
		sp.SetInt("width", int64(d.Width))
	}
	if d.EstimatedSeconds > 0 {
		sp.SetFloat("est_seconds", d.EstimatedSeconds)
	}
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
	// session's compiled dataflow work (zero in bash mode, which compiles
	// nothing).
	VirtualSeconds float64
	Optimized      int
	// Interpreted counts the offers the JIT declined or ran interpreted
	// (hazard-reject, quarantine), not the pipelines the interpreter ran:
	// a pipeline declined by shape (dfg.ErrShape) is offered once and then
	// never again, however often it runs.
	Interpreted int
	// Fallbacks counts optimized plans that failed and were transparently
	// re-run through the interpreter — the paper's no-regression rule
	// extended to faults. A plan that died before its first output byte
	// re-runs from pristine state; one that died mid-stream re-runs
	// against the sink's line-aligned journal, skipping the committed
	// prefix.
	Fallbacks int
	// HazardRejects counts pipelines the static preflight refused to
	// compile: their nodes would race on a file if run concurrently
	// (write-write or read-after-write), so they interpret instead.
	HazardRejects int
	// Quarantined counts executions the JIT circuit breaker refused to
	// compile: the region failed BreakerThreshold times, so it runs
	// interpreted until a half-open probe re-admits it after BreakerDecay.
	Quarantined int
	// ListParallel counts statements executed inside concurrent list
	// regions: runs of a `cmd1; cmd2; ...` list (or of a for loop's
	// iterations) proven pairwise non-interfering and run on worker clones, with
	// outputs replayed in program order.
	ListParallel int
	// Concretized counts dynamic words — $f operands, variable redirect
	// targets — the abstract interpreter resolved to concrete values
	// while admitting an optimization: each one is a ⊤ effect the
	// purely-syntactic analysis would have charged.
	Concretized int
	// Decisions lists every settled record, in the order they settled.
	Decisions []Decision
}

// add is the counters' view of a settled record: it goes to the session
// totals, and joins Decisions unless it is a declined offer, reported as
// false.
func (st *Stats) add(d *Decision) bool {
	inc := tallies[d.Strategy]
	st.Optimized += inc.Optimized
	st.Interpreted += inc.Interpreted
	st.Fallbacks += inc.Fallbacks
	st.HazardRejects += inc.HazardRejects
	st.Quarantined += inc.Quarantined
	st.ListParallel += d.statements
	st.Concretized += d.concretized
	if d.Strategy == "" {
		return false
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
	// Tracer, when non-nil, records structured telemetry for the session
	// (internal/trace): a span tree per top-level command — parse, then
	// per pipeline the expansion, analysis preflight (hazard verdicts),
	// JIT decision, and per-node execution — plus fallback, breaker, and
	// list-parallel events. It is the session's only record outside Stats.
	// Interpreted pipelines hang from the same command spans, with a node
	// span per stage. A nil Tracer costs nothing.
	Tracer *trace.Tracer
	// Ctx, when non-nil, bounds every optimized execution: cancellation or
	// deadline expiry tears running plans down and makes the session exit
	// with status 124 (the timeout(1) convention). External cancellation
	// never triggers the interpreter fallback.
	Ctx context.Context
	// Faults, when non-nil, is forwarded to the executor's fault-injection
	// harness (tests only).
	Faults *faultinject.Set
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

// EnableTracing attaches a tracer to the session. Each top-level command
// gets a `command` span, which Run hands the interpreter as Interp.Tracer:
// every pipeline the command runs, JIT-executed or interpreted, hangs from
// it.
func (s *Shell) EnableTracing(tr *trace.Tracer) { s.Tracer = tr }

// New creates a shell over the filesystem with the given resource profile
// and mode. Standard streams default to discard; set them on Interp. Bash
// mode is the plain interpreter: nothing is offered to the JIT.
func New(fs *vfs.FS, profile *cost.Profile, mode Mode) *Shell {
	s := &Shell{
		FS:      fs,
		Interp:  interp.New(fs),
		Lib:     spec.Builtin(),
		Profile: profile,
		Mode:    mode,
	}
	if mode != ModeBash {
		s.Interp.Observer = s.observe
	}
	return s
}

// Run executes a script through the line-oriented JIT loop and ends the
// session: Exec, then End.
func (s *Shell) Run(src string) (int, error) {
	status, err := s.Exec(src)
	return s.End(status), err
}

// Exec runs a script's commands one complete command at a time: each is
// parsed, dispatched, and finished before the next is even parsed, so each
// command sees the shell state its predecessors left. The session stays
// open — an interactive shell calls Exec once per line — so no EXIT trap
// fires unless a command exits. A syntax error stops the script with
// status 2, its position counted from the start of src.
func (s *Shell) Exec(src string) (int, error) {
	if s.Ctx != nil {
		// Interpreted commands honor the session deadline too: coreutils
		// compute loops poll it.
		s.Interp.Ctx = s.Ctx
	}
	rest := src
	status := 0
	for rest != "" {
		// A session deadline that expired between commands stops the
		// script; End reports it.
		if s.Ctx != nil && s.Ctx.Err() != nil {
			return 124, s.Ctx.Err()
		}
		csp := s.Tracer.Start(nil, "command")
		psp := csp.Child("parse")
		stmts, n, err := syntax.ParseCommand(rest)
		psp.End()
		if err != nil {
			err = atScriptPos(err, src[:len(src)-len(rest)])
			csp.SetStr("error", err.Error())
			csp.End()
			s.Interp.Status = 2
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
		// The command's span is the parent of every span it triggers. Exec's
		// goroutine writes it between commands; list-region workers copy it
		// with the interpreter after the write, so no lock is needed.
		s.Interp.Tracer = csp
		status, err = s.runStmtsTop(stmts)
		s.Interp.Tracer = nil
		csp.SetInt("status", int64(status))
		csp.End()
		if err != nil {
			return status, err
		}
		// A deadline that expired while the command ran (its compute
		// loops unwound via Interp.Ctx) also stops the script.
		if s.Ctx != nil && s.Ctx.Err() != nil {
			return 124, s.Ctx.Err()
		}
		if s.Interp.Exited {
			break
		}
	}
	return status, nil
}

// End ends the session that Exec left with status and returns the exit
// status. An expired session deadline gives the script's INT/TERM/EXIT
// handlers their last word and reports the timeout convention's 124.
// Otherwise the EXIT trap fires, traced as one more command, unless exit
// already ran it; as in Interp.RunScript, a script that exited keeps
// status, and one that did not leaves with $? after the trap.
func (s *Shell) End(status int) int {
	if s.Ctx != nil && s.Ctx.Err() != nil {
		s.runDeadlineTraps()
		return 124
	}
	if _, ok := s.Interp.Traps["EXIT"]; ok {
		s.Interp.Tracer = s.Tracer.Start(nil, "command").SetStr("text", "trap EXIT")
	}
	s.Interp.RunExitTrap()
	s.Interp.Tracer.End()
	s.Interp.Tracer = nil
	if !s.Interp.Exited {
		status = s.Interp.Status
	}
	return status
}

// atScriptPos moves a syntax error's position, which the parser counts
// from the start of the command it was handed, past done, the part of the
// script already consumed.
func atScriptPos(err error, done string) error {
	var pe *syntax.ParseError
	if !errors.As(err, &pe) {
		return err
	}
	if pe.Position.Line == 1 {
		pe.Position.Col += len(done) - 1 - strings.LastIndexByte(done, '\n')
	}
	pe.Position.Line += strings.Count(done, "\n")
	pe.Position.Offset += len(done)
	return err
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
// Stats or sets a span's outcome, and it computes both views from d alone.
// sp is the span the outcome belongs on (nil when untraced and for a list
// kept in program order). A declined offer — almost every offer of a
// script — costs a counter, no span and no allocation.
func (s *Shell) settle(sp *trace.Span, d Decision) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.Stats.add(&d) {
		d.annotate(sp)
	}
}

// observe is the interposition hook: the interpreter offers every
// pipeline here before running it. `in` is the invoking interpreter —
// possibly a subshell or command-substitution clone — whose state and
// streams this decision must use. It is a straight line — region,
// preflight, plan, run — that fills in one Decision; wherever it returns,
// that record is settled once. A shape refusal (dfg.ErrShape) depends on
// nothing but the statement, s.Lib and s.Mode, none of which a session
// changes, so it is declined for good (interp.Refused) and the statement
// is never offered again.
func (s *Shell) observe(in *interp.Interp, st *syntax.Stmt) (int, bool) {
	// The clock is read for the trace's sake only: an untraced offer costs
	// the region question and nothing else.
	var start time.Time
	if s.Tracer != nil {
		start = time.Now()
	}
	// PaSh is ahead-of-time: it sees the script text, not the shell state,
	// so any word that needs expansion hides the dataflow from it (§3.2:
	// "neither PaSh nor POSH optimize this script"). Jash expands first.
	graph, facts, text, err := s.analyze(in, st, s.Mode == ModePaSh)
	if err != nil {
		s.settle(nil, Decision{})
		if errors.Is(err, dfg.ErrShape) {
			return interp.Refused, false
		}
		return 0, false
	}
	// Only a region analyze accepts gets a span, backdated to the offer so
	// the expand child still covers the analysis.
	root := s.Tracer.StartAt(in.Tracer, "pipeline", start)
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
	switch s.Mode {
	case ModePaSh:
		chosen, dec, err = rewrite.PaShPlan(graph, profile.Cores)
	default:
		chosen, dec, err = rewrite.JashPlan(graph, facts, profile)
	}
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
	// interpreter) buys, surfaced via Stats.Concretized and the trace.
	d.Witnesses = concretizeWitnesses(in, st.AndOr.First)
	d.concretized = len(d.Witnesses)
	d.annotatePlan(psp)
	// Execute the plan for real over the VFS.
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
		StallTimeout: s.StallTimeout,
		Span:         esp,
	}
	ctx := s.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	status, runErr := exec.RunContext(ctx, chosen, env)
	d.Nodes, d.sinkBytes = metrics.Nodes, metrics.SinkBytes
	esp.SetInt("status", int64(status))
	esp.SetInt("sink_bytes", metrics.SinkBytes)
	esp.SetInt("bytes_moved", metrics.TotalBytesMoved())
	esp.SetInt("peak_buffered_bytes", metrics.MaxPeakBuffered())
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
		// the paper's no-regression rule extended to faults. The region
		// former already guaranteed every source is a file that exists
		// (never live stdin), so the re-run reads the same inputs.
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
// invoking interpreter's EarlyExpander, which also checks that every source
// is a file that exists) whether the statement is a dataflow region, then
// adds what only the running shell knows: how big each source is and where
// it lives. aheadOfTime models an AOT optimizer, which has no shell state
// to expand with. The text is printed only for a region it accepts.
func (s *Shell) analyze(in *interp.Interp, st *syntax.Stmt, aheadOfTime bool) (*dfg.Graph, cost.Inputs, string, error) {
	graph, err := dfg.FromStmt(st, s.Lib, in.EarlyExpander(), aheadOfTime)
	if err != nil {
		return nil, cost.Inputs{}, "", err
	}
	dir := in.Dir
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
	return graph, facts, syntax.PrintStmts([]*syntax.Stmt{st}), nil
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
