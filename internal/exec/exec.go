// Package exec runs every pipeline of the shell: every node becomes a
// goroutine, every edge a bounded in-memory pipe, and one node runner
// (runState) wires, contains and tears down both kinds of run. A dataflow
// graph (RunContext) is what the Jash JIT hands optimized plans to, and the
// oracle the tests use to check that rewritten graphs are
// output-equivalent to the original pipelines; its command nodes dispatch
// to the hermetic coreutils. A linear chain of interpreter closures
// (RunStages) is every `|` the JIT did not take. PaSh's runtime
// primitives — split, merge, the sink's journal — appear only in plans.
//
// The executor is a streaming dataflow machine: split nodes chunk their
// input incrementally at line boundaries and forward data as it arrives,
// order-aware merges pull one line at a time per lane, and every edge is a
// fixed-capacity pipe (cost.PipeBufferBytes) that backpressures producers
// which outrun their consumers. No node's resident buffering grows with
// the input; the only materialization left is for genuinely blocking side
// inputs (comm's dictionary, join's second file), which are streamed to
// temporary VFS files. Per-node runtime counters — bytes in/out, peak
// buffered bytes, wall time — are reported through Env.Metrics so
// the trace and the benchmark harness can put measured data movement
// next to the cost model's predictions.
package exec

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"runtime/pprof"

	"jash/internal/coreutils"
	"jash/internal/cost"
	"jash/internal/dfg"
	"jash/internal/exec/faultinject"
	"jash/internal/pipe"
	"jash/internal/spec"
	"jash/internal/trace"
	"jash/internal/vfs"
)

// Env is the execution environment for one run: all of it for a graph, its
// streams and Span for a chain of interpreted stages.
type Env struct {
	FS     *vfs.FS
	Dir    string
	Stdin  io.Reader
	Stdout io.Writer
	Stderr io.Writer
	// Getenv resolves environment variables for command nodes; may be nil.
	Getenv func(string) string
	// Metrics, when non-nil, receives per-node runtime counters (appended
	// in topological order) once the run completes.
	Metrics *RunMetrics
	// Faults, when non-nil, injects deterministic failures and panics
	// into node operations (see internal/exec/faultinject). Tests only;
	// production runs leave it nil.
	Faults *faultinject.Set
	// Lib is ignored: no node is ever re-run, so the executor consults no
	// effect summary.
	//
	// Deprecated: kept only because bench/layers.go sets it; it goes with
	// ROADMAP.md's "The `[benchmark]` PR this round owes".
	Lib *spec.Library
	// StallTimeout, when positive, arms the stall watchdog: a plan whose
	// progress counters stop advancing for this long is aborted,
	// converting hangs into ordinary recoverable plan errors.
	StallTimeout time.Duration
	// Span, when non-nil, is the parent trace span for the run: every
	// node goroutine opens a child span under it carrying its byte
	// counters, peak buffering and blocked time; stalls additionally land
	// as point events. A nil Span (the default) disables all tracing work
	// — including pipe blocked-time clocks and pprof labels — at zero
	// cost.
	Span *trace.Span

	// tmpDir is the per-run scratch directory, set by Run.
	tmpDir string
	// ctx is the run's teardown signal, set by Run: it is done once the
	// plan is torn down, with the first error as its cause. Coreutils
	// contexts carry it to stop compute loops that outlive their pipes.
	ctx context.Context
	// abort tears the plan down with the given cause, set by Run. Node
	// helpers use it for failures that must cancel the whole run (a side
	// input that cannot be materialized), as opposed to ordinary non-zero
	// statuses, which never abort.
	abort context.CancelCauseFunc
	// laneStrict marks a command running inside a split lane. Lane
	// utilities must abort the plan on a line-length violation: the lane's
	// non-zero status is otherwise discarded (only the sink-feeding node's
	// status is observed), so sibling lanes would keep producing output
	// the sequential run never emits. Sequential plans propagate the
	// failing status to the sink naturally and stay abort-free.
	laneStrict bool
}

var tmpSeq atomic.Int64

// errPlanTornDown is the error broken pipes deliver once the plan is
// cancelled: every blocked read and write in the graph fails with it so
// no goroutine outlives the teardown.
var errPlanTornDown = errors.New("plan torn down")

// runState is one run of the node runner, a plan's or an interpreted
// pipeline's: one context whose cause is the first node error (or the
// caller's cancel or deadline, which it inherits), the bounded pipe of
// every edge (r[i] and w[i] are edge i's ends), broken when that context
// ends so no blocked node waits on one that will never drain it, and the
// nodes' goroutines. A nil span leaves the run untraced.
type runState struct {
	ctx    context.Context
	cancel context.CancelCauseFunc
	r      []*pipe.Reader
	w      []*pipe.Writer
	span   *trace.Span
	stop   func() bool
	wg     sync.WaitGroup
}

// startRun wires a run of the given number of edges under ctx; end
// releases it once every node has finished.
func startRun(ctx context.Context, edges int, span *trace.Span) *runState {
	rs := &runState{r: make([]*pipe.Reader, edges), w: make([]*pipe.Writer, edges), span: span}
	rs.ctx, rs.cancel = context.WithCancelCause(ctx)
	for i := range rs.r {
		rs.r[i], rs.w[i] = pipe.New(cost.PipeBufferBytes)
		// Traced runs clock every pipe's blocked time.
		if span != nil {
			rs.r[i].EnableTiming()
		}
	}
	// The caller's cancel or deadline ends rs.ctx by inheritance; what is
	// left is breaking the pipes, handed the cause because this callback
	// can run before the cancellation has reached rs.ctx.
	rs.stop = context.AfterFunc(ctx, func() { rs.abort(context.Cause(ctx)) })
	return rs
}

func (rs *runState) end() {
	rs.stop()
	rs.cancel(nil)
}

// abort tears the run down with err as the cause; the first cause wins.
// The pipes are broken before abort returns, so a node that aborts and
// then closes its outputs cannot hand its consumers a clean EOF.
func (rs *runState) abort(err error) {
	rs.cancel(err)
	for _, p := range rs.r {
		p.Break(errPlanTornDown)
	}
}

func (rs *runState) isAborted() bool { return rs.ctx.Err() != nil }

// result is the run's status and error, the cause of its teardown if one
// happened: a torn-down run never reports success, whichever node faulted.
func (rs *runState) result(status int) (int, error) {
	err := context.Cause(rs.ctx)
	if err != nil && status == 0 {
		status = 1
	}
	return status, err
}

// NodePanic is the cause a run is torn down with when one of its nodes
// panics. Value is what the node panicked with, so that the caller of an
// interpreted pipeline can raise it again.
type NodePanic struct {
	ID    int
	Label string
	Value any
}

func (p *NodePanic) Error() string {
	return fmt.Sprintf("node %d (%s): panic: %v", p.ID, p.Label, p.Value)
}

// node is everything a run learns about one of its nodes, so the
// watchdog, the metrics and the status all read the same place: its
// counters, its record (identity from the start, measurements once its
// goroutine finishes), and its exit status, read once the run's WaitGroup
// has settled. in and out index the edges it reads and writes, in port
// order. Every node runs once: its first fault tears the whole run down,
// and recovery is the caller's.
type node struct {
	ctr     nodeCounters
	m       NodeMetrics
	status  int
	in, out []int
}

// goNode runs body as node nd on a goroutine of its own. It is the one
// place a node of either kind ends: a panic is contained and tears the run
// down before the node closes its pipe ends, so no consumer sees a clean
// EOF from a node that crashed; then its inputs hang up, its outputs
// close, and its record is completed — the one place its bytes, peak
// buffering, blocked time and wall are read; its span and Env.Metrics are
// both copies of it. Under a span the node is labelled for CPU profiles,
// so a pprof flamegraph attributes samples per node.
func (rs *runState) goNode(nd *node, body func() int) {
	rs.wg.Add(1)
	go func() {
		defer rs.wg.Done()
		start := time.Now()
		var ns *trace.Span
		if rs.span != nil {
			ns = rs.span.Child("node:" + nd.m.Label)
		}
		defer func() {
			nm := &nd.m
			nm.BytesIn, nm.BytesOut, nm.Wall = nd.ctr.in.Load(), nd.ctr.out.Load(), time.Since(start)
			for _, i := range nd.in {
				rs.r[i].Close()
				r, _ := rs.r[i].BlockedTimes()
				nm.BlockedRead += r
			}
			for _, i := range nd.out {
				rs.w[i].Close()
				_, w := rs.r[i].BlockedTimes()
				nm.PeakBufferedBytes += int64(rs.r[i].PeakBuffered())
				nm.BlockedWrite += w
			}
			nm.annotate(ns)
		}()
		defer func() {
			if r := recover(); r != nil {
				nd.status = 2
				rs.abort(&NodePanic{ID: nd.m.ID, Label: nd.m.Label, Value: r})
			}
		}()
		if ns == nil {
			nd.status = body()
			return
		}
		pprof.Do(rs.ctx, pprof.Labels("jash_node", nd.m.Label), func(context.Context) { nd.status = body() })
	}()
}

// checkFault consults the fault-injection harness (a nil set injects
// nothing). Stalled operations block until the plan tears down, so an
// aborted run always unblocks them.
func (rs *runState) checkFault(set *faultinject.Set, label string, op faultinject.Op) error {
	if set == nil {
		return nil
	}
	return set.CheckRelease(label, op, rs.ctx.Done())
}

// gatedWriter suppresses node diagnostics once the plan is torn down:
// after the first failure every other node fails collaterally (broken
// pipes), and their cascade of secondary messages would bury the real
// diagnostic — the error Run returns.
type gatedWriter struct {
	rs *runState
	w  io.Writer
}

func (gw *gatedWriter) Write(p []byte) (int, error) {
	if gw.rs.isAborted() {
		return len(p), nil
	}
	return gw.w.Write(p)
}

// faultReader interposes the fault-injection harness on a node's reads;
// an injected error tears the plan down at once (panics unwind to the
// node's containment handler instead).
type faultReader struct {
	r     io.Reader
	rs    *runState
	set   *faultinject.Set
	label string
}

func (f *faultReader) Read(p []byte) (int, error) {
	if err := f.rs.checkFault(f.set, f.label, faultinject.OpRead); err != nil {
		f.rs.abort(err)
		return 0, err
	}
	return f.r.Read(p)
}

// faultWriter is faultReader's write-side twin.
type faultWriter struct {
	w     io.Writer
	rs    *runState
	set   *faultinject.Set
	label string
}

func (f *faultWriter) Write(p []byte) (int, error) {
	if err := f.rs.checkFault(f.set, f.label, faultinject.OpWrite); err != nil {
		f.rs.abort(err)
		return 0, err
	}
	return f.w.Write(p)
}

// ErrStalled is the failure the stall watchdog delivers when a plan's
// progress counters stop advancing for Env.StallTimeout: a hang becomes
// an ordinary plan error the caller can recover from (fall back to the
// interpreter) instead of a wedged shell.
var ErrStalled = errors.New("plan stalled")

// journalTailMax bounds the withheld partial line; output with no
// newlines at all degrades to unaligned journaling rather than growing
// the holdback without bound.
const journalTailMax = 16 << 20

// journalWriter commits sink output at line granularity: complete lines
// pass through immediately, a partial trailing line is withheld until
// its newline (or EOF, via flush) arrives. The byte counter downstream
// of it therefore records a line-aligned committed offset — the journal
// a mid-stream interpreter fallback replays against, skipping exactly
// the committed prefix.
type journalWriter struct {
	w    io.Writer
	tail []byte
}

func (j *journalWriter) Write(p []byte) (int, error) {
	total := len(p)
	nl := bytes.LastIndexByte(p, '\n')
	if nl < 0 {
		j.tail = append(j.tail, p...)
		if len(j.tail) > journalTailMax {
			if err := j.flush(); err != nil {
				return 0, err
			}
		}
		return total, nil
	}
	if len(j.tail) > 0 {
		j.tail = append(j.tail, p[:nl+1]...)
		if err := j.flush(); err != nil {
			return 0, err
		}
	} else if _, err := j.w.Write(p[:nl+1]); err != nil {
		return 0, err
	}
	j.tail = append(j.tail, p[nl+1:]...)
	return total, nil
}

// flush commits the withheld tail (the final partial line at EOF).
func (j *journalWriter) flush() error {
	if len(j.tail) == 0 {
		return nil
	}
	_, err := j.w.Write(j.tail)
	j.tail = j.tail[:0]
	return err
}

// Run executes the graph and returns the POSIX-style exit status: the
// status of the final command stage (the node feeding the sink), like a
// shell pipeline's. Temporary materializations live in a per-run
// directory under /.jash-tmp and are removed before returning.
func Run(g *dfg.Graph, env *Env) (int, error) {
	return RunContext(context.Background(), g, env)
}

// RunContext executes the graph under a cancellation context. The run is
// fault-tolerant end to end:
//
//   - the first node error — a source that fails to open, an injected
//     fault, a ctx cancel or deadline — tears the whole plan down by
//     breaking every bounded pipe, so every blocked read and write
//     unblocks promptly and no goroutine leaks;
//   - a panic in any node goroutine is contained and converted into a
//     node error (the shell must survive a crashing utility);
//   - every node runs once: nothing is retried in place, and a torn-down
//     plan never reports status 0;
//   - with Env.StallTimeout > 0, a watchdog aborts the plan when its
//     progress counters stop advancing, turning hangs into recoverable
//     errors (ErrStalled);
//   - RunMetrics.SinkBytes reports the line-aligned committed output
//     offset (the sink journals through journalWriter), so the caller
//     can tell a failure that pre-empted all output (safe to re-run
//     elsewhere, e.g. through the interpreter) from one whose partial
//     output a journal-aware fallback must skip.
func RunContext(ctx context.Context, g *dfg.Graph, env *Env) (int, error) {
	if err := g.Validate(); err != nil {
		return 2, err
	}
	order, err := g.TopoSort()
	if err != nil {
		return 2, err
	}
	// Edge i of the run is g.Edges[i].
	rs := startRun(ctx, len(g.Edges), env.Span)
	defer rs.end()
	runEnv := *env
	metrics := env.Metrics
	runEnv.tmpDir = fmt.Sprintf("/.jash-tmp/run-%d", tmpSeq.Add(1))
	runEnv.ctx = rs.ctx
	runEnv.abort = rs.abort
	if env.Faults != nil {
		// Stalled (ModeStall) fault operations block until the plan tears
		// down; pointing the release channel at the run's context
		// guarantees an aborted run always unblocks them.
		env.Faults.Bind(rs.ctx.Done())
	}
	// Node goroutines write Stdout (sink) and Stderr (diagnostics)
	// concurrently; a caller may pass the same writer for both, so route
	// them through one lock. Stderr additionally gates on teardown so
	// collateral failures stay quiet.
	var outMu sync.Mutex
	if runEnv.Stdout != nil {
		runEnv.Stdout = &pipe.LockedWriter{Mu: &outMu, W: runEnv.Stdout}
	}
	if runEnv.Stderr != nil {
		runEnv.Stderr = &gatedWriter{rs: rs, w: &pipe.LockedWriter{Mu: &outMu, W: runEnv.Stderr}}
	}
	env = &runEnv
	defer func() {
		env.FS.RemoveAll(env.tmpDir)
		env.FS.Remove("/.jash-tmp") // succeeds once the last run cleans up
	}()
	// One record per node, indexed by node ID; its in and out index
	// g.Edges, every one of which it reads or writes exactly once.
	edgeIdx := make(map[*dfg.Edge]int, len(g.Edges))
	for i, e := range g.Edges {
		edgeIdx[e] = i
	}
	ends := make([]int, 0, 2*len(g.Edges))
	index := func(es []*dfg.Edge) []int {
		start := len(ends)
		for _, e := range es {
			ends = append(ends, edgeIdx[e])
		}
		return ends[start:len(ends):len(ends)]
	}
	nodes := make([]node, g.MaxID()+1)
	for _, n := range order {
		nd := &nodes[n.ID]
		nd.m = NodeMetrics{ID: n.ID, Kind: n.Kind.String(), Label: n.Label()}
		nd.in, nd.out = index(g.In(n.ID)), index(g.Out(n.ID))
	}
	// Stall watchdog: progress is the sum of every node's byte counters;
	// if it freezes for StallTimeout the plan is aborted. The counters are
	// atomics, so the watchdog samples lock-free.
	if env.StallTimeout > 0 {
		progress := func() int64 {
			var total int64
			for i := range nodes {
				total += nodes[i].ctr.in.Load() + nodes[i].ctr.out.Load()
			}
			return total
		}
		go func() {
			poll := env.StallTimeout / cost.StallPollDivisor
			if poll <= 0 {
				poll = env.StallTimeout
			}
			ticker := time.NewTicker(poll)
			defer ticker.Stop()
			last, lastMove := progress(), time.Now()
			for {
				select {
				case <-rs.ctx.Done(): // torn down, or the run returned
					return
				case <-ticker.C:
					if cur := progress(); cur != last {
						last, lastMove = cur, time.Now()
					} else if time.Since(lastMove) >= env.StallTimeout {
						env.Span.EventStr("stall", "timeout", env.StallTimeout.String())
						rs.abort(fmt.Errorf("%w: no progress for %v", ErrStalled, env.StallTimeout))
						return
					}
				}
			}
		}()
	}
	// lane marks every node downstream of a split (order is topological, so
	// one pass reaches them all): commands there run lane-strict (see
	// Env.laneStrict) so a line-limit violation tears the plan down instead
	// of vanishing with the lane's discarded status.
	lane := make([]bool, len(nodes))
	for _, n := range order {
		if n.Kind == dfg.KindSplit || lane[n.ID] {
			for _, e := range g.Out(n.ID) {
				lane[e.To] = true
			}
		}
	}
	for _, n := range order {
		nd := &nodes[n.ID]
		rs.goNode(nd, func() int { return rs.planNode(g, n, nd, env, lane[n.ID]) })
	}
	rs.wg.Wait()
	sink := g.Sink()
	if metrics != nil {
		for _, n := range order {
			metrics.Nodes = append(metrics.Nodes, nodes[n.ID].m)
		}
		if sink != nil {
			metrics.SinkBytes = nodes[sink.ID].ctr.out.Load()
		}
	}
	// Pipeline status: the node feeding the sink. A parallelized final
	// stage feeds the sink through a merge/agg relay whose own status is
	// meaningless — resolve through relays to the command lanes they
	// recombine and surface the first failing lane, exactly as the
	// sequential command those lanes replicate would have failed. (Found
	// by the differential fuzzer: a failing parallelized stage reported
	// exit 0 and flipped `&&` control flow.)
	var effectiveStatus func(id int, seen map[int]bool) int
	effectiveStatus = func(id int, seen map[int]bool) int {
		if seen[id] {
			return 0
		}
		seen[id] = true
		// Relay nodes (merge, split) run as nodes too and record
		// their own — vacuously zero — status; the lanes they
		// recombine carry the real one, so resolve through them first.
		// Lane statuses combine by the sequential command's semantics: a
		// status ≥2 is a hard error any sequential run would have hit, so
		// it propagates; status 1 is per-chunk (grep's "no match here")
		// and only stands when every lane reports non-zero.
		if n := g.Nodes[id]; n != nil {
			switch n.Kind {
			case dfg.KindMerge, dfg.KindSplit:
				in := g.In(id)
				soft := len(in) > 0
				for _, e := range in {
					st := effectiveStatus(e.From, seen)
					if st >= 2 {
						return st
					}
					if st == 0 {
						soft = false
					}
				}
				if soft {
					return 1
				}
				return 0
			}
		}
		return nodes[id].status
	}
	final := 0
	if sink != nil {
		in := g.In(sink.ID)
		if len(in) == 1 {
			final = effectiveStatus(in[0].From, map[int]bool{})
		}
	}
	return rs.result(final)
}

// planNode is the body of one node of a plan. Its edges carry the byte
// counters the watchdog, the sink's journal and the metrics read, behind
// the fault-injection wrappers when chaos is armed. Its diagnostics are
// held until it ends and released through the teardown gate: a torn-down
// plan says nothing, so the fallback's own diagnostics are not doubled.
func (rs *runState) planNode(g *dfg.Graph, n *dfg.Node, nd *node, env *Env, lane bool) int {
	label, ctr := nd.m.Label, &nd.ctr
	ins := make([]io.Reader, len(nd.in))
	for i, e := range nd.in {
		var r io.Reader = rs.r[e]
		if env.Faults != nil {
			r = &faultReader{r: r, rs: rs, set: env.Faults, label: label}
		}
		ins[i] = &countingReader{r, &ctr.in}
	}
	outs := make([]io.Writer, len(nd.out))
	for i, e := range nd.out {
		var w io.Writer = rs.w[e]
		if env.Faults != nil {
			w = &faultWriter{w: w, rs: rs, set: env.Faults, label: label}
		}
		outs[i] = &countingWriter{w, &ctr.out}
	}
	var errBuf bytes.Buffer
	nodeEnv := *env
	nodeEnv.Stderr = &errBuf
	nodeEnv.laneStrict = lane
	status := rs.runKind(g, n, nd, &nodeEnv, ins, outs)
	if errBuf.Len() > 0 && env.Stderr != nil {
		env.Stderr.Write(errBuf.Bytes())
	}
	return status
}

// runKind does a plan node's work, by its kind, over its wrapped edges.
func (rs *runState) runKind(g *dfg.Graph, n *dfg.Node, nd *node, env *Env, inReaders []io.Reader, outWriters []io.Writer) int {
	label, ctr := nd.m.Label, &nd.ctr
	switch n.Kind {
	case dfg.KindSource:
		var src io.Reader
		if n.Path == "" {
			src = env.Stdin
			if src == nil {
				src = strings.NewReader("")
			}
		} else {
			if err := rs.checkFault(env.Faults, label, faultinject.OpOpen); err != nil {
				rs.abort(err)
				return 1
			}
			rc, err := env.FS.Open(lookup(env.Dir, n.Path))
			if err != nil {
				rs.abort(err)
				return 1
			}
			defer rc.Close()
			src = rc
		}
		if env.Faults != nil {
			src = &faultReader{r: src, rs: rs, set: env.Faults, label: label}
		}
		// A failed read is the source's fault; a failed write
		// is a consumer that stopped reading (head, grep -q),
		// which is how a stream may end.
		status, err := coreutils.Cat(outWriters[0], &countingReader{src, &ctr.in})
		if err != nil {
			rs.abort(err)
			return 1
		}
		return status
	case dfg.KindSink:
		var dst io.Writer = env.Stdout
		if dst == nil {
			dst = io.Discard
		}
		var fileOut io.WriteCloser
		if n.Path != "" {
			if err := rs.checkFault(env.Faults, label, faultinject.OpOpen); err != nil {
				rs.abort(err)
				return 1
			}
			w, err := openSink(env, n)
			if err != nil {
				rs.abort(err)
				return 1
			}
			fileOut = w
			dst = w
		}
		var cerr error
		copied := false
		if fileOut != nil {
			// Commit in a defer: the journaled fallback replays
			// against the counted offset, so every counted byte
			// must be durably in the file even when a fault
			// panics the copy mid-stream — panic containment
			// lives above this frame, and a plain Close after
			// the copy would be skipped on unwind, stranding
			// the journal. When the sink fails before the
			// first committed byte, leave the destination
			// untouched (a vfs fileWriter commits only on
			// Close), so a fallback re-run starts from
			// pristine state.
			defer func() {
				failed := !copied || cerr != nil
				if failed && ctr.out.Load() == 0 {
					return
				}
				// Commit — on failure, exactly the journaled
				// line-aligned prefix, which SinkBytes reports.
				fileOut.Close()
			}()
		}
		if env.Faults != nil {
			dst = &faultWriter{w: dst, rs: rs, set: env.Faults, label: label}
		}
		// Journal the committed output at line granularity: the
		// counter below the journal records the line-aligned
		// offset a mid-stream fallback replays against.
		jw := &journalWriter{w: &countingWriter{dst, &ctr.out}}
		_, cerr = io.Copy(jw, inReaders[0])
		if cerr == nil {
			cerr = jw.flush()
		}
		copied = true
		return 0
	case dfg.KindSplit:
		closers := make([]func(), len(nd.out))
		for i, e := range nd.out {
			w := rs.w[e]
			closers[i] = func() { w.Close() }
		}
		return runSplit(n, inReaders[0], outWriters, closers, splitLaneTarget(g, n, env))
	case dfg.KindMerge:
		return runMerge(n, inReaders, outWriters[0], env)
	case dfg.KindCommand:
		return runCommand(n, inReaders, outWriters[0], env)
	}
	return 0
}

// Stage is one stage of an interpreted pipeline: Run reads stdin, writes
// stdout and stderr, and returns the stage's exit status. Label names the
// stage's node span.
type Stage struct {
	Label string
	Run   func(stdin io.Reader, stdout, stderr io.Writer) int
}

// RunStages runs an interpreted pipeline on the node runner as a linear
// chain: the first stage reads env.Stdin, the last writes env.Stdout, all
// write env.Stderr as they go (one lock serializes the two), and the
// status is the last stage's. A stage is not effect-proven, so its node
// gets none of a plan's scaffolding — no fault injection, journal, held
// stderr, watchdog or temporary directory, and byte counters only under
// env.Span — but it ends as a plan's node does: when ctx ends or a stage
// panics, every edge breaks before any closes, and the error is ctx's
// cause or a *NodePanic.
func RunStages(ctx context.Context, stages []Stage, env *Env) (int, error) {
	n := len(stages)
	rs := startRun(ctx, n-1, env.Span)
	defer rs.end()
	var mu sync.Mutex
	stdout := &pipe.LockedWriter{Mu: &mu, W: env.Stdout}
	stderr := &pipe.LockedWriter{Mu: &mu, W: env.Stderr}
	nodes := make([]node, n)
	// edges[i] is i: a stage's in and out are one-edge windows on it.
	edges := make([]int, n)
	for i, st := range stages {
		edges[i] = i
		nd := &nodes[i]
		nd.m = NodeMetrics{ID: i + 1, Kind: "stage", Label: st.Label}
		var in io.Reader = env.Stdin
		var out io.Writer = stdout
		if i > 0 {
			nd.in, in = edges[i-1:i], rs.r[i-1]
		}
		if i < n-1 {
			nd.out, out = edges[i:i+1], rs.w[i]
		}
		if rs.span != nil {
			in, out = &countingReader{in, &nd.ctr.in}, &countingWriter{out, &nd.ctr.out}
		}
		rs.goNode(nd, func() int { return st.Run(in, out, stderr) })
	}
	rs.wg.Wait()
	return rs.result(nodes[n-1].status)
}

// openSink opens a file sink's destination per its append mode.
func openSink(env *Env, n *dfg.Node) (io.WriteCloser, error) {
	if n.Append {
		return env.FS.Append(lookup(env.Dir, n.Path))
	}
	return env.FS.Create(lookup(env.Dir, n.Path))
}

func lookup(dir, p string) string {
	if strings.HasPrefix(p, "/") {
		return p
	}
	if dir == "" {
		dir = "/"
	}
	return strings.TrimSuffix(dir, "/") + "/" + p
}

// splitLaneTarget picks the per-lane byte quota for a consecutive split.
// The rewriter always places the splitter directly after a source node, so
// the streaming splitter can size lanes by stat'ing the source; when the
// volume is unknown (terminal stdin) it falls back to a fixed quota and
// the last lane takes the remainder.
func splitLaneTarget(g *dfg.Graph, n *dfg.Node, env *Env) int64 {
	width := int64(n.Width)
	if width < 1 {
		width = 1
	}
	ins := g.In(n.ID)
	if len(ins) == 1 {
		if up := g.Nodes[ins[0].From]; up != nil && up.Kind == dfg.KindSource && up.Path != "" {
			if fi, err := env.FS.Stat(lookup(env.Dir, up.Path)); err == nil {
				t := (fi.Size + width - 1) / width
				if t < 1 {
					t = 1
				}
				return t
			}
		}
	}
	return cost.SplitLaneFallbackBytes
}

// splitLane tracks one output lane of a streaming split. Lines accumulate
// into a pooled block that is handed to the lane's pipe wholesale
// (ownership transfer, no copy: a plan edge's counting writer takes
// blocks, and copies them itself when what it wraps does not).
type splitLane struct {
	w     pipe.OwnedWriter
	blk   []byte // pooled accumulation block
	close func()
}

// write batches p into the lane's block, flushing full blocks downstream.
func (l *splitLane) write(p []byte) error {
	for len(p) > 0 {
		if free := cap(l.blk) - len(l.blk); free >= len(p) {
			l.blk = append(l.blk, p...)
			return nil
		} else {
			l.blk = append(l.blk, p[:free]...)
			p = p[free:]
			if err := l.flush(); err != nil {
				return err
			}
		}
	}
	return nil
}

// flush hands the accumulated block downstream and takes a fresh pooled
// one.
func (l *splitLane) flush() error {
	if len(l.blk) == 0 {
		return nil
	}
	blk := l.blk
	l.blk = pipe.GetBlock()
	_, err := l.w.WriteOwned(blk)
	return err
}

// release returns the lane's accumulation block to the pool.
func (l *splitLane) release() {
	pipe.PutBlock(l.blk)
	l.blk = nil
}

// runSplit cuts the input into line-aligned chunks and forwards them to
// the lanes as they are read — the input is never materialized. Under the
// consecutive discipline a lane's writer is closed as soon as the splitter
// advances past it, so its downstream stages see EOF (and can flush toward
// the merge) while later lanes are still filling; that hand-off keeps
// split + order-aware merge live under bounded buffering. The round-robin
// discipline rotates lanes per line and closes nothing early, which only
// order-insensitive (sum) merges may consume. Every lane writer takes
// block ownership (pipe.OwnedWriter). A lane whose reader has gone
// ends the split, as a failed write ends any stage: a lane's command never
// stops reading early by design (spec demotes the ones that do), so it
// stopped because it failed, where the sequential command would have
// stopped too, or because the merge's own reader has gone.
func runSplit(n *dfg.Node, in io.Reader, outs []io.Writer, closeLane []func(), laneTarget int64) int {
	br := bufio.NewReaderSize(in, cost.SplitChunkBytes)
	lanes := make([]*splitLane, len(outs))
	for i := range outs {
		lanes[i] = &splitLane{w: outs[i].(pipe.OwnedWriter), blk: pipe.GetBlock(), close: closeLane[i]}
	}
	defer func() {
		for _, l := range lanes {
			l.release()
		}
	}()
	lane, last := 0, len(outs)-1
	var laneBytes int64
	for {
		chunk, err := br.ReadSlice('\n')
		if len(chunk) > 0 {
			l := lanes[lane]
			if l.write(chunk) != nil {
				return coreutils.StatusBrokenPipe
			}
			laneBytes += int64(len(chunk))
			// Lane switches happen only at line boundaries: a fragment cut
			// short by a full read buffer stays on the current lane.
			if chunk[len(chunk)-1] == '\n' {
				if n.Dist == dfg.DistRoundRobin {
					lane = (lane + 1) % len(outs)
					laneBytes = 0
				} else if lane < last && laneBytes >= laneTarget {
					if l.flush() != nil {
						return coreutils.StatusBrokenPipe
					}
					l.close()
					lane++
					laneBytes = 0
				}
			}
		}
		switch err {
		case nil, bufio.ErrBufferFull:
		case io.EOF:
			for _, l := range lanes {
				if l.flush() != nil {
					return coreutils.StatusBrokenPipe
				}
			}
			return 0
		default:
			return 1
		}
	}
}

// runMerge recombines lane outputs per the aggregation discipline, pulling
// from the lane streams incrementally — lane outputs are never
// materialized.
func runMerge(n *dfg.Node, ins []io.Reader, out io.Writer, env *Env) int {
	switch n.Agg {
	case spec.AggConcat:
		// A lane's read fails only once the run is torn down, when no
		// status is read; a failed write is the merge's reader gone.
		for _, r := range ins {
			if _, err := io.Copy(out, r); err != nil {
				return coreutils.StatusBrokenPipe
			}
		}
		return 0
	case spec.AggMergeSort:
		// Order-aware k-way merge (sort -m) directly over the lane streams.
		return coreutils.MergeSortedStreams(utilContext(env, strings.NewReader(""), out), n.Argv, ins)
	case spec.AggSum:
		return sumStreams(ins, out, env)
	}
	return 1
}

// sumStreams sums whitespace-separated numeric columns across lane
// streams, scanning each lane line by line. A non-numeric field means the
// lanes did not produce the bare numeric rows this aggregation was planned
// for; silently skipping it would commit an answer the sequential
// interpreter would never produce. Abort the plan instead — no sink byte
// has escaped yet, so the caller falls back to the interpreter and the two
// paths agree by construction.
func sumStreams(ins []io.Reader, out io.Writer, env *Env) int {
	var sums []int64
	buf := pipe.GetBlock() // one block for every lane's scanner in turn
	defer pipe.PutBlock(buf)
	for _, r := range ins {
		sc := bufio.NewScanner(r)
		sc.Buffer(buf, 16<<20)
		for sc.Scan() {
			for i, f := range strings.Fields(sc.Text()) {
				v, err := strconv.ParseInt(f, 10, 64)
				if err != nil {
					if env.abort != nil {
						env.abort(fmt.Errorf("sum merge: non-numeric field %q in lane output", f))
					}
					return 1
				}
				for len(sums) <= i {
					sums = append(sums, 0)
				}
				sums[i] += v
			}
		}
		if sc.Err() != nil {
			return 1
		}
	}
	parts := make([]string, len(sums))
	for i, s := range sums {
		parts[i] = strconv.FormatInt(s, 10)
	}
	if _, err := fmt.Fprintln(out, strings.Join(parts, " ")); err != nil {
		return coreutils.StatusBrokenPipe
	}
	return 0
}

// runCommand executes a command node. Single-input nodes stream via
// stdin. Multi-input nodes stream the port the translator marked as
// primary (its operand becomes "-" on the rebuilt argv) and materialize
// the genuinely blocking side ports to temporary files with streaming
// copies, appending operands in port order.
func runCommand(n *dfg.Node, ins []io.Reader, out io.Writer, env *Env) int {
	if len(ins) <= 1 {
		var stdin io.Reader = strings.NewReader("")
		if len(ins) == 1 {
			stdin = ins[0]
		}
		return dispatch(n.Argv, stdin, out, env)
	}
	var stdin io.Reader = strings.NewReader("")
	operands := make([]string, len(ins))
	var tmps []string
	defer func() {
		for _, p := range tmps {
			env.FS.Remove(p)
		}
	}()
	for i, r := range ins {
		if i < len(n.StreamPorts) && n.StreamPorts[i] {
			stdin = r
			operands[i] = "-"
			continue
		}
		p := fmt.Sprintf("%s/port-%d-%d", env.tmpDir, tmpSeq.Add(1), i)
		if err := materialize(env, p, r); err != nil {
			// A side input that cannot be staged is a plan failure, not an
			// ordinary non-zero status: tear the run down.
			if env.abort != nil {
				env.abort(fmt.Errorf("%s: side input: %w", n.Label(), err))
			}
			return 1
		}
		tmps = append(tmps, p)
		operands[i] = p
	}
	argv := append(append([]string(nil), n.Argv...), operands...)
	return dispatch(argv, stdin, out, env)
}

// materialize streams r into a fresh file without whole-input buffering in
// the executor.
func materialize(env *Env, path string, r io.Reader) error {
	w, err := env.FS.Create(path)
	if err != nil {
		return err
	}
	if _, err := io.Copy(w, r); err != nil {
		w.Close()
		return err
	}
	return w.Close()
}

func dispatch(argv []string, stdin io.Reader, out io.Writer, env *Env) int {
	fn, ok := coreutils.Lookup(argv[0])
	if !ok {
		fmt.Fprintf(errWriter(env), "jash-exec: %s: command not found\n", argv[0])
		return 127
	}
	ctx := utilContext(env, stdin, out)
	if env.laneStrict {
		ctx.Abort = env.abort
	}
	return fn(ctx, argv)
}

// utilContext is the invocation context a plan node hands a utility.
func utilContext(env *Env, stdin io.Reader, out io.Writer) *coreutils.Context {
	return &coreutils.Context{FS: env.FS, Dir: env.Dir, Stdin: stdin, Stdout: out,
		Stderr: errWriter(env), Getenv: env.Getenv, Ctx: env.ctx}
}

func errWriter(env *Env) io.Writer {
	if env.Stderr != nil {
		return env.Stderr
	}
	return io.Discard
}
