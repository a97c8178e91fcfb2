// Package exec runs dataflow graphs for real: every node becomes a
// goroutine, every edge a bounded in-memory pipe, and command nodes
// dispatch to the hermetic coreutils. It is the execution backend the Jash
// JIT hands optimized plans to, and the oracle the tests use to check that
// rewritten graphs are output-equivalent to the original pipelines.
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

// Env is the execution environment for one graph run.
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

// runState is the per-run teardown machinery: one context whose cause is
// the first node error (or the caller's cancel or deadline, which ctx
// inherits), and the pipes to break when it ends, so blocked nodes unwind
// promptly instead of deadlocking against goroutines that will never
// drain them.
type runState struct {
	ctx    context.Context
	cancel context.CancelCauseFunc
	pipes  []*pipe.Reader
}

// abort tears the plan down with err as the cause; the first cause wins.
// The pipes are broken before abort returns, so a node that aborts and
// then closes its outputs cannot hand its consumers a clean EOF.
func (rs *runState) abort(err error) {
	rs.cancel(err)
	for _, p := range rs.pipes {
		p.Break(errPlanTornDown)
	}
}

func (rs *runState) isAborted() bool { return rs.ctx.Err() != nil }

// err is the run's error: the cause of the teardown, nil if none happened.
func (rs *runState) err() error { return context.Cause(rs.ctx) }

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

// nodeSup is everything the run learns about one node. Every node runs
// once: its first fault (injected error, open failure, side-input
// failure, panic) tears the whole plan down, and recovery is the
// caller's journaled fallback.
type nodeSup struct {
	ctr nodeCounters
	// m is the node's record: its identity from the start, the
	// measurements filled in once when the node's goroutine finishes
	// (RunContext's measure).
	m NodeMetrics
	// status is the node's exit status, written by its goroutine and read
	// once the run's WaitGroup has settled.
	status int
}

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
	runEnv := *env
	metrics := env.Metrics
	runEnv.tmpDir = fmt.Sprintf("/.jash-tmp/run-%d", tmpSeq.Add(1))
	// One context carries the teardown: a node failure cancels it with
	// its error as the cause, and the caller's cancel or deadline reaches
	// it by inheritance (the cause is then the caller's, ctx.Err() unless
	// the caller set one).
	rs := &runState{}
	rs.ctx, rs.cancel = context.WithCancelCause(ctx)
	defer rs.cancel(nil)
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
	order, err := g.TopoSort()
	if err != nil {
		return 2, err
	}
	// Build one bounded pipe per edge and register it for teardown.
	type pipeEnds struct {
		r *pipe.Reader
		w *pipe.Writer
	}
	pipes := map[*dfg.Edge]*pipeEnds{}
	for _, e := range g.Edges {
		r, w := pipe.New(cost.PipeBufferBytes)
		pipes[e] = &pipeEnds{r, w}
		rs.pipes = append(rs.pipes, r)
		// Traced runs clock every pipe's blocked time.
		if env.Span != nil {
			r.EnableTiming()
		}
	}
	// The caller's cancel or deadline ends rs.ctx by inheritance; what is
	// left is breaking the pipes. (abort is handed the cause because this
	// callback can run before the cancellation has reached rs.ctx.)
	stop := context.AfterFunc(ctx, func() { rs.abort(context.Cause(ctx)) })
	defer stop()
	// One struct per node holds everything the run learns about it — byte
	// counters, measurements, exit status — so the watchdog, the metrics
	// and the pipeline status all read the same place.
	sups := make(map[int]*nodeSup, len(order))
	for _, n := range order {
		sups[n.ID] = &nodeSup{m: NodeMetrics{ID: n.ID, Kind: n.Kind.String(), Label: n.Label()}}
	}
	// Stall watchdog: progress is the sum of every node's byte counters;
	// if it freezes for StallTimeout the plan is aborted. The map is
	// read-only by now and the counters are atomics, so the watchdog
	// samples lock-free.
	if env.StallTimeout > 0 {
		progress := func() int64 {
			var total int64
			for _, sup := range sups {
				total += sup.ctr.in.Load() + sup.ctr.out.Load()
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
	// measure completes a node's record when its goroutine finishes: the
	// one place its bytes, peak buffering, blocked time and wall are read.
	// The node's span attributes and Env.Metrics are both copies of it.
	measure := func(sup *nodeSup, wall time.Duration) {
		nm := &sup.m
		nm.BytesIn, nm.BytesOut, nm.Wall = sup.ctr.in.Load(), sup.ctr.out.Load(), wall
		for _, e := range g.Out(nm.ID) {
			p := pipes[e].r
			nm.PeakBufferedBytes += int64(p.PeakBuffered())
			_, w := p.BlockedTimes()
			nm.BlockedWrite += w
		}
		for _, e := range g.In(nm.ID) {
			r, _ := pipes[e].r.BlockedTimes()
			nm.BlockedRead += r
		}
	}
	// laneNodes marks every node downstream of a split: commands there run
	// lane-strict (see Env.laneStrict) so a line-limit violation tears the
	// plan down instead of vanishing with the lane's discarded status.
	laneNodes := map[int]bool{}
	{
		queue := []int{}
		for _, n := range order {
			if n.Kind == dfg.KindSplit {
				queue = append(queue, n.ID)
			}
		}
		for len(queue) > 0 {
			id := queue[0]
			queue = queue[1:]
			for _, e := range g.Out(id) {
				if !laneNodes[e.To] {
					laneNodes[e.To] = true
					queue = append(queue, e.To)
				}
			}
		}
	}
	var wg sync.WaitGroup
	for _, n := range order {
		wg.Add(1)
		go func(n *dfg.Node) {
			defer wg.Done()
			start := time.Now()
			sup := sups[n.ID]
			ctr := &sup.ctr
			label := sup.m.Label
			// Per-node trace span, closed with the node's metrics attached.
			ns := env.Span.Child("node:" + label)
			defer func() {
				measure(sup, time.Since(start))
				sup.m.annotate(ns)
			}()
			runNode := func() {
				ins := g.In(n.ID)
				outs := g.Out(n.ID)
				inReaders := make([]io.Reader, len(ins))
				for i, e := range ins {
					var r io.Reader = pipes[e].r
					if env.Faults != nil {
						r = &faultReader{r: r, rs: rs, set: env.Faults, label: label}
					}
					inReaders[i] = &countingReader{r, &ctr.in}
				}
				outWriters := make([]io.Writer, len(outs))
				for i, e := range outs {
					var w io.Writer = pipes[e].w
					if env.Faults != nil {
						w = &faultWriter{w: w, rs: rs, set: env.Faults, label: label}
					}
					outWriters[i] = &countingWriter{w, &ctr.out}
				}
				closeOuts := func() {
					for _, e := range outs {
						pipes[e].w.Close()
					}
				}
				closeIns := func() {
					for _, e := range ins {
						pipes[e].r.Close()
					}
				}
				defer closeOuts()
				defer closeIns()
				// Panic containment: the shell must survive a crashing
				// utility. Deferred after the closes so it runs before them —
				// the abort breaks every pipe first, and no consumer sees a
				// clean EOF from a node that crashed.
				defer func() {
					if r := recover(); r != nil {
						sup.status = 2
						rs.abort(fmt.Errorf("node %d (%s): panic: %v", n.ID, label, r))
					}
				}()
				// The node's diagnostics are held until it ends and released
				// through the teardown gate: a torn-down plan says nothing, so
				// the fallback's own diagnostics are not doubled.
				var errBuf bytes.Buffer
				nodeEnv := *env
				nodeEnv.Stderr = &errBuf
				body := func(env *Env) int {
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
						rd := &readErrReader{r: src}
						io.Copy(outWriters[0], &countingReader{rd, &ctr.in})
						if rd.err != nil {
							rs.abort(rd.err)
							return 1
						}
						return 0
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
						closers := make([]func(), len(outs))
						for i, e := range outs {
							w := pipes[e].w
							closers[i] = func() { w.Close() }
						}
						return runSplit(n, inReaders[0], outWriters, closers, splitLaneTarget(g, n, env))
					case dfg.KindMerge:
						return runMerge(n, inReaders, outWriters[0], env)
					case dfg.KindCommand:
						cmdEnv := env
						if laneNodes[n.ID] {
							le := *env
							le.laneStrict = true
							cmdEnv = &le
						}
						return runCommand(n, inReaders, outWriters[0], cmdEnv)
					}
					return 0
				}
				sup.status = body(&nodeEnv)
				if errBuf.Len() > 0 && env.Stderr != nil {
					env.Stderr.Write(errBuf.Bytes())
				}
			}
			if ns != nil {
				// Traced runs label the node's goroutine for CPU profiles,
				// so a pprof flamegraph attributes samples per plan node.
				pprof.Do(ctx, pprof.Labels("jash_node", label), func(context.Context) { runNode() })
			} else {
				runNode()
			}
		}(n)
	}
	wg.Wait()
	sink := g.Sink()
	if metrics != nil {
		for _, n := range order {
			metrics.Nodes = append(metrics.Nodes, sups[n.ID].m)
		}
		if sink != nil {
			metrics.SinkBytes = sups[sink.ID].ctr.out.Load()
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
		return sups[id].status
	}
	final := 0
	if sink != nil {
		in := g.In(sink.ID)
		if len(in) == 1 {
			final = effectiveStatus(in[0].From, map[int]bool{})
		}
	}
	// A torn-down plan never reports success, whichever node faulted.
	err = rs.err()
	if err != nil && final == 0 {
		final = 1
	}
	return final, err
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
// (ownership transfer, no copy) when the writer supports it.
type splitLane struct {
	w     io.Writer
	ow    pipe.OwnedWriter // non-nil when w accepts block ownership
	blk   []byte           // pooled accumulation block
	close func()
	dead  bool
}

func newSplitLane(w io.Writer, closeLane func()) *splitLane {
	l := &splitLane{w: w, blk: pipe.GetBlock(), close: closeLane}
	if ow, ok := w.(pipe.OwnedWriter); ok {
		l.ow = ow
	}
	return l
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

// flush pushes the accumulated block downstream. On the ownership path
// the block is handed off and replaced with a fresh pooled one.
func (l *splitLane) flush() error {
	if len(l.blk) == 0 {
		return nil
	}
	if l.ow != nil {
		blk := l.blk
		l.blk = pipe.GetBlock()
		_, err := l.ow.WriteOwned(blk)
		return err
	}
	_, err := l.w.Write(l.blk)
	l.blk = l.blk[:0]
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
// order-insensitive (sum) merges may consume. Lanes whose consumer hung up
// are skipped rather than aborting the whole split.
func runSplit(n *dfg.Node, in io.Reader, outs []io.Writer, closeLane []func(), laneTarget int64) int {
	br := bufio.NewReaderSize(in, cost.SplitChunkBytes)
	lanes := make([]*splitLane, len(outs))
	for i := range outs {
		lanes[i] = newSplitLane(outs[i], closeLane[i])
	}
	defer func() {
		for _, l := range lanes {
			l.release()
		}
	}()
	lane, last := 0, len(outs)-1
	deadCount := 0
	var laneBytes int64
	for {
		chunk, err := br.ReadSlice('\n')
		if len(chunk) > 0 {
			l := lanes[lane]
			if !l.dead {
				if werr := l.write(chunk); werr != nil {
					l.dead = true
					deadCount++
					if deadCount == len(outs) {
						return 0 // every consumer hung up
					}
				}
			}
			laneBytes += int64(len(chunk))
			// Lane switches happen only at line boundaries: a fragment cut
			// short by a full read buffer stays on the current lane.
			if chunk[len(chunk)-1] == '\n' {
				if n.Dist == dfg.DistRoundRobin {
					lane = (lane + 1) % len(outs)
					laneBytes = 0
				} else if lane < last && laneBytes >= laneTarget {
					if !l.dead {
						l.flush()
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
				if !l.dead {
					l.flush()
				}
			}
			return 0
		default:
			return 1
		}
	}
}

// splitLines divides data into n consecutive chunks on line boundaries,
// sized as evenly as the lines allow. It is the reference specification of
// the consecutive chunking the streaming splitter performs incrementally,
// kept for the property tests.
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

// runMerge recombines lane outputs per the aggregation discipline, pulling
// from the lane streams incrementally — lane outputs are never
// materialized.
func runMerge(n *dfg.Node, ins []io.Reader, out io.Writer, env *Env) int {
	switch n.Agg {
	case spec.AggConcat:
		for _, r := range ins {
			if _, err := io.Copy(out, r); err != nil {
				return 1
			}
		}
		return 0
	case spec.AggMergeSort:
		// Order-aware k-way merge (sort -m) directly over the lane streams.
		ctx := &coreutils.Context{
			FS:     env.FS,
			Dir:    env.Dir,
			Stdin:  strings.NewReader(""),
			Stdout: out,
			Stderr: errWriter(env),
			Getenv: env.Getenv,
			Ctx:    env.ctx,
		}
		return coreutils.MergeSortedStreams(ctx, n.Argv, ins)
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
	for _, r := range ins {
		sc := bufio.NewScanner(r)
		sc.Buffer(make([]byte, pipe.BlockSize), 16<<20)
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
	fmt.Fprintln(out, strings.Join(parts, " "))
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
	ctx := &coreutils.Context{
		FS:     env.FS,
		Dir:    env.Dir,
		Stdin:  stdin,
		Stdout: out,
		Stderr: errWriter(env),
		Getenv: env.Getenv,
		Ctx:    env.ctx,
	}
	if env.laneStrict {
		ctx.Abort = env.abort
	}
	return fn(ctx, argv)
}

func errWriter(env *Env) io.Writer {
	if env.Stderr != nil {
		return env.Stderr
	}
	return io.Discard
}
