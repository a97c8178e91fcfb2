package exec

import (
	"io"
	"sync/atomic"
	"time"

	"jash/internal/pipe"
	"jash/internal/trace"
)

// NodeMetrics are the measured runtime counters of one graph node: the
// ground truth the trace's node spans and the benchmark harness put next
// to the cost model's predictions.
type NodeMetrics struct {
	ID    int
	Kind  string
	Label string
	// BytesIn / BytesOut count the bytes the node consumed from its
	// input edges and produced onto its output edges (for sinks, the
	// bytes written to the final destination).
	BytesIn  int64
	BytesOut int64
	// PeakBufferedBytes is the high-water mark of bytes resident in the
	// node's outgoing bounded pipes — bounded by width × the pipe
	// capacity regardless of input size.
	PeakBufferedBytes int64
	// Wall is the node goroutine's lifetime (overlapped across nodes, so
	// the per-node walls do not sum to the run's wall time).
	Wall time.Duration
	// BlockedRead / BlockedWrite are the cumulative durations the node's
	// pipe operations spent parked — reads waiting for upstream data,
	// writes waiting on downstream backpressure. Measured only when the
	// run is traced (Env.Span non-nil); zero otherwise.
	BlockedRead  time.Duration
	BlockedWrite time.Duration
}

// annotate copies the metrics onto the node's span and closes it, so the
// trace and RunMetrics cannot disagree about a node. A nil span (an
// untraced run) accepts every call.
func (nm *NodeMetrics) annotate(ns *trace.Span) {
	ns.SetStr("kind", nm.Kind)
	ns.SetInt("node_id", int64(nm.ID))
	ns.SetInt("bytes_in", nm.BytesIn)
	ns.SetInt("bytes_out", nm.BytesOut)
	ns.SetInt("peak_buffered_bytes", nm.PeakBufferedBytes)
	ns.SetInt("blocked_read_us", nm.BlockedRead.Microseconds())
	ns.SetInt("blocked_write_us", nm.BlockedWrite.Microseconds())
	ns.End()
}

// RunMetrics collects per-node counters for one graph execution. Attach
// an empty RunMetrics to Env.Metrics before Run to receive them.
type RunMetrics struct {
	// Nodes is in topological order.
	Nodes []NodeMetrics
	// SinkBytes counts the bytes committed to the sink's destination.
	// The sink journals its output at line granularity — a partial
	// trailing line is held back until the next newline (or EOF) — so on
	// failure SinkBytes is always a line-aligned prefix of the plan's
	// output. SinkBytes == 0 means no output escaped and the caller may
	// re-run the region from pristine state; SinkBytes > 0 tells a
	// journal-aware fallback exactly how many bytes to skip when
	// replaying the region another way.
	SinkBytes int64
	// Retries is always 0: no node is ever re-run.
	//
	// Deprecated: kept only because bench/layers.go reads it; it goes with
	// ROADMAP.md's "The `[benchmark]` PR this round owes".
	Retries int
}

// TotalBytesMoved sums the bytes every node produced — the run's actual
// data movement.
func (m *RunMetrics) TotalBytesMoved() int64 {
	var total int64
	for _, n := range m.Nodes {
		total += n.BytesOut
	}
	return total
}

// MaxPeakBuffered reports the largest per-node buffered high-water mark.
func (m *RunMetrics) MaxPeakBuffered() int64 {
	var max int64
	for _, n := range m.Nodes {
		if n.PeakBufferedBytes > max {
			max = n.PeakBufferedBytes
		}
	}
	return max
}

// nodeCounters accumulate a node's traffic while its goroutine runs.
type nodeCounters struct {
	in, out atomic.Int64
}

// countingReader counts bytes delivered to a node.
type countingReader struct {
	r io.Reader
	n *atomic.Int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n.Add(int64(n))
	return n, err
}

// readErrReader keeps the first error other than io.EOF that its reader
// returns from reading, telling it apart from an error in writing what was
// read: a source must fail on the first and end quietly on the second.
type readErrReader struct {
	r   io.Reader
	err error
}

func (r *readErrReader) Read(p []byte) (int, error) {
	n, err := r.r.Read(p)
	r.note(err)
	return n, err
}

// WriteTo keeps the wrapped reader's own copy loop (an in-memory file hands
// the pipe its bytes one block per write); an error that did not come from
// w came from reading.
func (r *readErrReader) WriteTo(w io.Writer) (int64, error) {
	wt, ok := r.r.(io.WriterTo)
	if !ok {
		return io.Copy(w, onlyReader{r})
	}
	fw := &failWriter{w: w}
	n, err := wt.WriteTo(fw)
	if !fw.failed {
		r.note(err)
	}
	return n, err
}

func (r *readErrReader) note(err error) {
	if err != nil && err != io.EOF && r.err == nil {
		r.err = err
	}
}

// failWriter records whether a write failed or came up short.
type failWriter struct {
	w      io.Writer
	failed bool
}

func (f *failWriter) Write(p []byte) (int, error) {
	n, err := f.w.Write(p)
	f.failed = f.failed || err != nil || n < len(p)
	return n, err
}

// onlyReader hides any WriteTo on the wrapped reader so delegation chains
// cannot ping-pong between WriteTo and ReadFrom.
type onlyReader struct{ r io.Reader }

func (o onlyReader) Read(p []byte) (int, error) { return o.r.Read(p) }

// WriteTo delegates to the wrapped reader's zero-copy path (bounded-pipe
// chunk handoff) when it has one, counting the bytes exactly once. A
// counting peer on the destination side is unwrapped first so that a
// pipe-to-pipe edge still resolves to wholesale chunk handoff even with
// both metric wrappers in between.
//
// On the delegated paths the bytes are counted when the copy returns, not
// as they move: while the copy runs, bytes may already sit downstream with
// both counters still at zero. No code may read these counters mid-copy to
// decide whether bytes escaped a node.
func (c *countingReader) WriteTo(w io.Writer) (int64, error) {
	dst := w
	var dstCtr *atomic.Int64
	if cw, ok := w.(*countingWriter); ok {
		dst = cw.w
		dstCtr = cw.n
	}
	count := func(n int64) {
		c.n.Add(n)
		if dstCtr != nil {
			dstCtr.Add(n)
		}
	}
	if wt, ok := c.r.(io.WriterTo); ok {
		n, err := wt.WriteTo(dst)
		count(n)
		return n, err
	}
	if rf, ok := dst.(io.ReaderFrom); ok {
		n, err := rf.ReadFrom(onlyReader{c.r})
		count(n)
		return n, err
	}
	// Fall back to a pooled-block copy loop; io.Copy would allocate.
	blk := pipe.GetBlock()[:pipe.BlockSize]
	defer pipe.PutBlock(blk)
	var total int64
	for {
		n, err := c.r.Read(blk)
		count(int64(n))
		if n > 0 {
			k, werr := dst.Write(blk[:n])
			total += int64(k)
			if werr != nil {
				return total, werr
			}
		}
		if err == io.EOF {
			return total, nil
		}
		if err != nil {
			return total, err
		}
	}
}

// countingWriter counts bytes a node produced.
type countingWriter struct {
	w io.Writer
	n *atomic.Int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n.Add(int64(n))
	return n, err
}

// WriteOwned forwards an ownership-transferring write to the wrapped
// writer when it supports one (a bounded-pipe end), else falls back to a
// plain write and recycles the block itself.
func (c *countingWriter) WriteOwned(p []byte) (int, error) {
	if ow, ok := c.w.(pipe.OwnedWriter); ok {
		n, err := ow.WriteOwned(p)
		c.n.Add(int64(n))
		return n, err
	}
	n, err := c.w.Write(p)
	c.n.Add(int64(n))
	pipe.PutBlock(p)
	return n, err
}

// ReadFrom delegates to the wrapped writer's zero-copy intake (pooled
// blocks straight into a bounded pipe) when it has one.
func (c *countingWriter) ReadFrom(r io.Reader) (int64, error) {
	if rf, ok := c.w.(io.ReaderFrom); ok {
		n, err := rf.ReadFrom(r)
		c.n.Add(n)
		return n, err
	}
	blk := pipe.GetBlock()[:pipe.BlockSize]
	defer pipe.PutBlock(blk)
	var total int64
	for {
		n, err := r.Read(blk)
		if n > 0 {
			k, werr := c.w.Write(blk[:n])
			c.n.Add(int64(k))
			total += int64(k)
			if werr != nil {
				return total, werr
			}
		}
		if err == io.EOF {
			return total, nil
		}
		if err != nil {
			return total, err
		}
	}
}
