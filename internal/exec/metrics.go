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

// onlyReader hides any WriteTo on the wrapped reader so delegation chains
// cannot ping-pong between WriteTo and ReadFrom.
type onlyReader struct{ r io.Reader }

func (o onlyReader) Read(p []byte) (int, error) { return o.r.Read(p) }

// WriteTo delegates to the wrapped reader's zero-copy path (bounded-pipe
// chunk handoff, which a counting peer on the destination side takes part
// in as an owned writer) when it has one; only an injected fault's reader
// has none.
//
// On the delegated path the bytes are counted when the copy returns, not
// as they move: while the copy runs, bytes may already sit downstream with
// this counter still at zero. No code may read these counters mid-copy to
// decide whether bytes escaped a node.
func (c *countingReader) WriteTo(w io.Writer) (int64, error) {
	if wt, ok := c.r.(io.WriterTo); ok {
		n, err := wt.WriteTo(w)
		c.n.Add(n)
		return n, err
	}
	return io.Copy(w, onlyReader{c})
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
// blocks straight into a bounded pipe) when it has one; only an injected
// fault's writer has none.
func (c *countingWriter) ReadFrom(r io.Reader) (int64, error) {
	if rf, ok := c.w.(io.ReaderFrom); ok {
		n, err := rf.ReadFrom(r)
		c.n.Add(n)
		return n, err
	}
	return io.Copy(struct{ io.Writer }{c}, r)
}
