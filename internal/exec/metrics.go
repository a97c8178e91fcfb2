package exec

import (
	"encoding/json"
	"io"
	"sync/atomic"
	"time"

	"jash/internal/pipe"
	"jash/internal/trace"
)

// NodeMetrics are the measured runtime counters of one graph node: the
// ground truth `jash -stats` and the benchmark harness put next to the
// cost model's predictions.
type NodeMetrics struct {
	ID    int    `json:"id"`
	Kind  string `json:"kind,omitempty"`
	Label string `json:"label"`
	// BytesIn / BytesOut count the bytes the node consumed from its
	// input edges and produced onto its output edges (for sinks, the
	// bytes written to the final destination).
	BytesIn  int64 `json:"bytes_in"`
	BytesOut int64 `json:"bytes_out"`
	// PeakBufferedBytes is the high-water mark of bytes resident in the
	// node's outgoing bounded pipes — bounded by width × the pipe
	// capacity regardless of input size.
	PeakBufferedBytes int64 `json:"peak_buffered_bytes"`
	// Wall is the node goroutine's lifetime (overlapped across nodes, so
	// the per-node walls do not sum to the run's wall time).
	Wall time.Duration `json:"-"`
	// Retries counts the node's supervised re-runs: failed attempts that
	// the effect gate deemed safe to repeat.
	Retries int `json:"retries,omitempty"`
	// BlockedRead / BlockedWrite are the cumulative durations the node's
	// pipe operations spent parked — reads waiting for upstream data,
	// writes waiting on downstream backpressure. Measured only when the
	// run is traced (Env.Span non-nil); zero otherwise.
	BlockedRead  time.Duration `json:"-"`
	BlockedWrite time.Duration `json:"-"`
}

// MarshalJSON is how `jash -stats-format json` lists a node: the tags
// above, plus the durations in microseconds.
func (nm NodeMetrics) MarshalJSON() ([]byte, error) {
	type tagged NodeMetrics // the tags without this method
	return json.Marshal(struct {
		tagged
		WallUS         int64 `json:"wall_us"`
		BlockedReadUS  int64 `json:"blocked_read_us,omitempty"`
		BlockedWriteUS int64 `json:"blocked_write_us,omitempty"`
	}{tagged(nm), nm.Wall.Microseconds(), nm.BlockedRead.Microseconds(), nm.BlockedWrite.Microseconds()})
}

// annotate copies the metrics onto the node's span and closes it, so a
// trace and `jash -stats` cannot disagree about a node. A nil span (an
// untraced run) accepts every call.
func (nm *NodeMetrics) annotate(ns *trace.Span) {
	ns.SetStr("kind", nm.Kind)
	ns.SetInt("node_id", int64(nm.ID))
	ns.SetInt("bytes_in", nm.BytesIn)
	ns.SetInt("bytes_out", nm.BytesOut)
	ns.SetInt("peak_buffered_bytes", nm.PeakBufferedBytes)
	ns.SetInt("retries", int64(nm.Retries))
	ns.SetInt("blocked_read_us", nm.BlockedRead.Microseconds())
	ns.SetInt("blocked_write_us", nm.BlockedWrite.Microseconds())
	reg := ns.Tracer().Metrics()
	reg.Histogram(trace.MetricNodeWall).Observe(nm.Wall)
	reg.Counter(trace.MetricNodesTotal).Add(1)
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
	// Retries totals the supervised node re-runs across the plan.
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
// chunk handoff) when it has one, counting the bytes exactly once. A
// counting peer on the destination side is unwrapped first so that a
// pipe-to-pipe edge still resolves to wholesale chunk handoff even with
// both metric wrappers in between.
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
