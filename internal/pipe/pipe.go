// Package pipe is the one stream substrate of the shell: the bounded,
// backpressured, breakable byte pipe that is every edge of an optimized
// dataflow plan (package exec) and every `|` of an interpreted pipeline
// (package interp), together with the pool of 64 KiB blocks those pipes,
// the executor's split lanes and the coreutils line buffers all draw
// from. It is a leaf: it imports nothing from this module, so the cost
// model, the utilities, the interpreter and the executor can all share
// its one block size.
package pipe

import (
	"io"
	"sync"
	"time"
)

// BlockSize is the unit of pooled blocks and the capacity of one pipe
// (cost.PipeBufferBytes is defined from it): one size backs a pipe chunk,
// a bufio reader or writer, a pending-line accumulator and a split-lane
// batch, so blocks hand off across layers without re-slicing.
const BlockSize = 64 << 10

// blockPool recycles blocks across every pipe and utility invocation.
// Ownership rule: a block obtained from GetBlock is owned by exactly one
// party at a time; passing it to WriteOwned transfers ownership to the
// pipe, which recycles it once the reader consumes it; otherwise the
// owner returns it with PutBlock and must not touch it afterwards. Only
// standard-capacity blocks are recycled; grown, foreign or re-sliced
// blocks fall to the GC, so the pool never accumulates oversized buffers.
var blockPool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, BlockSize)
		return &b
	},
}

// GetBlock takes an empty pooled block of capacity BlockSize.
func GetBlock() []byte {
	return (*blockPool.Get().(*[]byte))[:0]
}

// PutBlock returns a block to the pool. Safe to call with a grown or
// foreign slice, which is simply dropped.
func PutBlock(b []byte) {
	if cap(b) != BlockSize {
		return
	}
	b = b[:0]
	blockPool.Put(&b)
}

// LockedWriter serializes writes from concurrent stage or node goroutines
// onto a stream they share (a pipeline's stderr, a plan's stdout).
type LockedWriter struct {
	Mu *sync.Mutex
	W  io.Writer
}

func (l *LockedWriter) Write(p []byte) (int, error) {
	l.Mu.Lock()
	defer l.Mu.Unlock()
	return l.W.Write(p)
}

// OwnedWriter is implemented by writers that accept ownership of a
// pooled block instead of copying it (Writer, and the executor's
// counting wrapper by delegation).
type OwnedWriter interface {
	WriteOwned([]byte) (int, error)
}

// pipe is a fixed-capacity, backpressured byte pipe: the edge primitive
// of both the streaming executor and the interpreter. Unlike io.Pipe it
// buffers up to its capacity in bytes, so producer and consumer overlap
// without either side being able to accumulate unbounded data — a writer
// that outruns its reader blocks once the pipe is full. It tracks the
// high-water mark of resident bytes for the per-node runtime counters.
//
// Internally the pipe is a queue of pooled chunks rather than a ring
// buffer: ordinary writes copy into pooled blocks (coalescing small
// writes into the tail block), while WriteOwned enqueues a caller-owned
// block with no copy at all. Chunks recycle to blockPool as the
// reader consumes them. An owned chunk is admitted whole once the pipe
// has any free space, so residency can transiently exceed the capacity
// by less than one chunk.
//
// Close semantics mirror io.Pipe: closing the write end delivers EOF to
// the reader after the buffered bytes drain; closing the read end makes
// every subsequent (or blocked) write fail with io.ErrClosedPipe, which
// is how early-exiting consumers (head) terminate their upstreams.
type pipe struct {
	mu       sync.Mutex
	cond     sync.Cond
	chunks   [][]byte // FIFO of chunks; chunks[0][rOff:] is next to read
	rOff     int      // read offset into chunks[0]
	tailOwn  bool     // tail chunk was allocated here and may be extended
	n        int      // bytes resident
	capacity int
	peak     int // high-water mark of n

	werr error // non-nil once the write end closed (io.EOF = clean)
	rerr error // non-nil once the read end closed

	// timed enables blocked-time accounting (EnableTiming). Untimed pipes
	// skip the clock reads entirely so the hot path stays unchanged.
	timed bool
	waitR time.Duration // reader-side time parked waiting for data
	waitW time.Duration // writer-side time parked on backpressure
}

// waitLocked parks on the condition variable, charging the blocked
// interval to dst when timing is enabled.
func (p *pipe) waitLocked(dst *time.Duration) {
	if !p.timed {
		p.cond.Wait()
		return
	}
	start := time.Now()
	p.cond.Wait()
	*dst += time.Since(start)
}

// New returns the two ends of a pipe with the given capacity in bytes.
func New(capacity int) (*Reader, *Writer) {
	if capacity <= 0 {
		capacity = 1
	}
	p := &pipe{capacity: capacity}
	p.cond.L = &p.mu
	return &Reader{p}, &Writer{p}
}

// pushLocked appends a chunk the pipe owns, updating residency counters.
func (p *pipe) pushLocked(blk []byte, own bool) {
	p.chunks = append(p.chunks, blk)
	p.tailOwn = own
	p.n += len(blk)
	if p.n > p.peak {
		p.peak = p.n
	}
}

// popHeadLocked retires the fully-consumed head chunk and recycles it.
func (p *pipe) popHeadLocked() {
	head := p.chunks[0]
	copy(p.chunks, p.chunks[1:])
	p.chunks[len(p.chunks)-1] = nil
	p.chunks = p.chunks[:len(p.chunks)-1]
	p.rOff = 0
	if len(p.chunks) == 0 {
		// The tail is gone; a writer must not extend a recycled block.
		p.tailOwn = false
	}
	PutBlock(head)
}

// discardLocked drops all resident chunks (read end hung up or the plan
// was torn down) and recycles their blocks.
func (p *pipe) discardLocked() {
	for i, c := range p.chunks {
		p.chunks[i] = nil
		PutBlock(c)
	}
	p.chunks = p.chunks[:0]
	p.rOff = 0
	p.n = 0
	p.tailOwn = false
}

func (p *pipe) read(b []byte) (int, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for p.n == 0 {
		if p.rerr != nil {
			return 0, p.rerr
		}
		if p.werr != nil {
			return 0, p.werr
		}
		p.waitLocked(&p.waitR)
	}
	total := 0
	for total < len(b) && p.n > 0 {
		head := p.chunks[0]
		k := copy(b[total:], head[p.rOff:])
		p.rOff += k
		p.n -= k
		total += k
		if p.rOff == len(head) {
			p.popHeadLocked()
		}
	}
	p.cond.Broadcast()
	return total, nil
}

func (p *pipe) write(b []byte) (int, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	total := 0
	for total < len(b) {
		if p.rerr != nil {
			return total, p.rerr
		}
		if p.werr != nil {
			return total, io.ErrClosedPipe
		}
		if p.n >= p.capacity {
			p.waitLocked(&p.waitW)
			continue
		}
		room := p.capacity - p.n
		want := len(b) - total
		if want > room {
			want = room
		}
		// Coalesce into the tail block when it has spare capacity, so
		// many small writes fill one block instead of queuing fragments.
		if p.tailOwn {
			tail := p.chunks[len(p.chunks)-1]
			if spare := cap(tail) - len(tail); spare > 0 {
				k := want
				if k > spare {
					k = spare
				}
				p.chunks[len(p.chunks)-1] = append(tail, b[total:total+k]...)
				p.n += k
				if p.n > p.peak {
					p.peak = p.n
				}
				total += k
				p.cond.Broadcast()
				continue
			}
		}
		if want > BlockSize {
			want = BlockSize
		}
		blk := GetBlock()[:want]
		copy(blk, b[total:total+want])
		p.pushLocked(blk, true)
		total += want
		p.cond.Broadcast()
	}
	return total, nil
}

// writeOwned enqueues b without copying; ownership of b transfers to the
// pipe. Standard-size blocks recycle once consumed (or on failure).
func (p *pipe) writeOwned(b []byte) (int, error) {
	if len(b) == 0 {
		PutBlock(b)
		return 0, nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for {
		if p.rerr != nil {
			PutBlock(b)
			return 0, p.rerr
		}
		if p.werr != nil {
			PutBlock(b)
			return 0, io.ErrClosedPipe
		}
		if p.n < p.capacity {
			break
		}
		p.waitLocked(&p.waitW)
	}
	p.pushLocked(b, false)
	p.cond.Broadcast()
	return len(b), nil
}

// takeChunk pops the head chunk whole, transferring ownership to the
// caller: data is the unread portion, base the underlying block to
// recycle after use. Blocks until data is available or the pipe ends.
func (p *pipe) takeChunk() (data, base []byte, err error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for p.n == 0 {
		if p.rerr != nil {
			return nil, nil, p.rerr
		}
		if p.werr != nil {
			return nil, nil, p.werr
		}
		p.waitLocked(&p.waitR)
	}
	head := p.chunks[0]
	data = head[p.rOff:]
	copy(p.chunks, p.chunks[1:])
	p.chunks[len(p.chunks)-1] = nil
	p.chunks = p.chunks[:len(p.chunks)-1]
	p.rOff = 0
	if len(p.chunks) == 0 {
		p.tailOwn = false
	}
	p.n -= len(data)
	p.cond.Broadcast()
	return data, head, nil
}

// handoffTo moves chunks from src to dst with no byte copying: the
// zero-copy fast path for pipe-to-pipe edges (io.Copy between two
// bounded-pipe ends resolves here via WriteTo/ReadFrom).
func (src *pipe) handoffTo(dst *pipe) (int64, error) {
	var total int64
	for {
		data, base, err := src.takeChunk()
		if err != nil {
			if err == io.EOF {
				return total, nil
			}
			return total, err
		}
		var owned []byte
		if len(data) == len(base) {
			owned = base // full block: dst recycles it after consumption
		} else {
			owned = data // partially-read block: dst drops it to the GC
		}
		n, werr := dst.writeOwned(owned)
		total += int64(n)
		if werr != nil {
			return total, werr
		}
	}
}

func (p *pipe) closeWrite(err error) {
	if err == nil {
		err = io.EOF
	}
	p.mu.Lock()
	if p.werr == nil {
		p.werr = err
	}
	p.cond.Broadcast()
	p.mu.Unlock()
}

func (p *pipe) closeRead() {
	p.mu.Lock()
	if p.rerr == nil {
		p.rerr = io.ErrClosedPipe
	}
	// Discard resident bytes: nobody will read them, and a blocked
	// writer must observe the hangup immediately.
	p.discardLocked()
	p.cond.Broadcast()
	p.mu.Unlock()
}

// Break tears the pipe down for plan-wide cancellation: both ends
// observe err immediately — blocked readers wake with err instead of
// draining, blocked writers fail, and resident bytes are discarded so no
// stage keeps processing data the plan has abandoned. Ends that already
// closed keep their original error.
func (r *Reader) Break(err error) {
	p := r.p
	if err == nil {
		err = io.ErrClosedPipe
	}
	p.mu.Lock()
	if p.rerr == nil {
		p.rerr = err
	}
	if p.werr == nil || p.werr == io.EOF {
		// A clean EOF from an already-finished producer must not let
		// downstream keep consuming: teardown wins.
		p.werr = err
	}
	p.discardLocked()
	p.cond.Broadcast()
	p.mu.Unlock()
}

// Reader is the read end of a bounded pipe. It also carries the
// whole-pipe operations (Break, the counters): a pipe has exactly one
// Reader, so whoever built the pipe addresses it through that end.
type Reader struct{ p *pipe }

// PeakBuffered reports the pipe's high-water mark of resident bytes.
func (r *Reader) PeakBuffered() int {
	r.p.mu.Lock()
	defer r.p.mu.Unlock()
	return r.p.peak
}

// EnableTiming turns on blocked-time accounting. Call it before any
// goroutine uses the pipe.
func (r *Reader) EnableTiming() { r.p.timed = true }

// BlockedTimes reports the cumulative reader- and writer-side blocked
// durations (zero unless EnableTiming was called).
func (r *Reader) BlockedTimes() (rd, wr time.Duration) {
	r.p.mu.Lock()
	defer r.p.mu.Unlock()
	return r.p.waitR, r.p.waitW
}

func (r *Reader) Read(b []byte) (int, error) { return r.p.read(b) }

// WriteTo drains the pipe into w chunk-by-chunk without an intermediate
// copy buffer. When w is the write end of another bounded pipe the
// chunks hand off wholesale (zero copies).
func (r *Reader) WriteTo(w io.Writer) (int64, error) {
	if bw, ok := w.(*Writer); ok {
		return r.p.handoffTo(bw.p)
	}
	var total int64
	for {
		data, base, err := r.p.takeChunk()
		if err != nil {
			if err == io.EOF {
				return total, nil
			}
			return total, err
		}
		n, werr := w.Write(data)
		PutBlock(base)
		total += int64(n)
		if werr != nil {
			return total, werr
		}
	}
}

// Close hangs up the read end; blocked and future writes fail.
func (r *Reader) Close() error { r.p.closeRead(); return nil }

// Writer is the write end of a bounded pipe.
type Writer struct{ p *pipe }

func (w *Writer) Write(b []byte) (int, error) { return w.p.write(b) }

// WriteOwned enqueues b without copying; ownership of b transfers to the
// pipe (the caller must not touch it afterwards). Intended for pooled
// blocks filled by the producer; standard-size blocks recycle once the
// reader consumes them.
func (w *Writer) WriteOwned(b []byte) (int, error) { return w.p.writeOwned(b) }

// ReadFrom fills pooled blocks straight from r and hands them to the
// pipe, avoiding the copy an io.Copy fallback loop would make. A
// bounded-pipe source short-circuits to wholesale chunk handoff.
func (w *Writer) ReadFrom(r io.Reader) (int64, error) {
	if br, ok := r.(*Reader); ok {
		return br.p.handoffTo(w.p)
	}
	var total int64
	for {
		blk := GetBlock()[:BlockSize]
		n, err := r.Read(blk)
		if n > 0 {
			// Tiny reads would waste a whole pooled block each; copy
			// them through the coalescing path instead.
			if n < BlockSize/8 {
				_, werr := w.p.write(blk[:n])
				PutBlock(blk)
				if werr != nil {
					return total, werr
				}
			} else if _, werr := w.p.writeOwned(blk[:n]); werr != nil {
				return total, werr
			}
			total += int64(n)
		} else {
			PutBlock(blk)
		}
		if err == io.EOF {
			return total, nil
		}
		if err != nil {
			return total, err
		}
	}
}

// Close marks the stream complete; the reader sees EOF after draining.
func (w *Writer) Close() error { w.p.closeWrite(nil); return nil }

// CloseWithError marks the stream failed with err.
func (w *Writer) CloseWithError(err error) error { w.p.closeWrite(err); return nil }
