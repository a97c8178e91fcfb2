package coreutils

import (
	"bufio"
	"bytes"
	"io"
	"sync"
	"unsafe"

	"jash/internal/pipe"
)

// maxLine is the largest line the utilities accept (16 MiB), far above the
// POSIX LINE_MAX minimum.
const maxLine = 16 << 20

// lineCursor is the package's one line reader: it pulls one line at a
// time from a stream (next), or every whole line it has buffered (lines),
// so a filter holds at most a block per input, not the input. A line
// that fits the one-block bufio.Reader is a view of its buffer; a longer
// one is assembled in pending, up to maxLine. Either is valid until the
// next call to next or lines. Every maxLine violation escalates to
// the plan-abort hook. A torn-down plan, or a failed write to the stage's
// stdout, ends the stream silently: nothing read after it could be
// written.
type lineCursor struct {
	c       *Context
	br      *bufio.Reader
	pending []byte
	line    []byte // the current line, without its newline
	n       int    // lines read, for cancel polling
	err     error  // the read error that ended the stream, if any
	done    bool
}

// cursorPool recycles cursors with their one-block readers, so a pipeline
// of N filters does not allocate N fresh buffers per run. Pending-line
// buffers come from the shared block pool in package pipe.
var cursorPool = sync.Pool{
	New: func() any { return &lineCursor{br: bufio.NewReaderSize(nil, pipe.BlockSize)} },
}

// cursor opens a line cursor over r. Call close when done with it.
func (c *Context) cursor(r io.Reader) *lineCursor {
	cu := cursorPool.Get().(*lineCursor)
	cu.c, cu.n, cu.err, cu.done, cu.line = c, 0, nil, false, nil
	cu.br.Reset(r)
	cu.pending = pipe.GetBlock()
	return cu
}

// close returns the cursor and its buffers to their pools.
func (cu *lineCursor) close() {
	cu.br.Reset(nil) // drop the underlying reader reference
	pipe.PutBlock(cu.pending)
	cu.c, cu.pending, cu.line = nil, nil, nil
	cursorPool.Put(cu)
}

// next advances to the next line and reports whether there is one. A
// final line with no newline is still delivered. At the end of the
// stream, on a read error (then in err), once the plan is torn down or
// once stdout has failed, it returns false, and keeps returning false.
func (cu *lineCursor) next() bool {
	if cu.done {
		return false
	}
	cu.n++
	if cu.stopped(cu.n%cancelPollLines == 0) {
		return false
	}
	cu.pending = cu.pending[:0]
	return cu.read()
}

// lines returns the next run of whole lines, each with its newline: every
// line the reader has buffered, as one view of its buffer, valid until
// the next call to lines or next. The stream's final line may lack its
// newline. A line longer than the block is a run of its own, assembled
// by next's path with its maxLine check. The stdout and cancel checks run
// once per run. At the end of the stream, on a read error (then in err),
// once the plan is torn down or once stdout has failed, it returns nil.
func (cu *lineCursor) lines() []byte {
	if cu.done || cu.stopped(true) {
		return nil
	}
	chunk, err := cu.br.ReadSlice('\n')
	switch err {
	case nil:
		// The lines after the first are already buffered, right behind it.
		rest, _ := cu.br.Peek(cu.br.Buffered())
		if k := bytes.LastIndexByte(rest, '\n'); k >= 0 {
			cu.br.Discard(k + 1)
			chunk = chunk[:len(chunk)+k+1]
		}
		return chunk
	case bufio.ErrBufferFull:
		cu.pending = append(cu.pending[:0], chunk...)
		if !cu.read() {
			return nil
		}
		if !cu.done {
			cu.pending = append(cu.line, '\n')
			cu.line = cu.pending
		}
		return cu.line
	case io.EOF:
		cu.done = true
		return chunk
	default:
		cu.fail(err)
		return nil
	}
}

// stopped ends the stream once stdout has failed or, if poll is set, once
// the plan is torn down: nothing read after either could be written.
func (cu *lineCursor) stopped(poll bool) bool {
	if cu.c.out.err != nil || poll && cu.c.Cancelled() {
		cu.done = true
	}
	return cu.done
}

// read reads the rest of a line whose first len(pending) bytes are in
// pending, and reports whether there is one.
func (cu *lineCursor) read() bool {
	for {
		chunk, err := cu.br.ReadSlice('\n')
		n := len(cu.pending) + len(chunk)
		if err == nil {
			n-- // the newline is not part of the line
		}
		if n > maxLine {
			return cu.fail(errLineTooLong)
		}
		switch err {
		case nil:
			cu.line = chunk[:len(chunk)-1]
			if len(cu.pending) > 0 {
				cu.pending = append(cu.pending, cu.line...)
				cu.line = cu.pending
			}
			return true
		case bufio.ErrBufferFull:
			cu.pending = append(cu.pending, chunk...)
		case io.EOF:
			cu.pending = append(cu.pending, chunk...)
			cu.done = true
			cu.line = cu.pending
			return len(cu.line) > 0
		default:
			return cu.fail(err)
		}
	}
}

// fail ends the stream with err, escalating a line-limit violation.
func (cu *lineCursor) fail(err error) bool {
	cu.err, cu.done = err, true
	if err == errLineTooLong && cu.c.Abort != nil {
		cu.c.Abort(err)
	}
	return false
}

// forEachLine calls fn for every line of r, without the trailing newline,
// through one cursor. fn returning io.EOF stops iteration early without
// error (used by head and sed's q). Lines are only valid for the duration
// of the callback.
func (c *Context) forEachLine(r io.Reader, fn func(line []byte) error) error {
	cu := c.cursor(r)
	defer cu.close()
	for cu.next() {
		if e := fn(cu.line); e != nil {
			if e == io.EOF {
				return nil
			}
			return e
		}
	}
	return cu.err
}

var errLineTooLong = errLine("line too long")

type errLine string

func (e errLine) Error() string { return string(e) }

// stdout is a utility's standard output: one pooled block of buffering
// in front of the stage's writer, and the first error that writer
// returned. The error is sticky: every later write returns it and writes
// nothing, the line cursor stops reading, and run ends the stage with
// StatusBrokenPipe. Only a pipe's writer fails, once its reader has gone
// or its run was torn down; a write made once Ctx is done fails too, so a
// producer whose writer never fails (yes >f) stops at its next block.
//
// The first flush comes at 4 KiB, as a stdio buffer's on a pipe, and each
// doubles the next up to a block: the first lines reach a reader that may
// want no more (head -n1) after a slow producer has made 4 KiB, not 64.
type stdout struct {
	w   io.Writer
	c   *Context
	buf []byte // a pooled block
	lim int    // flush before the buffer holds more
	err error
}

// newStdout buffers in front of w.
func newStdout(c *Context, w io.Writer) stdout {
	return stdout{w: w, c: c, buf: pipe.GetBlock(), lim: pipe.BlockSize / 16}
}

func (o *stdout) Write(p []byte) (int, error) {
	if len(p) >= pipe.BlockSize {
		o.flush()
		return o.put(p) // a whole block goes through uncopied
	}
	if len(o.buf)+len(p) > o.lim {
		o.flush()
	}
	if o.err != nil {
		return 0, o.err
	}
	o.buf = append(o.buf, p...)
	return len(p), nil
}

// WriteString is Write over s's bytes, which Write only reads.
func (o *stdout) WriteString(s string) (int, error) {
	return o.Write(unsafe.Slice(unsafe.StringData(s), len(s)))
}

// writeLine writes line and a newline.
func (o *stdout) writeLine(line []byte) {
	if len(o.buf)+len(line) < o.lim {
		o.buf = append(append(o.buf, line...), '\n')
		return
	}
	o.Write(line)
	o.WriteString("\n")
}

// WriteOwned hands b, a pooled block, to the stage's writer after what is
// buffered, uncopied when that writer takes ownership (a pipe does).
func (o *stdout) WriteOwned(b []byte) (int, error) {
	ow, owned := o.w.(pipe.OwnedWriter)
	if o.flush() != nil || !owned || o.c.Cancelled() {
		defer pipe.PutBlock(b)
		return o.put(b)
	}
	n, err := ow.WriteOwned(b)
	return n, o.fail(err)
}

// copy copies r to stdout: through r's own copy loop when it has one (a
// pipe hands over its blocks, a file its blocks), else a pooled block at
// a time, each handed over whole. It is how cat, tr, head -c, yes and seq
// stream, and it returns r's error only: a failed write is stdout's own,
// which run reports.
func (o *stdout) copy(r io.Reader) error {
	var err error
	if wt, ok := r.(io.WriterTo); ok {
		_, err = wt.WriteTo(o)
	} else {
		var blk []byte
		for err == nil && o.err == nil {
			if blk == nil {
				blk = pipe.GetBlock()[:pipe.BlockSize]
			}
			var n int
			n, err = r.Read(blk)
			if n < pipe.BlockSize/8 {
				// A short read would pin a whole block downstream: buffer
				// it, and read into the block again.
				o.Write(blk[:n])
			} else {
				o.WriteOwned(blk[:n])
				blk = nil
			}
		}
		pipe.PutBlock(blk)
	}
	if err == io.EOF || o.err != nil {
		return nil
	}
	return err
}

// put writes p through to the stage's writer.
func (o *stdout) put(p []byte) (int, error) {
	if o.err == nil && o.c.Cancelled() {
		o.fail(o.c.Ctx.Err())
	}
	if o.err != nil {
		return 0, o.err
	}
	n, err := o.w.Write(p)
	return n, o.fail(err)
}

// fail keeps the first write error; the block goes back to the pool then,
// since nothing is written after it.
func (o *stdout) fail(err error) error {
	if o.err == nil && err != nil {
		o.err = err
		o.release()
	}
	return o.err
}

// flush writes out what is buffered and reports the sticky error.
func (o *stdout) flush() error {
	if len(o.buf) > 0 {
		o.put(o.buf)
		o.buf = o.buf[:0]
		o.lim = min(2*o.lim, pipe.BlockSize)
	}
	return o.err
}

// close flushes, returns the block to the pool and reports the sticky
// error.
func (o *stdout) close() error {
	err := o.flush()
	o.release()
	return err
}

// release returns the block to the pool.
func (o *stdout) release() {
	pipe.PutBlock(o.buf)
	o.buf, o.lim = nil, 0
}

// countTrailingContext is a tiny helper for tail: keep the last n lines.
type lastN struct {
	n     int
	lines [][]byte
}

func (l *lastN) add(line []byte) {
	cp := append([]byte(nil), line...)
	l.lines = append(l.lines, cp)
	if len(l.lines) > l.n {
		l.lines = l.lines[len(l.lines)-l.n:]
	}
}

// concatReaders joins readers sequentially.
func concatReaders(rs []io.Reader) io.Reader {
	if len(rs) == 1 {
		return rs[0]
	}
	return io.MultiReader(rs...)
}
