package coreutils

import (
	"bufio"
	"io"
	"strings"
	"sync"

	"jash/internal/pipe"
)

// maxLine is the largest line the utilities accept (16 MiB), far above the
// POSIX LINE_MAX minimum.
const maxLine = 16 << 20

// lineCursor is the package's one line reader: it pulls one line at a
// time from a stream, so a filter holds one line per input, not the
// input. A line that fits the one-block bufio.Reader is a view of its
// buffer; a longer one is assembled in pending, up to maxLine. Either is
// valid until the next call to next. Every maxLine violation escalates to
// the plan-abort hook, and a torn-down plan ends the stream silently,
// like a consumer hangup.
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
// stream, on a read error (then in err) or once the plan is torn down,
// it returns false, and keeps returning false.
func (cu *lineCursor) next() bool {
	if cu.done {
		return false
	}
	cu.n++
	if cu.n%cancelPollLines == 0 && cu.c.Cancelled() {
		cu.done = true
		return false
	}
	cu.pending = cu.pending[:0]
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
	cu.c.escalate(err)
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

// writerPool recycles the one-block bufio.Writer each lineWriter needs.
var writerPool = sync.Pool{
	New: func() any { return bufio.NewWriterSize(io.Discard, pipe.BlockSize) },
}

// lineWriter buffers writes of whole lines for throughput. The bufio
// buffer comes from writerPool; call Release (after the final Flush) to
// recycle it.
type lineWriter struct {
	w  *bufio.Writer
	ok bool // false after a write error (downstream closed)
}

func newLineWriter(w io.Writer) *lineWriter {
	bw := writerPool.Get().(*bufio.Writer)
	bw.Reset(w)
	return &lineWriter{w: bw, ok: true}
}

// Release flushes and returns the buffer to the pool. The lineWriter must
// not be used afterwards. Returns false if the flush failed.
func (lw *lineWriter) Release() bool {
	ok := lw.Flush()
	lw.w.Reset(io.Discard) // drop the downstream writer reference
	writerPool.Put(lw.w)
	lw.w = nil
	lw.ok = false
	return ok
}

// Write writes raw bytes (no newline added), satisfying io.Writer so
// filters can emit transformed chunks without a string conversion.
func (lw *lineWriter) Write(p []byte) (int, error) {
	if !lw.ok {
		return 0, io.ErrClosedPipe
	}
	n, err := lw.w.Write(p)
	if err != nil {
		lw.ok = false
	}
	return n, err
}

// WriteLine writes line + "\n". After the first error it becomes a no-op
// returning false, so producers can stop early when downstream hung up.
func (lw *lineWriter) WriteLine(line []byte) bool {
	if !lw.ok {
		return false
	}
	if _, err := lw.w.Write(line); err != nil {
		lw.ok = false
		return false
	}
	if err := lw.w.WriteByte('\n'); err != nil {
		lw.ok = false
		return false
	}
	return true
}

// WriteString writes raw text (no newline added).
func (lw *lineWriter) WriteString(s string) bool {
	if !lw.ok {
		return false
	}
	if _, err := lw.w.WriteString(s); err != nil {
		lw.ok = false
		return false
	}
	return true
}

// Flush flushes buffered output; returns false on error.
func (lw *lineWriter) Flush() bool {
	if !lw.ok {
		return false
	}
	if err := lw.w.Flush(); err != nil {
		lw.ok = false
		return false
	}
	return true
}

// splitFields splits on runs of white space, like awk's default.
func splitFields(line string) []string {
	return strings.Fields(line)
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

// writeAll copies r to w, reporting success.
func writeAll(w io.Writer, r io.Reader) error {
	_, err := io.Copy(w, r)
	return err
}
