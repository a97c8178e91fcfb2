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

// readerPool recycles the one-block bufio.Reader each line-oriented
// utility needs, so a pipeline of N filters does not allocate N fresh
// buffers per run. Scratch and pending-line buffers come from the shared
// block pool in package pipe.
var readerPool = sync.Pool{
	New: func() any { return bufio.NewReaderSize(nil, pipe.BlockSize) },
}

func getReader(r io.Reader) *bufio.Reader {
	br := readerPool.Get().(*bufio.Reader)
	br.Reset(r)
	return br
}

func putReader(br *bufio.Reader) {
	br.Reset(nil) // drop the underlying reader reference
	readerPool.Put(br)
}

// writerPool does the same for output buffers.
var writerPool = sync.Pool{
	New: func() any { return bufio.NewWriterSize(io.Discard, pipe.BlockSize) },
}

// forEachLine calls fn for every line of r, without the trailing newline.
// A final line with no newline is still delivered. fn returning io.EOF
// stops iteration early without error (used by head). Lines are only
// valid for the duration of the callback: the backing buffers return to
// the shared pool when iteration finishes.
func forEachLine(r io.Reader, fn func(line []byte) error) error {
	br := getReader(r)
	pending := pipe.GetBlock()
	defer func() {
		putReader(br)
		pipe.PutBlock(pending)
	}()
	for {
		chunk, err := br.ReadSlice('\n')
		if len(chunk) > 0 {
			if chunk[len(chunk)-1] == '\n' {
				line := chunk[:len(chunk)-1]
				if len(pending) > 0 {
					// A newline-terminated continuation is subject to the
					// same limit as an unterminated one.
					if len(pending)+len(line) > maxLine {
						return errLineTooLong
					}
					pending = append(pending, line...)
					line = pending
				}
				if e := fn(line); e != nil {
					if e == io.EOF {
						return nil
					}
					return e
				}
				pending = pending[:0]
			} else {
				if len(pending)+len(chunk) > maxLine {
					return errLineTooLong
				}
				pending = append(pending, chunk...)
			}
		}
		switch err {
		case nil:
		case bufio.ErrBufferFull:
		case io.EOF:
			if len(pending) > 0 {
				if e := fn(pending); e != nil && e != io.EOF {
					return e
				}
			}
			return nil
		default:
			return err
		}
	}
}

var errLineTooLong = errLine("line too long")

type errLine string

func (e errLine) Error() string { return string(e) }

// readLines slurps all lines of r.
func readLines(r io.Reader) ([]string, error) {
	var lines []string
	err := forEachLine(r, func(line []byte) error {
		lines = append(lines, string(line))
		return nil
	})
	return lines, err
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

// splitFields splits on runs of blanks, like awk's default and `sort`'s
// field logic.
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

// bytesClone copies a byte slice, used where lines outlive their buffer.
func bytesClone(b []byte) []byte { return append([]byte(nil), b...) }
