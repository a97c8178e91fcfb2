package coreutils

import (
	"bytes"
	"fmt"
	"io"
	"strconv"
	"strings"

	"jash/internal/pipe"
	"jash/internal/spec"
)

func init() {
	Register("cat", catCmd)
	Register("head", headCmd)
	Register("tail", tailCmd)
	Register("tee", teeCmd)
	Register("echo", echoCmd)
	Register("printf", printfCmd)
	Register("seq", seqCmd)
	Register("rev", revCmd)
	Register("fold", foldCmd)
	Register("nl", nlCmd)
	Register("paste", pasteCmd)
	Register("yes", yesCmd)
	Register("true", func(*Context, []string) int { return 0 })
	Register("false", func(*Context, []string) int { return 1 })
	Register("wc", wcCmd)
}

// catCmd concatenates files (or stdin) to stdout. Supports -n (number
// lines) and treats "-" as stdin.
func catCmd(c *Context, args []string) int {
	cl, err := spec.Parse(args)
	if err != nil {
		return c.Errorf(2, "cat: %v", err)
	}
	rs, st := openInputs(c, cl.Operands)
	if rs == nil {
		return st
	}
	if cl.Has('n') {
		lw := newLineWriter(c.Stdout)
		defer lw.Release()
		n := 0
		for _, r := range rs {
			e := c.forEachLine(r, func(line []byte) error {
				n++
				lw.WriteString(fmt.Sprintf("%6d\t", n))
				lw.WriteLine(line)
				return nil
			})
			if e != nil {
				return c.Errorf(1, "cat: %v", e)
			}
		}
		lw.Flush()
		return 0
	}
	for _, r := range rs {
		if err := writeAll(c.Stdout, r); err != nil {
			return 1 // downstream closed; not a diagnostic-worthy failure
		}
	}
	return 0
}

// headCmd prints the first N lines (-n N, default 10) or bytes (-c N).
func headCmd(c *Context, args []string) int {
	cl, err := spec.Parse(args)
	if err != nil {
		return c.Errorf(2, "head: %v", err)
	}
	rs, st := openInputs(c, cl.Operands)
	if rs == nil {
		return st
	}
	if v, ok := cl.Value('c'); ok {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil || n < 0 {
			return c.Errorf(2, "head: invalid byte count %q", v)
		}
		_, _ = io.CopyN(c.Stdout, concatReaders(rs), n)
		return 0
	}
	n := int64(10)
	if v, ok := cl.Value('n'); ok {
		n, err = strconv.ParseInt(v, 10, 64)
		if err != nil || n < 0 {
			return c.Errorf(2, "head: invalid line count %q", v)
		}
	}
	lw := newLineWriter(c.Stdout)
	defer lw.Release()
	var seen int64
	e := c.forEachLine(concatReaders(rs), func(line []byte) error {
		if seen >= n {
			return io.EOF
		}
		seen++
		lw.WriteLine(line)
		return nil
	})
	if e != nil {
		return c.Errorf(1, "head: %v", e)
	}
	lw.Flush()
	return 0
}

// tailCmd prints the last N lines (-n N, default 10). -c is parsed (so
// its value is never taken for a file) and rejected.
func tailCmd(c *Context, args []string) int {
	cl, err := spec.Parse(args)
	if err != nil {
		return c.Errorf(2, "tail: %v", err)
	}
	if cl.Has('c') {
		return c.Errorf(2, "tail: -c is not supported")
	}
	rs, st := openInputs(c, cl.Operands)
	if rs == nil {
		return st
	}
	n := 10
	if v, ok := cl.Value('n'); ok {
		v = strings.TrimPrefix(v, "-")
		n, err = strconv.Atoi(v)
		if err != nil || n < 0 {
			return c.Errorf(2, "tail: invalid line count %q", v)
		}
	}
	keep := &lastN{n: n}
	if e := c.forEachLine(concatReaders(rs), func(line []byte) error {
		keep.add(line)
		return nil
	}); e != nil {
		return c.Errorf(1, "tail: %v", e)
	}
	lw := newLineWriter(c.Stdout)
	defer lw.Release()
	for _, line := range keep.lines {
		lw.WriteLine(line)
	}
	lw.Flush()
	return 0
}

// teeCmd copies stdin to stdout and to each named file (-a appends).
func teeCmd(c *Context, args []string) int {
	cl, err := spec.Parse(args)
	if err != nil {
		return c.Errorf(2, "tee: %v", err)
	}
	writers := []io.Writer{c.Stdout}
	var closers []io.Closer
	for _, op := range cl.Operands {
		var w io.WriteCloser
		var e error
		if cl.Has('a') {
			w, e = c.FS.Append(c.Lookup(op))
		} else {
			w, e = c.FS.Create(c.Lookup(op))
		}
		if e != nil {
			return c.Errorf(1, "tee: %s: %v", op, e)
		}
		writers = append(writers, w)
		closers = append(closers, w)
	}
	_, copyErr := io.Copy(io.MultiWriter(writers...), c.Stdin)
	for _, cl := range closers {
		cl.Close()
	}
	if copyErr != nil {
		return 1
	}
	return 0
}

// echoCmd writes its arguments separated by spaces. -n suppresses the
// trailing newline. Backslash escapes are not interpreted (like bash's
// default echo without -e).
func echoCmd(c *Context, args []string) int {
	rest := args[1:]
	newline := true
	if len(rest) > 0 && rest[0] == "-n" {
		newline = false
		rest = rest[1:]
	}
	out := strings.Join(rest, " ")
	if newline {
		out += "\n"
	}
	io.WriteString(c.Stdout, out)
	return 0
}

// printfCmd implements the POSIX printf utility for the common conversions
// %s %d %i %c %x %o %% and escapes \n \t \\ \0NNN. The format is reused
// until all arguments are consumed, per POSIX.
func printfCmd(c *Context, args []string) int {
	if len(args) < 2 {
		return c.Errorf(2, "printf: missing format")
	}
	format := args[1]
	operands := args[2:]
	i := 0
	nextArg := func() string {
		if i < len(operands) {
			s := operands[i]
			i++
			return s
		}
		return ""
	}
	var b strings.Builder
	emit := func() {
		j := 0
		for j < len(format) {
			ch := format[j]
			switch ch {
			case '\\':
				j++
				if j >= len(format) {
					b.WriteByte('\\')
					break
				}
				switch format[j] {
				case 'n':
					b.WriteByte('\n')
				case 't':
					b.WriteByte('\t')
				case 'r':
					b.WriteByte('\r')
				case '\\':
					b.WriteByte('\\')
				case '0':
					// \0NNN octal
					val := 0
					k := j + 1
					for k < len(format) && k <= j+3 && format[k] >= '0' && format[k] <= '7' {
						val = val*8 + int(format[k]-'0')
						k++
					}
					b.WriteByte(byte(val))
					j = k - 1
				default:
					b.WriteByte('\\')
					b.WriteByte(format[j])
				}
				j++
			case '%':
				j++
				if j >= len(format) {
					b.WriteByte('%')
					break
				}
				// Width/precision digits pass through to Sprintf.
				spec := "%"
				for j < len(format) && (format[j] == '-' || format[j] == '+' ||
					format[j] == ' ' || format[j] == '0' || format[j] == '.' ||
					(format[j] >= '0' && format[j] <= '9')) {
					spec += string(format[j])
					j++
				}
				if j >= len(format) {
					b.WriteString(spec)
					break
				}
				verb := format[j]
				j++
				switch verb {
				case '%':
					b.WriteByte('%')
				case 's':
					fmt.Fprintf(&b, spec+"s", nextArg())
				case 'c':
					s := nextArg()
					if s != "" {
						b.WriteByte(s[0])
					}
				case 'd', 'i':
					n, _ := strconv.ParseInt(strings.TrimSpace(nextArg()), 0, 64)
					fmt.Fprintf(&b, spec+"d", n)
				case 'x', 'o', 'u':
					n, _ := strconv.ParseInt(strings.TrimSpace(nextArg()), 0, 64)
					v := verb
					if v == 'u' {
						v = 'd'
					}
					fmt.Fprintf(&b, spec+string(v), n)
				case 'f', 'e', 'g':
					f, _ := strconv.ParseFloat(strings.TrimSpace(nextArg()), 64)
					fmt.Fprintf(&b, spec+string(verb), f)
				default:
					b.WriteString(spec)
					b.WriteByte(verb)
				}
			default:
				b.WriteByte(ch)
				j++
			}
		}
	}
	emit()
	for i < len(operands) {
		emit()
	}
	io.WriteString(c.Stdout, b.String())
	return 0
}

// seqCmd prints a numeric sequence: seq LAST, seq FIRST LAST, or
// seq FIRST INCR LAST.
func seqCmd(c *Context, args []string) int {
	nums := args[1:]
	first, incr, last := int64(1), int64(1), int64(0)
	var err error
	parse := func(s string) (int64, error) { return strconv.ParseInt(s, 10, 64) }
	switch len(nums) {
	case 1:
		last, err = parse(nums[0])
	case 2:
		if first, err = parse(nums[0]); err == nil {
			last, err = parse(nums[1])
		}
	case 3:
		if first, err = parse(nums[0]); err == nil {
			if incr, err = parse(nums[1]); err == nil {
				last, err = parse(nums[2])
			}
		}
	default:
		return c.Errorf(2, "seq: expected 1-3 numeric arguments")
	}
	if err != nil {
		return c.Errorf(2, "seq: %v", err)
	}
	if incr == 0 {
		return c.Errorf(2, "seq: increment must not be zero")
	}
	lw := newLineWriter(c.Stdout)
	defer lw.Release()
	if incr > 0 {
		for n := first; n <= last; n += incr {
			if !lw.WriteLine([]byte(strconv.FormatInt(n, 10))) || c.Cancelled() {
				break
			}
		}
	} else {
		for n := first; n >= last; n += incr {
			if !lw.WriteLine([]byte(strconv.FormatInt(n, 10))) || c.Cancelled() {
				break
			}
		}
	}
	lw.Flush()
	return 0
}

// revCmd reverses the bytes of each line.
func revCmd(c *Context, args []string) int {
	cl, err := spec.Parse(args)
	if err != nil {
		return c.Errorf(2, "rev: %v", err)
	}
	rs, st := openInputs(c, cl.Operands)
	if rs == nil {
		return st
	}
	lw := newLineWriter(c.Stdout)
	defer lw.Release()
	e := c.forEachLine(concatReaders(rs), func(line []byte) error {
		rev := make([]byte, len(line))
		for i, b := range line {
			rev[len(line)-1-i] = b
		}
		lw.WriteLine(rev)
		return nil
	})
	if e != nil {
		return c.Errorf(1, "rev: %v", e)
	}
	lw.Flush()
	return 0
}

// foldCmd wraps lines at -w WIDTH columns (default 80).
func foldCmd(c *Context, args []string) int {
	cl, err := spec.Parse(args)
	if err != nil {
		return c.Errorf(2, "fold: %v", err)
	}
	width := 80
	if v, ok := cl.Value('w'); ok {
		width, err = strconv.Atoi(v)
		if err != nil || width <= 0 {
			return c.Errorf(2, "fold: invalid width %q", v)
		}
	}
	rs, st := openInputs(c, cl.Operands)
	if rs == nil {
		return st
	}
	lw := newLineWriter(c.Stdout)
	defer lw.Release()
	e := c.forEachLine(concatReaders(rs), func(line []byte) error {
		for len(line) > width {
			lw.WriteLine(line[:width])
			line = line[width:]
		}
		lw.WriteLine(line)
		return nil
	})
	if e != nil {
		return c.Errorf(1, "fold: %v", e)
	}
	lw.Flush()
	return 0
}

// nlCmd numbers non-empty lines (body numbering style t, the default).
func nlCmd(c *Context, args []string) int {
	cl, err := spec.Parse(args)
	if err != nil {
		return c.Errorf(2, "nl: %v", err)
	}
	rs, st := openInputs(c, cl.Operands)
	if rs == nil {
		return st
	}
	lw := newLineWriter(c.Stdout)
	defer lw.Release()
	n := 0
	e := c.forEachLine(concatReaders(rs), func(line []byte) error {
		if len(line) == 0 {
			lw.WriteLine([]byte("      \t"))
			return nil
		}
		n++
		lw.WriteString(fmt.Sprintf("%6d\t", n))
		lw.WriteLine(line)
		return nil
	})
	if e != nil {
		return c.Errorf(1, "nl: %v", e)
	}
	lw.Flush()
	return 0
}

// pasteCmd merges corresponding lines of its input files with tab (or the
// -d delimiter).
func pasteCmd(c *Context, args []string) int {
	cl, err := spec.Parse(args)
	if err != nil {
		return c.Errorf(2, "paste: %v", err)
	}
	delim := "\t"
	if v, ok := cl.Value('d'); ok && v != "" {
		delim = v[:1]
	}
	rs, st := openInputs(c, cl.Operands)
	if rs == nil {
		return st
	}
	var columns [][]string
	for _, r := range rs {
		lines, e := c.readLines(r)
		if e != nil {
			return c.Errorf(1, "paste: %v", e)
		}
		columns = append(columns, lines)
	}
	maxLen := 0
	for _, col := range columns {
		if len(col) > maxLen {
			maxLen = len(col)
		}
	}
	lw := newLineWriter(c.Stdout)
	defer lw.Release()
	for i := 0; i < maxLen; i++ {
		parts := make([]string, len(columns))
		for j, col := range columns {
			if i < len(col) {
				parts[j] = col[i]
			}
		}
		lw.WriteLine([]byte(strings.Join(parts, delim)))
	}
	lw.Flush()
	return 0
}

// yesCmd repeats its argument (default "y") until the consumer hangs up.
func yesCmd(c *Context, args []string) int {
	word := "y"
	if len(args) > 1 {
		word = strings.Join(args[1:], " ")
	}
	lw := newLineWriter(c.Stdout)
	defer lw.Release()
	for lw.WriteLine([]byte(word)) {
		if !lw.Flush() || c.Cancelled() {
			break
		}
	}
	return 0
}

// wcCounts is one operand's tallies.
type wcCounts struct{ lines, words, chars int64 }

func (n *wcCounts) add(m wcCounts) {
	n.lines += m.lines
	n.words += m.words
	n.chars += m.chars
}

func wcTally(r io.Reader, buf []byte, needWords bool) (wcCounts, error) {
	var n wcCounts
	inWord := false
	for {
		k, e := r.Read(buf)
		chunk := buf[:k]
		n.chars += int64(k)
		if !needWords {
			// Newline-only scan: let bytes.IndexByte skip whole blocks.
			for {
				i := bytes.IndexByte(chunk, '\n')
				if i < 0 {
					break
				}
				n.lines++
				chunk = chunk[i+1:]
			}
		} else {
			for _, b := range chunk {
				if b == '\n' {
					n.lines++
				}
				isSpace := b == ' ' || b == '\t' || b == '\n' || b == '\r' || b == '\v' || b == '\f'
				if isSpace {
					inWord = false
				} else if !inWord {
					inWord = true
					n.words++
				}
			}
		}
		if e == io.EOF {
			return n, nil
		}
		if e != nil {
			return n, e
		}
	}
}

// wcCmd counts lines (-l), words (-w), and bytes (-c); default all three.
// With file operands it prints one row per file, suffixed with the file
// name, plus a "total" row when more than one operand was given. Reading
// stdin alone keeps the bare numeric format (which the parallel sum
// aggregator depends on).
func wcCmd(c *Context, args []string) int {
	cl, err := spec.Parse(args)
	if err != nil {
		return c.Errorf(2, "wc: %v", err)
	}
	showL, showW, showC := cl.Has('l'), cl.Has('w'), cl.Has('c')
	if !showL && !showW && !showC {
		showL, showW, showC = true, true, true
	}
	rs, st := openInputs(c, cl.Operands)
	if rs == nil {
		return st
	}
	row := func(n wcCounts, name string) {
		var parts []string
		if showL {
			parts = append(parts, fmt.Sprintf("%d", n.lines))
		}
		if showW {
			parts = append(parts, fmt.Sprintf("%d", n.words))
		}
		if showC {
			parts = append(parts, fmt.Sprintf("%d", n.chars))
		}
		if name != "" {
			parts = append(parts, name)
		}
		fmt.Fprintln(c.Stdout, strings.Join(parts, " "))
	}
	buf := pipe.GetBlock()[:pipe.BlockSize]
	defer pipe.PutBlock(buf)
	var total wcCounts
	for i, r := range rs {
		n, e := wcTally(r, buf, showW)
		if e != nil {
			return c.Errorf(1, "wc: %v", e)
		}
		if len(cl.Operands) == 0 {
			row(n, "")
			return 0
		}
		row(n, cl.Operands[i])
		total.add(n)
	}
	if len(cl.Operands) > 1 {
		row(total, "total")
	}
	return 0
}
