package coreutils

import (
	"bytes"
	"fmt"
	"io"
	"math"
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
		n := 0
		for _, r := range rs {
			e := c.forEachLine(r, func(line []byte) error {
				n++
				c.out.WriteString(fmt.Sprintf("%6d\t", n))
				c.out.writeLine(line)
				return nil
			})
			if e != nil {
				return c.Errorf(1, "cat: %v", e)
			}
		}
		return 0
	}
	for _, r := range rs {
		if err := c.out.copy(r); err != nil {
			return c.Errorf(1, "cat: %v", err)
		}
	}
	return 0
}

// Cat copies r to w as cat does, under run's rule: it returns r's error,
// and StatusBrokenPipe once a write has failed. The executor's sources
// stream through it.
func Cat(w io.Writer, r io.Reader) (int, error) {
	var err error
	status := (&Context{Stdout: w}).run(func(c *Context, _ []string) int {
		err = c.out.copy(r)
		return 0
	}, nil)
	return status, err
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
		if err := c.out.copy(io.LimitReader(concatReaders(rs), n)); err != nil {
			return c.Errorf(1, "head: %v", err)
		}
		return 0
	}
	n := int64(10)
	if v, ok := cl.Value('n'); ok {
		n, err = strconv.ParseInt(v, 10, 64)
		if err != nil || n < 0 {
			return c.Errorf(2, "head: invalid line count %q", v)
		}
	}
	var seen int64
	e := c.forEachLine(concatReaders(rs), func(line []byte) error {
		if seen >= n {
			return io.EOF
		}
		seen++
		c.out.writeLine(line)
		return nil
	})
	if e != nil {
		return c.Errorf(1, "head: %v", e)
	}
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
	for _, line := range keep.lines {
		c.out.writeLine(line)
	}
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

// printfCmd implements the POSIX printf utility for the conversions
// %s %b %c %d %i %o %u %x %X %e %E %f %g %G %% and the escapes of
// printfEscape. The format is reused until all arguments are consumed, per
// POSIX; an unknown directive ends it with dash's diagnostic and status.
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
	status := 0
	// emit runs the format once. It returns the directive it does not
	// know, and whether a \c in a %b operand ended all output.
	emit := func() (invalid string, stop bool) {
		j := 0
		for j < len(format) {
			ch := format[j]
			switch ch {
			case '\\':
				text, n, _ := printfEscape(format[j:], false)
				b.WriteString(text)
				j += n
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
				case 'b':
					text, stop := printfOperand(nextArg())
					fmt.Fprintf(&b, spec+"s", text)
					if stop {
						return "", true
					}
				case 'c':
					// An empty operand's first character is its NUL.
					b.WriteByte((nextArg() + "\x00")[0])
				case 'd', 'i', 'x', 'X', 'o', 'u':
					arg := nextArg()
					n, diag := printfInt(arg, verb != 'd' && verb != 'i')
					if diag != "" {
						status = c.Errorf(1, "printf: %s: %s", arg, diag)
					}
					switch verb {
					case 'd', 'i':
						fmt.Fprintf(&b, spec+"d", int64(n))
					case 'u':
						fmt.Fprintf(&b, spec+"d", n)
					default:
						fmt.Fprintf(&b, spec+string(verb), n)
					}
				case 'f', 'e', 'E', 'g', 'G':
					f, _ := strconv.ParseFloat(strings.TrimSpace(nextArg()), 64)
					fmt.Fprintf(&b, spec+string(verb), f)
				default:
					return spec + string(verb), false
				}
			default:
				b.WriteByte(ch)
				j++
			}
		}
		return "", false
	}
	// The format is reused while operands remain, as long as a pass
	// consumes one: a format with no conversion prints once.
	for {
		start := i
		invalid, stop := emit()
		if invalid != "" {
			io.WriteString(c.Stdout, b.String())
			return c.Errorf(2, "printf: %s: invalid directive", invalid)
		}
		if stop || i >= len(operands) || i == start {
			break
		}
	}
	io.WriteString(c.Stdout, b.String())
	return status
}

// printfInt converts the operand of a numeric conversion as dash does:
// blanks, a sign, then a decimal, octal (leading 0) or hexadecimal (0x)
// integer; or a quote, which makes the next character's code the value.
// The value is 64 bits, wrapped for a negative operand of an unsigned
// conversion and clamped when out of range; diag is the diagnostic owed
// for an operand that is not wholly a number.
func printfInt(s string, unsigned bool) (n uint64, diag string) {
	switch {
	case s == "":
		return 0, ""
	case s[0] == '\'' || s[0] == '"':
		return uint64((s + "\x00")[1]), ""
	}
	t := strings.TrimLeft(s, " \t\n\v\f\r")
	neg := strings.HasPrefix(t, "-")
	if neg || strings.HasPrefix(t, "+") {
		t = t[1:]
	}
	base, digits := 10, "0123456789"
	if len(t) > 2 && t[0] == '0' && (t[1] == 'x' || t[1] == 'X') && strings.IndexByte("0123456789abcdefABCDEF", t[2]) >= 0 {
		base, digits, t = 16, "0123456789abcdefABCDEF", t[2:]
	} else if strings.HasPrefix(t, "0") {
		base, digits = 8, "01234567"
	}
	end := 0
	for end < len(t) && strings.IndexByte(digits, t[end]) >= 0 {
		end++
	}
	if end == 0 {
		return 0, "expected numeric value"
	}
	n, err := strconv.ParseUint(t[:end], base, 64)
	switch {
	case unsigned && err != nil:
		n, diag = math.MaxUint64, "Numerical result out of range"
	case !unsigned && neg && (err != nil || n > 1<<63):
		n, diag = 1<<63, "Numerical result out of range"
	case !unsigned && !neg && (err != nil || n > math.MaxInt64):
		n, diag = math.MaxInt64, "Numerical result out of range"
	case neg:
		n = -n
	}
	if diag == "" && end < len(t) {
		diag = "not completely converted"
	}
	return n, diag
}

// printfEscape decodes the backslash escape s starts with and returns the
// text it stands for and its length. An octal escape is one to three
// digits in a format; in a %b operand it is \0 and up to three digits, or
// one to three digits starting 1–7. \c, in an operand, ends all output:
// stop reports it. An escape printf does not know stands for itself.
func printfEscape(s string, operand bool) (text string, n int, stop bool) {
	if len(s) < 2 {
		return s, len(s), false
	}
	j := 1
	if operand && s[1] == '0' {
		j = 2
	}
	k, val := j, 0
	for k < len(s) && k < j+3 && s[k] >= '0' && s[k] <= '7' {
		val = val*8 + int(s[k]-'0')
		k++
	}
	if k > 1 {
		return string([]byte{byte(val)}), k, false
	}
	if named := strings.IndexByte("\\abefnrtv", s[1]); named >= 0 {
		return "\\\a\b\x1b\f\n\r\t\v"[named : named+1], 2, false
	}
	if operand && s[1] == 'c' {
		return "", 2, true
	}
	return s[:2], 2, false
}

// printfOperand is a %b operand with its escapes decoded; stop reports a
// \c, which ends it and all further output.
func printfOperand(s string) (string, bool) {
	if !strings.Contains(s, "\\") {
		return s, false
	}
	var b strings.Builder
	for j := 0; j < len(s); {
		if s[j] != '\\' {
			b.WriteByte(s[j])
			j++
			continue
		}
		text, n, stop := printfEscape(s[j:], true)
		if stop {
			return b.String(), true
		}
		b.WriteString(text)
		j += n
	}
	return b.String(), false
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
	_ = c.out.copy(&counter{next: first, incr: incr, last: last}) // a counter never fails to read
	return 0
}

// counter reads as seq's output: its numbers, one per line, into blocks
// (copy's), which hold many.
type counter struct{ next, incr, last int64 }

func (n *counter) Read(p []byte) (int, error) {
	k := 0
	// 21 bytes hold any int64 and its newline.
	for len(p)-k >= 21 && (n.incr > 0 && n.next <= n.last || n.incr < 0 && n.next >= n.last) {
		k = len(strconv.AppendInt(p[:k], n.next, 10))
		p[k] = '\n'
		k++
		n.next += n.incr
	}
	if k == 0 {
		return 0, io.EOF
	}
	return k, nil
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
	e := c.forEachLine(concatReaders(rs), func(line []byte) error {
		rev := make([]byte, len(line))
		for i, b := range line {
			rev[len(line)-1-i] = b
		}
		c.out.writeLine(rev)
		return nil
	})
	if e != nil {
		return c.Errorf(1, "rev: %v", e)
	}
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
	e := c.forEachLine(concatReaders(rs), func(line []byte) error {
		for len(line) > width {
			c.out.writeLine(line[:width])
			line = line[width:]
		}
		c.out.writeLine(line)
		return nil
	})
	if e != nil {
		return c.Errorf(1, "fold: %v", e)
	}
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
	n := 0
	e := c.forEachLine(concatReaders(rs), func(line []byte) error {
		if len(line) == 0 {
			c.out.writeLine([]byte("      \t"))
			return nil
		}
		n++
		c.out.WriteString(fmt.Sprintf("%6d\t", n))
		c.out.writeLine(line)
		return nil
	})
	if e != nil {
		return c.Errorf(1, "nl: %v", e)
	}
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
	// Operands that name standard input share one cursor, so that each -
	// takes the next line of it.
	cursors := make([]*lineCursor, len(rs))
	var stdin *lineCursor
	for i, r := range rs {
		if len(cl.Operands) == 0 || cl.Operands[i] == "-" {
			if stdin == nil {
				stdin = c.cursor(r)
				defer stdin.close()
			}
			cursors[i] = stdin
			continue
		}
		cursors[i] = c.cursor(r)
		defer cursors[i].close()
	}
	var row []byte
	for {
		row = row[:0]
		more := false
		for i, cu := range cursors {
			if i > 0 {
				row = append(row, delim...)
			}
			if cu.next() {
				row = append(row, cu.line...)
				more = true
			}
		}
		if !more {
			break
		}
		c.out.writeLine(row)
	}
	for _, cu := range cursors {
		if cu.err != nil {
			return c.Errorf(1, "paste: %v", cu.err)
		}
	}
	return 0
}

// yesCmd repeats its argument (default "y") until the consumer hangs up.
func yesCmd(c *Context, args []string) int {
	line := "y\n"
	if len(args) > 1 {
		line = strings.Join(args[1:], " ") + "\n"
	}
	_ = c.out.copy(&repeater{line: line}) // a repeater never fails to read
	return 0
}

// repeater reads as its line over and over, without end.
type repeater struct {
	line string
	off  int // where in line the next read starts
}

func (r *repeater) Read(p []byte) (int, error) {
	for k := 0; k < len(p); {
		n := copy(p[k:], r.line[r.off:])
		k += n
		r.off = (r.off + n) % len(r.line)
	}
	return len(p), nil
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
