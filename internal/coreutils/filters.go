package coreutils

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"regexp"
	"sort"
	"strconv"
	"strings"

	"jash/internal/pipe"
	"jash/internal/spec"
)

func init() {
	Register("grep", grepCmd)
	Register("tr", trCmd)
	Register("cut", cutCmd)
	Register("sort", sortCmd)
	Register("uniq", uniqCmd)
	Register("comm", commCmd)
	Register("shuf", shufCmd)
	Register("split", splitCmd)
	Register("xargs", xargsCmd)
	Register("od", odCmd)
	Register("join", joinCmd)
}

// grepCmd searches lines for a pattern. Supported flags: -v (invert),
// -i (ignore case), -c (count), -q (quiet), -n (line numbers), -F (fixed
// string), -E (extended regexp; the default pattern syntax is also RE2,
// which covers POSIX BREs used in practice). Exit status 0 if any line
// matched, 1 if none, 2 on error.
func grepCmd(c *Context, args []string) int {
	cl, err := spec.Parse(args)
	if err != nil {
		return c.Errorf(2, "grep: %v", err)
	}
	pats := cl.Scripts()
	pat := pats[len(pats)-1]
	var matchLine func([]byte) bool
	if cl.Has('F') {
		needle := pat
		if cl.Has('i') {
			needle = strings.ToLower(needle)
			matchLine = func(line []byte) bool {
				return strings.Contains(strings.ToLower(string(line)), needle)
			}
		} else {
			matchLine = func(line []byte) bool { return bytes.Contains(line, []byte(needle)) }
		}
	} else {
		expr := pat
		if cl.Has('i') {
			expr = "(?i)" + expr
		}
		re, rerr := regexp.Compile(expr)
		if rerr != nil {
			return c.Errorf(2, "grep: bad pattern %q: %v", pat, rerr)
		}
		matchLine = re.Match
	}
	invert := cl.Has('v')
	rs, st := openInputs(c, cl.Operands)
	if rs == nil {
		return st
	}
	lw := newLineWriter(c.Stdout)
	defer lw.Release()
	quiet := cl.Has('q')
	countOnly := cl.Has('c')
	number := cl.Has('n')
	var count, lineNo int64
	var scratch []byte // reused number prefix for -n
	matched := false
	e := c.forEachLine(concatReaders(rs), func(line []byte) error {
		lineNo++
		m := matchLine(line)
		if m == invert {
			return nil
		}
		matched = true
		if quiet {
			return io.EOF
		}
		count++
		if countOnly {
			return nil
		}
		if number {
			scratch = strconv.AppendInt(scratch[:0], lineNo, 10)
			scratch = append(scratch, ':')
			lw.Write(scratch)
		}
		lw.WriteLine(line)
		return nil
	})
	if e != nil {
		return c.Errorf(2, "grep: %v", e)
	}
	if countOnly {
		scratch = strconv.AppendInt(scratch[:0], count, 10)
		lw.WriteLine(scratch)
	}
	lw.Flush()
	if matched {
		return 0
	}
	return 1
}

// trSet expands a tr set specification: character ranges (a-z), octal and
// escape sequences (\n, \t, \\), and character classes [:alpha:] etc.
func trSet(spec string) ([]byte, error) {
	var out []byte
	i := 0
	for i < len(spec) {
		ch := spec[i]
		if ch == '\\' && i+1 < len(spec) {
			i++
			switch spec[i] {
			case 'n':
				out = append(out, '\n')
			case 't':
				out = append(out, '\t')
			case 'r':
				out = append(out, '\r')
			case '\\':
				out = append(out, '\\')
			default:
				// Octal \NNN
				if spec[i] >= '0' && spec[i] <= '7' {
					val := 0
					n := 0
					for i < len(spec) && n < 3 && spec[i] >= '0' && spec[i] <= '7' {
						val = val*8 + int(spec[i]-'0')
						i++
						n++
					}
					i--
					out = append(out, byte(val))
				} else {
					out = append(out, spec[i])
				}
			}
			i++
			continue
		}
		if ch == '[' && i+1 < len(spec) && spec[i+1] == ':' {
			end := strings.Index(spec[i:], ":]")
			if end > 0 {
				class := spec[i+2 : i+end]
				expanded, ok := charClass(class)
				if !ok {
					return nil, fmt.Errorf("unknown character class [:%s:]", class)
				}
				out = append(out, expanded...)
				i += end + 2
				continue
			}
		}
		if i+2 < len(spec) && spec[i+1] == '-' && spec[i+2] >= ch {
			for b := ch; b <= spec[i+2]; b++ {
				out = append(out, b)
			}
			i += 3
			continue
		}
		out = append(out, ch)
		i++
	}
	return out, nil
}

func charClass(name string) ([]byte, bool) {
	var out []byte
	switch name {
	case "lower":
		for b := byte('a'); b <= 'z'; b++ {
			out = append(out, b)
		}
	case "upper":
		for b := byte('A'); b <= 'Z'; b++ {
			out = append(out, b)
		}
	case "digit":
		for b := byte('0'); b <= '9'; b++ {
			out = append(out, b)
		}
	case "alpha":
		la, _ := charClass("upper")
		lb, _ := charClass("lower")
		out = append(la, lb...)
	case "alnum":
		la, _ := charClass("alpha")
		lb, _ := charClass("digit")
		out = append(la, lb...)
	case "space":
		out = []byte(" \t\n\v\f\r")
	default:
		return nil, false
	}
	return out, true
}

// trCmd translates, squeezes, or deletes characters: tr SET1 SET2,
// tr -d SET1, tr -s SET1 [SET2], tr -cs SET1 SET2 (the spell-script form).
func trCmd(c *Context, args []string) int {
	cl, err := spec.Parse(args)
	if err != nil {
		return c.Errorf(2, "tr: %v", err)
	}
	complement := cl.Has('c') || cl.Has('C')
	squeeze := cl.Has('s')
	del := cl.Has('d')
	if len(cl.Operands) < 1 {
		return c.Errorf(2, "tr: missing operand")
	}
	set1, err := trSet(cl.Operands[0])
	if err != nil {
		return c.Errorf(2, "tr: %v", err)
	}
	var set2 []byte
	if len(cl.Operands) > 1 {
		set2, err = trSet(cl.Operands[1])
		if err != nil {
			return c.Errorf(2, "tr: %v", err)
		}
	}
	var inSet1 [256]bool
	for _, b := range set1 {
		inSet1[b] = true
	}
	if complement {
		for i := range inSet1 {
			inSet1[i] = !inSet1[i]
		}
	}
	// Translation table.
	var xlate [256]byte
	for i := range xlate {
		xlate[i] = byte(i)
	}
	if len(set2) > 0 && !del {
		if complement {
			// POSIX: complemented set maps every member to the last char of set2.
			last := set2[len(set2)-1]
			for i := 0; i < 256; i++ {
				if inSet1[i] {
					xlate[i] = last
				}
			}
		} else {
			for i, b := range set1 {
				if i < len(set2) {
					xlate[b] = set2[i]
				} else {
					xlate[b] = set2[len(set2)-1]
				}
			}
		}
	}
	// Squeeze set: set2 when translating, set1 when only squeezing.
	var inSqueeze [256]bool
	if squeeze {
		sq := set2
		if len(sq) == 0 {
			sq = set1
			if complement {
				for i := 0; i < 256; i++ {
					inSqueeze[i] = inSet1[i]
				}
			}
		}
		for _, b := range sq {
			inSqueeze[b] = true
		}
	}
	// A pure 1:1 translation (no delete, no squeeze) can rewrite the chunk
	// in place and skip the output-accumulation pass entirely.
	passthrough := !del && !squeeze
	out := newLineWriter(c.Stdout)
	defer out.Release()
	var lastOut int = -1
	buf := pipe.GetBlock()[:pipe.BlockSize]
	outBuf := pipe.GetBlock()
	defer func() {
		pipe.PutBlock(buf)
		pipe.PutBlock(outBuf)
	}()
	for {
		// tr streams chunks, not lines, so it polls cancellation per chunk.
		if c.Cancelled() {
			break
		}
		n, e := c.Stdin.Read(buf)
		chunk := buf[:n]
		if passthrough {
			for i, b := range chunk {
				chunk[i] = xlate[b]
			}
			if len(chunk) > 0 {
				if _, werr := out.Write(chunk); werr != nil {
					break
				}
			}
		} else {
			outBuf = outBuf[:0]
			for _, b := range chunk {
				if del && inSet1[b] {
					continue
				}
				ob := b
				if !del {
					ob = xlate[b]
				}
				if squeeze && inSqueeze[ob] && int(ob) == lastOut {
					continue
				}
				lastOut = int(ob)
				outBuf = append(outBuf, ob)
			}
			if len(outBuf) > 0 {
				if _, werr := out.Write(outBuf); werr != nil {
					break
				}
			}
		}
		if e == io.EOF {
			break
		}
		if e != nil {
			return c.Errorf(1, "tr: %v", e)
		}
	}
	out.Flush()
	return 0
}

// cutRange is a half-open [lo, hi] 1-based inclusive range.
type cutRange struct{ lo, hi int }

// parseCutList parses a -c/-f LIST. what names the unit ("field" or
// "byte/character position") so the diagnostics match GNU cut's: zero
// endpoints ("fields are numbered from 1"), reversed ranges ("invalid
// decreasing range"), and overflowing numbers ("... is too large") each
// get their own message instead of a leaked strconv error.
func parseCutList(spec, what string) ([]cutRange, error) {
	number := func(s string) (int, error) {
		n, err := strconv.Atoi(s)
		if err != nil {
			if errors.Is(err, strconv.ErrRange) {
				return 0, fmt.Errorf("%s number %q is too large", what, s)
			}
			return 0, fmt.Errorf("invalid %s value %q", what, s)
		}
		if n < 0 {
			// A leading dash was already split off as a range, so a
			// negative here is a double dash or similar malformation.
			return 0, fmt.Errorf("invalid %s value %q", what, s)
		}
		return n, nil
	}
	var ranges []cutRange
	for _, part := range strings.Split(spec, ",") {
		if part == "" {
			continue
		}
		lo, hi := 1, 1<<30
		openHi := true
		if dash := strings.IndexByte(part, '-'); dash >= 0 {
			var err error
			if dash > 0 {
				if lo, err = number(part[:dash]); err != nil {
					return nil, err
				}
			}
			if dash < len(part)-1 {
				if hi, err = number(part[dash+1:]); err != nil {
					return nil, err
				}
				openHi = false
			}
		} else {
			n, err := number(part)
			if err != nil {
				return nil, err
			}
			lo, hi = n, n
			openHi = false
		}
		if lo == 0 || (!openHi && hi == 0) {
			return nil, fmt.Errorf("%ss are numbered from 1", what)
		}
		if hi < lo {
			return nil, fmt.Errorf("invalid decreasing range %q", part)
		}
		ranges = append(ranges, cutRange{lo, hi})
	}
	if len(ranges) == 0 {
		return nil, fmt.Errorf("you must specify a list of %ss", what)
	}
	return ranges, nil
}

// cutCmd selects character positions (-c LIST) or fields (-f LIST with -d
// delimiter, default tab) from each line.
func cutCmd(c *Context, args []string) int {
	cl, err := spec.Parse(args)
	if err != nil {
		return c.Errorf(2, "cut: %v", err)
	}
	rs, st := openInputs(c, cl.Operands)
	if rs == nil {
		return st
	}
	lw := newLineWriter(c.Stdout)
	defer lw.Release()
	scratch := pipe.GetBlock()
	defer func() { pipe.PutBlock(scratch) }()
	cList, byChar := cl.Value('c')
	fList, byField := cl.Value('f')
	switch {
	case byChar:
		// List errors exit 1 with the GNU diagnostic, not the generic
		// usage status.
		ranges, err := parseCutList(cList, "byte/character position")
		if err != nil {
			return c.Errorf(1, "cut: %v", err)
		}
		e := c.forEachLine(concatReaders(rs), func(line []byte) error {
			scratch = scratch[:0]
			for _, r := range ranges {
				lo, hi := r.lo-1, r.hi
				if lo >= len(line) {
					continue
				}
				if hi > len(line) {
					hi = len(line)
				}
				scratch = append(scratch, line[lo:hi]...)
			}
			lw.WriteLine(scratch)
			return nil
		})
		if e != nil {
			return c.Errorf(1, "cut: %v", e)
		}
	case byField:
		ranges, err := parseCutList(fList, "field")
		if err != nil {
			return c.Errorf(1, "cut: %v", err)
		}
		delim := byte('\t')
		if v, ok := cl.Value('d'); ok && v != "" {
			delim = v[0]
		}
		// Field boundaries are recomputed per line into a reused index
		// slice; fields stay as subslices of the input line, so the loop
		// allocates nothing on the steady state.
		var bounds []int // field i spans line[bounds[2i]:bounds[2i+1]]
		e := c.forEachLine(concatReaders(rs), func(line []byte) error {
			if bytes.IndexByte(line, delim) < 0 {
				// Lines without the delimiter pass through unchanged.
				lw.WriteLine(line)
				return nil
			}
			bounds = bounds[:0]
			start := 0
			for {
				i := bytes.IndexByte(line[start:], delim)
				if i < 0 {
					bounds = append(bounds, start, len(line))
					break
				}
				bounds = append(bounds, start, start+i)
				start += i + 1
			}
			nfields := len(bounds) / 2
			scratch = scratch[:0]
			first := true
			for _, r := range ranges {
				lo, hi := r.lo-1, r.hi
				if lo >= nfields {
					continue
				}
				if hi > nfields {
					hi = nfields
				}
				for f := lo; f < hi; f++ {
					if !first {
						scratch = append(scratch, delim)
					}
					first = false
					scratch = append(scratch, line[bounds[2*f]:bounds[2*f+1]]...)
				}
			}
			lw.WriteLine(scratch)
			return nil
		})
		if e != nil {
			return c.Errorf(1, "cut: %v", e)
		}
	default:
		return c.Errorf(2, "cut: need -c or -f")
	}
	lw.Flush()
	return 0
}

// sortKey extracts the comparison key per the flags: whole line, or field
// -k N (1-based, to end of line per POSIX default).
type sortConfig struct {
	numeric bool
	reverse bool
	unique  bool
	field   int    // 0 = whole line
	sep     string // field separator for -t
}

func (cfg sortConfig) key(line string) string {
	if cfg.field <= 0 {
		return line
	}
	var fields []string
	if cfg.sep != "" {
		fields = strings.Split(line, cfg.sep)
	} else {
		fields = splitFields(line)
	}
	if cfg.field-1 < len(fields) {
		return strings.Join(fields[cfg.field-1:], " ")
	}
	return ""
}

func (cfg sortConfig) less(a, b string) bool {
	ka, kb := cfg.key(a), cfg.key(b)
	var r bool
	if cfg.numeric {
		na := leadingNumber(ka)
		nb := leadingNumber(kb)
		if na != nb {
			r = na < nb
		} else {
			r = ka < kb
		}
	} else {
		r = ka < kb
	}
	if cfg.reverse {
		return !r && ka != kb
	}
	return r
}

// leadingNumber parses the numeric prefix of a string as sort -n does:
// optional blanks, optional sign, digits, optional fraction.
func leadingNumber(s string) float64 {
	s = strings.TrimLeft(s, " \t")
	end := 0
	if end < len(s) && (s[end] == '-' || s[end] == '+') {
		end++
	}
	for end < len(s) && s[end] >= '0' && s[end] <= '9' {
		end++
	}
	if end < len(s) && s[end] == '.' {
		end++
		for end < len(s) && s[end] >= '0' && s[end] <= '9' {
			end++
		}
	}
	f, err := strconv.ParseFloat(strings.TrimSpace(s[:end]), 64)
	if err != nil {
		return 0
	}
	return f
}

// parseSortArgs parses sort's argv into the comparison config, shared by
// sortCmd and the executor's streaming merge entry point.
func parseSortArgs(argv []string) (spec.Parsed, sortConfig, error) {
	cl, err := spec.Parse(argv)
	if err != nil {
		return cl, sortConfig{}, err
	}
	cfg := sortConfig{
		numeric: cl.Has('n'),
		reverse: cl.Has('r'),
		unique:  cl.Has('u'),
	}
	cfg.sep, _ = cl.Value('t')
	if v, ok := cl.Value('k'); ok {
		// Accept "N" and "N,M"; we honour the start field.
		numPart := v
		if comma := strings.IndexByte(v, ','); comma >= 0 {
			numPart = v[:comma]
		}
		if dot := strings.IndexByte(numPart, '.'); dot >= 0 {
			numPart = numPart[:dot]
		}
		cfg.field, err = strconv.Atoi(numPart)
		if err != nil || cfg.field < 1 {
			return cl, sortConfig{}, errLine("invalid key " + v)
		}
	}
	return cl, cfg, nil
}

// sortCmd sorts lines. Flags: -n numeric, -r reverse, -u unique, -m merge
// already-sorted inputs (the aggregator PaSh relies on), -k FIELD,
// -t SEP, -c check (exit 1 if unsorted), -o FILE write the result to FILE
// instead of standard output.
func sortCmd(c *Context, args []string) int {
	cl, cfg, err := parseSortArgs(args)
	if err != nil {
		return c.Errorf(2, "sort: %v", err)
	}
	rs, st := openInputs(c, cl.Operands)
	if rs == nil {
		return st
	}
	if cl.Has('c') {
		var prev string
		first := true
		bad := false
		e := c.forEachLine(concatReaders(rs), func(line []byte) error {
			s := string(line)
			if !first && cfg.less(s, prev) {
				bad = true
				return io.EOF
			}
			prev, first = s, false
			return nil
		})
		if e != nil {
			return c.Errorf(2, "sort: %v", e)
		}
		if bad {
			return 1
		}
		return 0
	}
	// -o FILE may name one of the inputs (sort -o f f), so the result is
	// held back and FILE is created only once every input has been read.
	out := c.Stdout
	outFile, toFile := cl.Value('o')
	var held bytes.Buffer
	if toFile {
		out = &held
	}
	lw := newLineWriter(out)
	defer lw.Release()
	if cl.Has('m') {
		// k-way merge of pre-sorted inputs.
		if st := mergeSorted(c, rs, cfg, lw); st != 0 {
			return st
		}
	} else {
		var lines []string
		for _, r := range rs {
			ls, e := c.readLines(r)
			if e != nil {
				return c.Errorf(2, "sort: %v", e)
			}
			lines = append(lines, ls...)
		}
		sort.SliceStable(lines, func(i, j int) bool { return cfg.less(lines[i], lines[j]) })
		var prev string
		first := true
		for _, line := range lines {
			if cfg.unique && !first && line == prev {
				continue
			}
			lw.WriteLine([]byte(line))
			prev, first = line, false
		}
	}
	lw.Flush()
	if toFile {
		w, e := c.FS.Create(c.Lookup(outFile))
		if e == nil {
			_, e = w.Write(held.Bytes())
			if ce := w.Close(); e == nil {
				e = ce
			}
		}
		if e != nil {
			return c.Errorf(2, "sort: %s: %v", outFile, e)
		}
	}
	return 0
}

// lineCursor pulls one line at a time from a stream, for the k-way merge.
// Holding a single line per input is what keeps `sort -m` memory bounded
// by the number of inputs, not their size.
type lineCursor struct {
	s    *bufio.Scanner
	line string
	done bool
	err  error
}

func newLineCursor(r io.Reader) *lineCursor {
	s := bufio.NewScanner(r)
	s.Buffer(make([]byte, pipe.BlockSize), maxLine)
	cu := &lineCursor{s: s}
	cu.advance()
	return cu
}

func (cu *lineCursor) advance() {
	if cu.s.Scan() {
		cu.line = cu.s.Text()
		return
	}
	cu.done = true
	cu.err = cu.s.Err()
}

// mergeSorted merges pre-sorted line streams incrementally, honouring -u.
// Ties go to the lowest-index input, which over consecutive chunks of a
// stable-sorted whole reproduces that whole exactly — the property the
// executor's order-aware merge relies on for byte-identical parallel runs.
func mergeSorted(c *Context, rs []io.Reader, cfg sortConfig, lw *lineWriter) int {
	cursors := make([]*lineCursor, 0, len(rs))
	for _, r := range rs {
		cursors = append(cursors, newLineCursor(r))
	}
	var prev string
	first := true
	polled := 0
	for {
		// The k-way merge pulls one line per iteration and can run far
		// from any pipe operation on buffered lanes; poll periodically.
		polled++
		if polled%cancelPollLines == 0 && c.Cancelled() {
			return 0
		}
		best := -1
		for i, cu := range cursors {
			if cu.done {
				if cu.err != nil {
					return c.Errorf(2, "sort: %v", cu.err)
				}
				continue
			}
			if best < 0 || cfg.less(cu.line, cursors[best].line) {
				best = i
			}
		}
		if best < 0 {
			return 0
		}
		line := cursors[best].line
		cursors[best].advance()
		if cfg.unique && !first && line == prev {
			continue
		}
		lw.WriteLine([]byte(line))
		prev, first = line, false
	}
}

// MergeSortedStreams is the executor's entry point for the order-aware
// merge: it runs `sort -m` semantics directly over open streams, so
// parallel lane outputs merge without materializing to files. argv is the
// merge command vector (e.g. ["sort", "-m", "-n"]); any file operands in
// it are ignored in favour of ins.
func MergeSortedStreams(c *Context, argv []string, ins []io.Reader) int {
	cl, cfg, err := parseSortArgs(argv)
	if err != nil {
		return c.Errorf(2, "sort: %v", err)
	}
	if !cl.Has('m') {
		return c.Errorf(2, "sort: MergeSortedStreams requires -m")
	}
	lw := newLineWriter(c.Stdout)
	defer lw.Release()
	if st := mergeSorted(c, ins, cfg, lw); st != 0 {
		return st
	}
	lw.Flush()
	return 0
}

// uniqCmd filters adjacent duplicate lines: -c prefixes counts, -d prints
// only duplicated lines, -u prints only unique lines.
func uniqCmd(c *Context, args []string) int {
	cl, err := spec.Parse(args)
	if err != nil {
		return c.Errorf(2, "uniq: %v", err)
	}
	rs, st := openInputs(c, cl.Operands)
	if rs == nil {
		return st
	}
	lw := newLineWriter(c.Stdout)
	defer lw.Release()
	var cur []byte
	count := 0
	flush := func() {
		if count == 0 {
			return
		}
		switch {
		case cl.Has('c'):
			lw.WriteString(fmt.Sprintf("%7d ", count))
			lw.WriteLine(cur)
		case cl.Has('d'):
			if count > 1 {
				lw.WriteLine(cur)
			}
		case cl.Has('u'):
			if count == 1 {
				lw.WriteLine(cur)
			}
		default:
			lw.WriteLine(cur)
		}
	}
	e := c.forEachLine(concatReaders(rs), func(line []byte) error {
		if count > 0 && bytes.Equal(line, cur) {
			count++
			return nil
		}
		flush()
		cur = bytesClone(line)
		count = 1
		return nil
	})
	if e != nil {
		return c.Errorf(1, "uniq: %v", e)
	}
	flush()
	lw.Flush()
	return 0
}

// commCmd compares two sorted files line by line, printing up to three
// columns: lines only in file1, only in file2, and common lines. Flags
// -1 -2 -3 suppress the corresponding column (so `comm -13 a b` prints
// lines unique to file2 — the spell script's usage).
func commCmd(c *Context, args []string) int {
	cl, err := spec.Parse(args)
	if err != nil {
		return c.Errorf(2, "comm: %v", err)
	}
	if len(cl.Operands) != 2 {
		return c.Errorf(2, "comm: need exactly two files")
	}
	rs, st := openInputs(c, cl.Operands)
	if rs == nil {
		return st
	}
	a, e1 := c.readLines(rs[0])
	if e1 != nil {
		return c.Errorf(1, "comm: %v", e1)
	}
	b, e2 := c.readLines(rs[1])
	if e2 != nil {
		return c.Errorf(1, "comm: %v", e2)
	}
	show1, show2, show3 := !cl.Has('1'), !cl.Has('2'), !cl.Has('3')
	// Column indentation depends on which earlier columns are shown.
	indent2 := ""
	if show1 {
		indent2 = "\t"
	}
	indent3 := indent2
	if show2 {
		indent3 += "\t"
	}
	lw := newLineWriter(c.Stdout)
	defer lw.Release()
	i, j := 0, 0
	for i < len(a) || j < len(b) {
		switch {
		case j >= len(b) || (i < len(a) && a[i] < b[j]):
			if show1 {
				lw.WriteLine([]byte(a[i]))
			}
			i++
		case i >= len(a) || b[j] < a[i]:
			if show2 {
				lw.WriteLine([]byte(indent2 + b[j]))
			}
			j++
		default:
			if show3 {
				lw.WriteLine([]byte(indent3 + a[i]))
			}
			i++
			j++
		}
	}
	lw.Flush()
	return 0
}

// shufCmd outputs a random permutation of its input lines, seeded by the
// JASH_SEED environment variable for determinism (default seed 1).
func shufCmd(c *Context, args []string) int {
	cl, err := spec.Parse(args)
	if err != nil {
		return c.Errorf(2, "shuf: %v", err)
	}
	rs, st := openInputs(c, cl.Operands)
	if rs == nil {
		return st
	}
	lines, e := c.readLines(concatReaders(rs))
	if e != nil {
		return c.Errorf(1, "shuf: %v", e)
	}
	seed := uint64(1)
	if s := c.Env("JASH_SEED"); s != "" {
		if v, err := strconv.ParseUint(s, 10, 64); err == nil {
			seed = v
		}
	}
	rng := seed
	next := func(n int) int {
		// xorshift64*
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return int((rng * 2685821657736338717) % uint64(n))
	}
	for i := len(lines) - 1; i > 0; i-- {
		j := next(i + 1)
		lines[i], lines[j] = lines[j], lines[i]
	}
	limit := len(lines)
	if v, ok := cl.Value('n'); ok {
		limit, err = strconv.Atoi(v)
		if err != nil || limit < 0 {
			return c.Errorf(2, "shuf: invalid count %q", v)
		}
		if limit > len(lines) {
			limit = len(lines)
		}
	}
	lw := newLineWriter(c.Stdout)
	defer lw.Release()
	for _, line := range lines[:limit] {
		lw.WriteLine([]byte(line))
	}
	lw.Flush()
	return 0
}

// splitCmd splits input into fixed-size pieces: -l LINES per piece
// (default 1000), writing PREFIXaa, PREFIXab, ... (default prefix "x").
func splitCmd(c *Context, args []string) int {
	cl, err := spec.Parse(args)
	if err != nil {
		return c.Errorf(2, "split: %v", err)
	}
	if cl.Has('b') {
		return c.Errorf(2, "split: -b is not supported")
	}
	per := 1000
	if v, ok := cl.Value('l'); ok {
		per, err = strconv.Atoi(v)
		if err != nil || per <= 0 {
			return c.Errorf(2, "split: invalid line count %q", v)
		}
	}
	var in io.Reader = c.Stdin
	prefix := "x"
	if len(cl.Operands) > 0 && cl.Operands[0] != "-" {
		r, e := c.FS.Open(c.Lookup(cl.Operands[0]))
		if e != nil {
			return c.Errorf(1, "split: %v", e)
		}
		in = r
	}
	if len(cl.Operands) > 1 {
		prefix = cl.Operands[1]
	}
	suffix := func(n int) string {
		return string([]byte{byte('a' + n/26), byte('a' + n%26)})
	}
	piece := 0
	var cur io.WriteCloser
	lines := 0
	e := c.forEachLine(in, func(line []byte) error {
		if cur == nil {
			var err error
			cur, err = c.FS.Create(c.Lookup(prefix + suffix(piece)))
			if err != nil {
				return err
			}
		}
		cur.Write(line)
		cur.Write([]byte{'\n'})
		lines++
		if lines >= per {
			cur.Close()
			cur = nil
			lines = 0
			piece++
		}
		return nil
	})
	if cur != nil {
		cur.Close()
	}
	if e != nil {
		return c.Errorf(1, "split: %v", e)
	}
	return 0
}

// xargsCmd builds and runs command lines from stdin items (whitespace
// separated). -n N limits items per invocation. The constructed command
// runs via the registry, so xargs composes with every other utility.
func xargsCmd(c *Context, args []string) int {
	cl, err := spec.Parse(args)
	if err != nil {
		return c.Errorf(2, "xargs: %v", err)
	}
	perCall := 0
	if v, ok := cl.Value('n'); ok {
		perCall, err = strconv.Atoi(v)
		if err != nil || perCall <= 0 {
			return c.Errorf(2, "xargs: invalid -n %q", v)
		}
	}
	cmdv := cl.Operands
	if len(cmdv) == 0 {
		cmdv = []string{"echo"}
	}
	fn, ok := Lookup(cmdv[0])
	if !ok {
		return c.Errorf(127, "xargs: %s: command not found", cmdv[0])
	}
	var items []string
	e := c.forEachLine(c.Stdin, func(line []byte) error {
		items = append(items, splitFields(string(line))...)
		return nil
	})
	if e != nil {
		return c.Errorf(1, "xargs: %v", e)
	}
	if perCall == 0 {
		perCall = len(items)
		if perCall == 0 {
			perCall = 1
		}
	}
	status := 0
	for start := 0; start < len(items); start += perCall {
		end := start + perCall
		if end > len(items) {
			end = len(items)
		}
		callArgs := append(append([]string{}, cmdv...), items[start:end]...)
		sub := *c
		sub.Stdin = strings.NewReader("")
		if st := fn(&sub, callArgs); st != 0 {
			status = st
		}
	}
	if len(items) == 0 {
		callArgs := append([]string{}, cmdv...)
		sub := *c
		sub.Stdin = strings.NewReader("")
		return fn(&sub, callArgs)
	}
	return status
}

// odCmd dumps input bytes; only the -c (character) format is supported.
func odCmd(c *Context, args []string) int {
	cl, err := spec.Parse(args)
	if err != nil {
		return c.Errorf(2, "od: %v", err)
	}
	rs, st := openInputs(c, cl.Operands)
	if rs == nil {
		return st
	}
	data, e := io.ReadAll(concatReaders(rs))
	if e != nil {
		return c.Errorf(1, "od: %v", e)
	}
	lw := newLineWriter(c.Stdout)
	defer lw.Release()
	for off := 0; off < len(data); off += 16 {
		end := off + 16
		if end > len(data) {
			end = len(data)
		}
		var b strings.Builder
		fmt.Fprintf(&b, "%07o", off)
		for _, ch := range data[off:end] {
			switch ch {
			case '\n':
				b.WriteString("  \\n")
			case '\t':
				b.WriteString("  \\t")
			case 0:
				b.WriteString("  \\0")
			default:
				if ch >= 32 && ch < 127 {
					fmt.Fprintf(&b, "   %c", ch)
				} else {
					fmt.Fprintf(&b, " %03o", ch)
				}
			}
		}
		lw.WriteLine([]byte(b.String()))
	}
	lw.WriteLine([]byte(fmt.Sprintf("%07o", len(data))))
	lw.Flush()
	return 0
}

// joinCmd joins two sorted files on their first fields (the POSIX default).
func joinCmd(c *Context, args []string) int {
	cl, err := spec.Parse(args)
	if err != nil {
		return c.Errorf(2, "join: %v", err)
	}
	if len(cl.Operands) != 2 {
		return c.Errorf(2, "join: need exactly two files")
	}
	rs, st := openInputs(c, cl.Operands)
	if rs == nil {
		return st
	}
	a, e1 := c.readLines(rs[0])
	if e1 != nil {
		return c.Errorf(1, "join: %v", e1)
	}
	b, e2 := c.readLines(rs[1])
	if e2 != nil {
		return c.Errorf(1, "join: %v", e2)
	}
	key := func(line string) string {
		f := splitFields(line)
		if len(f) == 0 {
			return ""
		}
		return f[0]
	}
	rest := func(line string) string {
		f := splitFields(line)
		if len(f) <= 1 {
			return ""
		}
		return " " + strings.Join(f[1:], " ")
	}
	lw := newLineWriter(c.Stdout)
	defer lw.Release()
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		ka, kb := key(a[i]), key(b[j])
		switch {
		case ka < kb:
			i++
		case kb < ka:
			j++
		default:
			// Emit the cross product of equal-key runs.
			iEnd := i
			for iEnd < len(a) && key(a[iEnd]) == ka {
				iEnd++
			}
			jEnd := j
			for jEnd < len(b) && key(b[jEnd]) == ka {
				jEnd++
			}
			for x := i; x < iEnd; x++ {
				for y := j; y < jEnd; y++ {
					lw.WriteLine([]byte(ka + rest(a[x]) + rest(b[y])))
				}
			}
			i, j = iEnd, jEnd
		}
	}
	lw.Flush()
	return 0
}
