package coreutils

import (
	"bytes"
	"errors"
	"fmt"
	"io"
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
// strings), -e (a pattern; repeatable), -E (extended regexp; the default
// pattern syntax is also RE2, which covers POSIX BREs used in practice).
// Exit status 0 if any line matched, 1 if none, 2 on error.
//
// grep reads whole runs of lines (lineCursor.lines) and finds the first
// matching line of a run: with bytes.Index when spec.ParseGrep made the
// pattern a fixed string, else line by line with the regexp. The lines
// before it are a block that does not match, written or counted whole.
func grepCmd(c *Context, args []string) int {
	cl, err := spec.Parse(args)
	if err != nil {
		return c.Errorf(2, "grep: %v", err)
	}
	pat, err := spec.ParseGrep(&cl)
	if err != nil {
		return c.Errorf(2, "grep: %v", err)
	}
	rs, st := openInputs(c, cl.Operands)
	if rs == nil {
		return st
	}
	g := grepper{out: &c.out, invert: cl.Has('v'), quiet: cl.Has('q'), countOnly: cl.Has('c'), number: cl.Has('n')}
	cu := c.cursor(concatReaders(rs))
	defer cu.close()
	for run := cu.lines(); len(run) > 0 && !g.stop; run = cu.lines() {
		for len(run) > 0 && !g.stop {
			start, end := firstMatch(&pat, run)
			g.emit(run[:start], g.invert)
			g.emit(run[start:end], !g.invert)
			run = run[end:]
		}
	}
	if cu.err != nil {
		return c.Errorf(2, "grep: %v", cu.err)
	}
	if g.countOnly && !g.quiet {
		c.out.writeLine(strconv.AppendInt(nil, g.count, 10))
	}
	if g.matched {
		return 0
	}
	return 1
}

// grepper is one run of grep over its input: what to do with the lines it
// selects, and what it has seen.
type grepper struct {
	out                              *stdout
	invert, quiet, countOnly, number bool
	matched, stop                    bool
	count, lineNo                    int64
	prefix                           []byte // the -n prefix, reused
}

// emit takes block, whole lines of which the last may lack its newline,
// all selected or all not.
func (g *grepper) emit(block []byte, selected bool) {
	if len(block) == 0 {
		return
	}
	if !selected {
		if g.number {
			g.lineNo += countLines(block)
		}
		return
	}
	g.matched = true
	switch {
	case g.quiet:
		g.stop = true
	case g.countOnly:
		g.count += countLines(block)
	case g.number:
		for len(block) > 0 {
			end := lineEnd(block, 0)
			g.lineNo++
			g.prefix = append(strconv.AppendInt(g.prefix[:0], g.lineNo, 10), ':')
			g.out.Write(g.prefix)
			g.out.writeLine(chomp(block[:end]))
			block = block[end:]
		}
	default:
		g.out.Write(block)
		if block[len(block)-1] != '\n' {
			g.out.WriteString("\n")
		}
	}
}

// firstMatch returns the bounds of the first line of run that pat
// matches, newline included, or len(run) twice if none does.
func firstMatch(pat *spec.Pattern, run []byte) (start, end int) {
	if pat.Re == nil {
		i := bytes.Index(run, pat.Lit)
		if i < 0 {
			return len(run), len(run)
		}
		return bytes.LastIndexByte(run[:i], '\n') + 1, lineEnd(run, i)
	}
	for ; start < len(run); start = end {
		if end = lineEnd(run, start); pat.Re.Match(chomp(run[start:end])) {
			return start, end
		}
	}
	return start, start
}

// lineEnd returns the end of the line of b that holds offset i: just past
// its newline, or the end of b.
func lineEnd(b []byte, i int) int {
	if j := bytes.IndexByte(b[i:], '\n'); j >= 0 {
		return i + j + 1
	}
	return len(b)
}

// chomp drops line's newline, if it has one.
func chomp(line []byte) []byte {
	if n := len(line); n > 0 && line[n-1] == '\n' {
		return line[:n-1]
	}
	return line
}

// countLines counts block's lines, the last of which may lack its newline.
func countLines(block []byte) int64 {
	n := int64(bytes.Count(block, []byte{'\n'}))
	if block[len(block)-1] != '\n' {
		n++
	}
	return n
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
	t := &trReader{r: c.Stdin, oneToOne: !del && !squeeze, lastOut: -1}
	for i := range t.xlate {
		t.xlate[i] = byte(i)
	}
	if len(set2) > 0 && !del {
		if complement {
			// POSIX: complemented set maps every member to the last char of set2.
			last := set2[len(set2)-1]
			for i := 0; i < 256; i++ {
				if inSet1[i] {
					t.xlate[i] = last
				}
			}
		} else {
			for i, b := range set1 {
				t.xlate[b] = set2[min(i, len(set2)-1)]
			}
		}
	}
	if del {
		t.drop = inSet1
	}
	// Squeeze set: set2 when translating, set1 when only squeezing.
	if squeeze {
		sq := set2
		if len(sq) == 0 {
			sq = set1
			if complement {
				t.squeeze = inSet1
			}
		}
		for _, b := range sq {
			t.squeeze[b] = true
		}
	}
	if err := c.out.copy(t); err != nil {
		return c.Errorf(1, "tr: %v", err)
	}
	return 0
}

// trReader is tr's input with tr's mapping applied, in place, chunk by
// chunk: deleting and squeezing only shorten a chunk.
type trReader struct {
	r             io.Reader
	xlate         [256]byte
	oneToOne      bool      // no byte is deleted or squeezed
	drop, squeeze [256]bool // the deleted and the squeezed sets
	lastOut       int       // the last byte kept, or -1
}

func (t *trReader) Read(p []byte) (int, error) {
	for {
		n, err := t.r.Read(p)
		if t.oneToOne {
			for i, b := range p[:n] {
				p[i] = t.xlate[b]
			}
			return n, err
		}
		k := 0
		for _, b := range p[:n] {
			ob := t.xlate[b]
			if t.drop[b] || t.squeeze[ob] && int(ob) == t.lastOut {
				continue
			}
			t.lastOut = int(ob)
			p[k] = ob
			k++
		}
		if k > 0 || n == 0 || err != nil {
			return k, err
		}
	}
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
// delimiter, default tab) from each line; -s drops the lines that have no
// delimiter, which -f otherwise passes through whole.
func cutCmd(c *Context, args []string) int {
	cl, err := spec.Parse(args)
	if err != nil {
		return c.Errorf(2, "cut: %v", err)
	}
	onlyDelimited := cl.Has('s')
	if _, byField := cl.Value('f'); onlyDelimited && !byField {
		return c.Errorf(1, "cut: suppressing non-delimited lines makes sense only when operating on fields")
	}
	rs, st := openInputs(c, cl.Operands)
	if rs == nil {
		return st
	}
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
			c.out.writeLine(scratch)
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
				if !onlyDelimited {
					c.out.writeLine(line)
				}
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
			c.out.writeLine(scratch)
			return nil
		})
		if e != nil {
			return c.Errorf(1, "cut: %v", e)
		}
	default:
		return c.Errorf(2, "cut: need -c or -f")
	}
	return 0
}

// countPad pads uniq -c's count to seven columns.
const countPad = "       "

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
	var cur, num []byte // one reused buffer each: no per-line copy
	count := 0
	flush := func() {
		if count == 0 {
			return
		}
		switch {
		case cl.Has('c'):
			// "%7d ": the count right-aligned in seven columns, a blank.
			num = append(strconv.AppendInt(num[:0], int64(count), 10), ' ')
			c.out.WriteString(countPad[min(len(num)-1, len(countPad)):])
			c.out.Write(num)
			c.out.writeLine(cur)
		case cl.Has('d'):
			if count > 1 {
				c.out.writeLine(cur)
			}
		case cl.Has('u'):
			if count == 1 {
				c.out.writeLine(cur)
			}
		default:
			c.out.writeLine(cur)
		}
	}
	e := c.forEachLine(concatReaders(rs), func(line []byte) error {
		if count > 0 && bytes.Equal(line, cur) {
			count++
			return nil
		}
		flush()
		cur = append(cur[:0], line...)
		count = 1
		return nil
	})
	if e != nil {
		return c.Errorf(1, "uniq: %v", e)
	}
	flush()
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
	a, b := c.cursor(rs[0]), c.cursor(rs[1])
	defer a.close()
	defer b.close()
	haveA, haveB := a.next(), b.next()
	for haveA || haveB {
		d := -1 // an input at its end sorts after every line
		if !haveA {
			d = 1
		} else if haveB {
			d = bytes.Compare(a.line, b.line)
		}
		switch {
		case d < 0:
			if show1 {
				c.out.writeLine(a.line)
			}
			haveA = a.next()
		case d > 0:
			if show2 {
				c.out.WriteString(indent2)
				c.out.writeLine(b.line)
			}
			haveB = b.next()
		default:
			if show3 {
				c.out.WriteString(indent3)
				c.out.writeLine(a.line)
			}
			haveA, haveB = a.next(), b.next()
		}
	}
	for _, cu := range []*lineCursor{a, b} {
		if cu.err != nil {
			return c.Errorf(1, "comm: %v", cu.err)
		}
	}
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
	arenas, n, e := readArenas(c, rs)
	if e != nil {
		return c.Errorf(1, "shuf: %v", e)
	}
	lines := make([][]byte, 0, n)
	eachArenaLine(arenas, func(line []byte) { lines = append(lines, line) })
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
	for _, line := range lines[:limit] {
		c.out.writeLine(line)
	}
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
		items = append(items, strings.Fields(string(line))...)
		return nil
	})
	if e != nil {
		return c.Errorf(1, "xargs: %v", e)
	}
	if perCall == 0 {
		perCall = max(len(items), 1)
	}
	status := 0
	// With no items the command still runs once.
	for start := 0; start < len(items) || start == 0; start += perCall {
		sub := *c
		sub.Stdin = strings.NewReader("")
		argv := append(append([]string{}, cmdv...), items[start:min(start+perCall, len(items))]...)
		if st := fn(&sub, argv); st != 0 {
			status = st
		}
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
		c.out.writeLine([]byte(b.String()))
	}
	c.out.writeLine([]byte(fmt.Sprintf("%07o", len(data))))
	return 0
}

// joinCmd joins two sorted files on their first fields (the POSIX
// default: fields are separated by blanks, and output fields by a space).
// It holds one line of the first file and the current equal-key run of
// the second, for the cross product.
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
	a, b := c.cursor(rs[0]), c.cursor(rs[1])
	defer a.close()
	defer b.close()
	var key, run, restA []byte // run: the second file's run, each line's other fields
	var ends []int             // where each line of run ends
	haveA, haveB := a.next(), b.next()
	for haveA && haveB {
		switch d := bytes.Compare(joinField(a.line), joinField(b.line)); {
		case d < 0:
			haveA = a.next()
		case d > 0:
			haveB = b.next()
		default:
			key = append(key[:0], joinField(b.line)...)
			run, ends = run[:0], ends[:0]
			for haveB && bytes.Equal(joinField(b.line), key) {
				run = appendJoinRest(run, b.line)
				ends = append(ends, len(run))
				haveB = b.next()
			}
			for haveA && bytes.Equal(joinField(a.line), key) {
				restA = appendJoinRest(restA[:0], a.line)
				start := 0
				for _, end := range ends {
					c.out.Write(key)
					c.out.Write(restA)
					c.out.writeLine(run[start:end])
					start = end
				}
				haveA = a.next()
			}
		}
	}
	for _, cu := range []*lineCursor{a, b} {
		if cu.err != nil {
			return c.Errorf(1, "join: %v", cu.err)
		}
	}
	return 0
}

// cutField splits off line's first blank-separated field, returning it
// and what follows it.
func cutField(line []byte) (field, rest []byte) {
	p := 0
	for p < len(line) && isBlank(line[p]) {
		p++
	}
	end := p
	for end < len(line) && !isBlank(line[end]) {
		end++
	}
	return line[p:end], line[end:]
}

// joinField returns line's first field, join's key.
func joinField(line []byte) []byte {
	f, _ := cutField(line)
	return f
}

// appendJoinRest appends line's fields after the first to dst, each after
// one space.
func appendJoinRest(dst, line []byte) []byte {
	_, rest := cutField(line)
	for {
		f, r := cutField(rest)
		if len(f) == 0 {
			return dst
		}
		dst, rest = append(append(dst, ' '), f...), r
	}
}
