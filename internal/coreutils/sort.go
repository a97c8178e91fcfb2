package coreutils

import (
	"bytes"
	"cmp"
	"io"
	"slices"
	"strconv"
	"unsafe"

	"jash/internal/pipe"
	"jash/internal/spec"
)

// sortConfig is sort's ordering, parsed once from its argv. One compare
// serves the sort, `sort -c`, `sort -m` and the executor's order-aware
// merge, so a merge of sorted lanes is byte-identical to the whole sort.
type sortConfig struct {
	numeric bool
	reverse bool
	unique  bool
	tab     int           // -t's separator byte, or -1: a field is blanks then non-blanks
	key     *spec.SortKey // -k; nil keys on the whole line
}

// sortLine is one decorated line: the line without its newline, its key
// as a sub-slice of it, and under -n the key's number, each extracted
// once. idx is the line's input position, the tie-break under -u.
type sortLine struct {
	line, key []byte
	num       float64
	idx       int
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
	if cfg.tab, cfg.key, err = spec.SortFields(&cl); err != nil {
		return cl, sortConfig{}, err
	}
	return cl, cfg, nil
}

func isBlank(b byte) bool { return b == ' ' || b == '\t' }

// skipFields returns the offset just past the first n fields of line.
// Without -t a field is a run of blanks and the non-blanks after it;
// under -t each field but the last also takes its separator, and the
// last does too when past is set.
func (cfg *sortConfig) skipFields(line []byte, n int, past bool) int {
	p := 0
	for ; n > 0 && p < len(line); n-- {
		if cfg.tab < 0 {
			for p < len(line) && isBlank(line[p]) {
				p++
			}
			for p < len(line) && !isBlank(line[p]) {
				p++
			}
		} else if i := bytes.IndexByte(line[p:], byte(cfg.tab)); i < 0 {
			p = len(line)
		} else if p += i; n > 1 || past {
			p++
		}
	}
	return p
}

// keyOf returns line's key as a sub-slice of it; a key that would end
// before it starts is empty.
func (cfg *sortConfig) keyOf(line []byte) []byte {
	k := cfg.key
	if k == nil {
		return line
	}
	beg := min(len(line), cfg.skipFields(line, k.SWord, true)+k.SChar)
	end := len(line)
	if k.EWord >= 0 && k.EChar == 0 {
		end = cfg.skipFields(line, k.EWord+1, false)
	} else if k.EWord >= 0 {
		end = min(len(line), cfg.skipFields(line, k.EWord, true)+k.EChar)
	}
	return line[beg:max(beg, end)]
}

// decorate extracts line's key, and under -n its number, once.
func (cfg *sortConfig) decorate(line []byte, idx int) sortLine {
	d := sortLine{line: line, key: cfg.keyOf(line), idx: idx}
	if cfg.numeric {
		d.num = leadingNumber(d.key)
	}
	return d
}

// compare orders two decorated lines as POSIX sort does: by key (its
// number under -n), then, as the last resort, by the whole line bytewise;
// -r reverses both. Under -u there is no last resort, so lines with equal
// keys compare equal and -u keeps one line per key.
func (cfg *sortConfig) compare(a, b *sortLine) int {
	c := 0
	if cfg.numeric {
		c = cmp.Compare(a.num, b.num)
	} else {
		c = bytes.Compare(a.key, b.key)
	}
	if c == 0 && !cfg.unique {
		c = bytes.Compare(a.line, b.line)
	}
	if cfg.reverse {
		return -c
	}
	return c
}

// leadingNumber parses the numeric prefix of a key as sort -n does in the
// C locale: optional blanks, an optional '-', digits, an optional
// fraction. Anything else, '+' included, reads as zero. The value is a
// float64, so keys that differ only past its 15 significant digits
// compare equal as numbers and fall to the last resort.
func leadingNumber(s []byte) float64 {
	s = bytes.TrimLeft(s, " \t")
	end := 0
	if end < len(s) && s[end] == '-' {
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
	f, err := strconv.ParseFloat(string(s[:end]), 64)
	if err != nil {
		return 0
	}
	return f
}

// minArena is the first arena's size; arenas double from it up to one
// pipe block, so a 200-line sort pays for 200 lines, not a fixed chunk.
const minArena = 512

// readArenas copies every line of rs, newline-terminated, into byte
// arenas, and counts the lines. A line longer than the next arena gets an
// arena of its own. A torn-down plan stops the read early; nothing is
// written after that (see stdout).
func readArenas(c *Context, rs []io.Reader) (arenas [][]byte, n int, err error) {
	size := minArena
	var cur []byte
	for _, r := range rs {
		err = c.forEachLine(r, func(line []byte) error {
			if len(cur)+len(line)+1 > cap(cur) {
				if len(cur) > 0 {
					arenas = append(arenas, cur)
				}
				cur = make([]byte, 0, max(size, len(line)+1))
				size = min(2*size, pipe.BlockSize)
			}
			cur = append(append(cur, line...), '\n')
			n++
			return nil
		})
		if err != nil {
			return nil, 0, err
		}
	}
	if len(cur) > 0 {
		arenas = append(arenas, cur)
	}
	return arenas, n, nil
}

// arenaString views arena bytes as a string without copying them. It is
// sound because an arena is never written again once its lines are read.
func arenaString(b []byte) string { return unsafe.String(unsafe.SliceData(b), len(b)) }

// eachArenaLine calls fn for every line held in arenas, without its
// newline, in input order.
func eachArenaLine(arenas [][]byte, fn func(line []byte)) {
	for _, a := range arenas {
		for len(a) > 0 {
			i := bytes.IndexByte(a, '\n')
			fn(a[:i])
			a = a[i+1:]
		}
	}
}

// sortCmd sorts lines. Flags: -n numeric, -r reverse, -u one line per
// key, -m merge already-sorted inputs (the aggregator PaSh relies on),
// -k POS1[,POS2] key, -t SEP field separator, -c check (exit 1 if
// unsorted), -o FILE write the result to FILE instead of standard output.
func sortCmd(c *Context, args []string) int {
	cl, cfg, err := parseSortArgs(args)
	if err != nil {
		return c.Errorf(2, "sort: %v", err)
	}
	rs, st := openInputs(c, cl.Operands)
	if rs == nil {
		return st
	}
	return runSort(c, cl, &cfg, rs)
}

// runSort checks (-c), merges (-m) or sorts rs, writing to standard output
// or to -o's file.
func runSort(c *Context, cl spec.Parsed, cfg *sortConfig, rs []io.Reader) int {
	if cl.Has('c') {
		return checkSorted(c, concatReaders(rs), cfg)
	}
	// -o FILE may name one of the inputs (sort -o f f): the inputs are
	// open snapshots already, and a VFS writer changes FILE only when it
	// is closed, which happens only once the sort has succeeded.
	out := &c.out
	outFile, toFile := cl.Value('o')
	var fileOut io.WriteCloser
	if toFile {
		w, e := c.FS.Create(c.Lookup(outFile))
		if e != nil {
			return c.Errorf(2, "sort: %s: %v", outFile, e)
		}
		o := newStdout(c, w)
		fileOut, out = w, &o
	}
	if cl.Has('m') {
		if st := mergeSorted(c, rs, cfg, out); st != 0 {
			return st
		}
	} else {
		arenas, n, err := readArenas(c, rs)
		if err != nil {
			return c.Errorf(2, "sort: %v", err)
		}
		if !c.Cancelled() { // a partial input is not sorted
			sortArenas(arenas, n, cfg, out)
		}
	}
	if fileOut != nil {
		if out.close() != nil || c.Cancelled() {
			return 1 // a torn-down run commits nothing, -o's file least of all
		}
		if e := fileOut.Close(); e != nil {
			return c.Errorf(2, "sort: %s: %v", outFile, e)
		}
	}
	return 0
}

// sortArenas sorts the n lines held in arenas and writes them to out. Each
// index entry points into an arena, so no line is copied again. Ties are
// byte-identical lines or, under -u, broken by input position, so the
// unstable pdqsort produces exactly what a stable sort would.
func sortArenas(arenas [][]byte, n int, cfg *sortConfig, out *stdout) {
	if cfg.key == nil && !cfg.numeric {
		// A whole-line key is its own last resort: compare reduces to
		// comparing lines, and equal lines are interchangeable, so -r is
		// the ascending order read backwards. A string index is a third
		// smaller than a slice one and sorts with the native comparison.
		lines := make([]string, 0, n)
		eachArenaLine(arenas, func(line []byte) { lines = append(lines, arenaString(line)) })
		slices.Sort(lines)
		if cfg.reverse {
			slices.Reverse(lines)
		}
		for i, line := range lines {
			if cfg.unique && i > 0 && line == lines[i-1] {
				continue
			}
			out.WriteString(line)
			out.WriteString("\n")
		}
		return
	}
	idx := make([]sortLine, 0, n)
	eachArenaLine(arenas, func(line []byte) { idx = append(idx, cfg.decorate(line, len(idx))) })
	slices.SortFunc(idx, func(a, b sortLine) int {
		if c := cfg.compare(&a, &b); c != 0 {
			return c
		}
		return a.idx - b.idx
	})
	for i := range idx {
		if cfg.unique && i > 0 && cfg.compare(&idx[i-1], &idx[i]) == 0 {
			continue
		}
		out.writeLine(idx[i].line)
	}
}

// checkSorted is `sort -c`: status 1 at the first line that compares
// below its predecessor, or, under -u, equal to it.
func checkSorted(c *Context, r io.Reader, cfg *sortConfig) int {
	var prevBuf []byte
	var prev sortLine
	first := true
	bad := false
	e := c.forEachLine(r, func(line []byte) error {
		cur := cfg.decorate(line, 0)
		if !first {
			if d := cfg.compare(&prev, &cur); d > 0 || d == 0 && cfg.unique {
				bad = true
				return io.EOF
			}
		}
		prevBuf = append(prevBuf[:0], line...)
		prev, first = cfg.decorate(prevBuf, 0), false
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

// mergeSorted merges pre-sorted line streams incrementally, honouring -u,
// holding one decorated line per input: what keeps `sort -m` memory
// bounded by the number of inputs, not their size. Ties go to the
// lowest-index input: under the last resort tied lines are
// byte-identical, and under -u the lowest input holds the earliest line
// of the key, so over consecutive chunks of the input the merge of their
// sorts reproduces the whole sort exactly — the property the executor's
// order-aware merge relies on for byte-identical parallel runs. Each
// cursor polls for a torn-down plan; runSort then commits nothing.
func mergeSorted(c *Context, rs []io.Reader, cfg *sortConfig, out *stdout) int {
	cursors := make([]*lineCursor, len(rs))
	heads := make([]sortLine, len(rs))
	live := make([]int, len(rs)) // inputs with a current line, in input order
	for i, r := range rs {
		cursors[i] = c.cursor(r)
		defer cursors[i].close()
		live[i] = i
	}
	var readErr error
	// advance moves live[k] to its next line, or drops it at its end.
	advance := func(k int) {
		cu := cursors[live[k]]
		if cu.next() {
			heads[live[k]] = cfg.decorate(cu.line, 0)
			return
		}
		if readErr == nil {
			readErr = cu.err
		}
		live = slices.Delete(live, k, k+1)
	}
	for k := len(live) - 1; k >= 0; k-- {
		advance(k)
	}
	var prevBuf []byte
	var prev sortLine
	first := true
	for len(live) > 0 && readErr == nil {
		best := 0
		for k := 1; k < len(live); k++ {
			if cfg.compare(&heads[live[k]], &heads[live[best]]) < 0 {
				best = k
			}
		}
		h := &heads[live[best]]
		if !cfg.unique {
			out.writeLine(h.line)
		} else if first || cfg.compare(&prev, h) != 0 {
			out.writeLine(h.line)
			prevBuf = append(prevBuf[:0], h.line...)
			prev, first = cfg.decorate(prevBuf, 0), false
		}
		advance(best)
	}
	if readErr != nil {
		return c.Errorf(2, "sort: %v", readErr)
	}
	return 0
}

// MergeSortedStreams is the executor's entry point for the order-aware
// merge: it runs `sort -m` semantics directly over open streams, so
// parallel lane outputs merge without materializing to files. argv is the
// merge command vector (e.g. ["sort", "-m", "-n"]); any file operands in
// it are ignored in favour of ins.
func MergeSortedStreams(c *Context, argv []string, ins []io.Reader) int {
	return c.run(func(c *Context, argv []string) int {
		cl, cfg, err := parseSortArgs(argv)
		if err != nil {
			return c.Errorf(2, "sort: %v", err)
		}
		if !cl.Has('m') {
			return c.Errorf(2, "sort: MergeSortedStreams requires -m")
		}
		return runSort(c, cl, &cfg, ins)
	}, argv)
}
