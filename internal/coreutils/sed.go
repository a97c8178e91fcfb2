package coreutils

import (
	"bytes"
	"io"
	"unicode/utf8"

	"jash/internal/spec"
)

func init() {
	Register("sed", sedCmd)
}

// sedCmd implements the core of sed(1): the s/// substitution (with g, p,
// and number flags), y (transliterate), d (delete), p (print), and q
// (quit) commands, with optional line-number, $ or /regex/ addresses, and
// the -n (no auto-print) and -e (add script) options. This subset covers
// the overwhelming majority of sed usage in shell pipelines; spec.ParseSed
// reads it, and refuses the rest (hold space, branching, {}, ranges) by
// name, as DESIGN.md's "The sed and awk subset" lists.
//
// sed streams: it holds one line of lookahead, so a line runs through the
// script once the next read has found another line or hit EOF, which is
// what $ means. It stops reading at q.
func sedCmd(c *Context, args []string) int {
	cl, err := spec.Parse(args)
	if err != nil {
		return c.Errorf(2, "sed: %v", err)
	}
	cmds, err := spec.ParseSed(&cl)
	if err != nil {
		return c.Errorf(2, "sed: %v", err)
	}
	rs, st := openInputs(c, cl.Operands)
	if rs == nil {
		return st
	}
	s := sedState{cmds: cmds, autoPrint: !cl.Has('n'), w: &c.out}
	held, stopped := false, false
	err = c.forEachLine(concatReaders(rs), func(line []byte) error {
		if held && s.cycle(false) {
			stopped = true
			return io.EOF
		}
		s.ps = append(s.ps[:0], line...)
		held = true
		return nil
	})
	if err != nil {
		return c.Errorf(2, "sed: %v", err)
	}
	if held && !stopped {
		s.cycle(true)
	}
	return 0
}

// sedState is one run of a script: the pattern space, and the buffer the
// next s or y writes into; the two swap, so a run reuses both.
type sedState struct {
	cmds      []spec.SedCommand
	autoPrint bool
	w         *stdout
	lineNo    int
	ps, out   []byte
}

// cycle runs the script over the pattern space, which holds the next
// input line; last says no line follows it. It reports whether sed should
// stop reading: at q.
func (s *sedState) cycle(last bool) bool {
	s.lineNo++
	for i := range s.cmds {
		cmd := &s.cmds[i]
		if !sedAddressed(cmd, s.lineNo, s.ps, last) {
			continue
		}
		switch cmd.Kind {
		case 's':
			if out, ok := substitute(cmd, s.out[:0], s.ps); ok {
				s.ps, s.out = out, s.ps
				if cmd.PrintSub {
					s.w.writeLine(s.ps)
				}
			}
		case 'y':
			s.ps, s.out = transliterate(cmd, s.out[:0], s.ps), s.ps
		case 'd':
			return false
		case 'p':
			s.w.writeLine(s.ps)
		case 'q':
			if s.autoPrint {
				s.w.writeLine(s.ps)
			}
			return true
		}
	}
	if s.autoPrint {
		s.w.writeLine(s.ps)
	}
	return false
}

// sedAddressed reports whether sc's address selects the pattern space
// text, line lineNo of the input; last says no line follows it.
func sedAddressed(sc *spec.SedCommand, lineNo int, text []byte, last bool) bool {
	switch {
	case sc.Line > 0:
		return lineNo == sc.Line
	case sc.Match != nil:
		return sc.Match.Match(text)
	case sc.Last:
		return last
	}
	return true
}

// transliterate appends text with a y/from/to/ mapping applied to dst, per
// character, not per byte: POSIX defines the sets in characters, so
// multibyte UTF-8 text maps whole runes (y/ä/ö/ must not splice the bytes
// of ä). Bytes that are not valid UTF-8 pass through unchanged rather than
// being rewritten as replacement characters.
func transliterate(sc *spec.SedCommand, dst, text []byte) []byte {
	for i := 0; i < len(text); {
		if b := text[i]; b < utf8.RuneSelf {
			dst = utf8.AppendRune(dst, sc.YASCII[b])
			i++
			continue
		}
		r, size := utf8.DecodeRune(text[i:])
		if to, ok := sc.YMap[r]; ok && (r != utf8.RuneError || size > 1) {
			dst = utf8.AppendRune(dst, to)
		} else {
			dst = append(dst, text[i:i+size]...)
		}
		i += size
	}
	return dst
}

// substitute appends text with s/// applied to dst, and reports whether it
// replaced anything. The matches come from one pass over the line: the
// first, the nth, or with g every one from the nth (default first) on.
// & and \N expand from each match's own indices on the line. A fixed
// string is found with bytes.Index, and allocates nothing.
func substitute(sc *spec.SedCommand, dst, text []byte) ([]byte, bool) {
	skip, n := max(sc.Nth, 1)-1, max(sc.Nth, 1)
	if sc.Global {
		n = -1
	}
	if sc.Pat.Re != nil {
		ms := sc.Pat.Re.FindAllSubmatchIndex(text, n)
		if len(ms) <= skip {
			return dst, false
		}
		last := 0
		for _, m := range ms[skip:] {
			dst = append(dst, text[last:m[0]]...)
			dst = expandRepl(sc.Repl, dst, text, m)
			last = m[1]
		}
		return append(dst, text[last:]...), true
	}
	lit := sc.Pat.Lit
	last, seen := 0, 0
	for at := 0; n < 0 || seen < n; seen++ {
		i := bytes.Index(text[at:], lit)
		if i < 0 {
			break
		}
		m := [2]int{at + i, at + i + len(lit)}
		if at = m[1]; seen >= skip {
			dst = append(dst, text[last:m[0]]...)
			dst = expandRepl(sc.Repl, dst, text, m[:])
			last = m[1]
		}
	}
	if seen <= skip {
		return dst, false
	}
	return append(dst, text[last:]...), true
}

// expandRepl appends s's replacement repl for match m of text to dst: &
// is the match, \N its Nth group (empty when the group took no part), \n
// a newline, and any other escaped character itself.
func expandRepl(repl string, dst, text []byte, m []int) []byte {
	for i := 0; i < len(repl); i++ {
		switch ch := repl[i]; {
		case ch == '&':
			dst = append(dst, text[m[0]:m[1]]...)
		case ch == '\\' && i+1 < len(repl):
			i++
			switch ch = repl[i]; {
			case ch >= '1' && ch <= '9':
				if g := 2 * int(ch-'0'); m[g] >= 0 {
					dst = append(dst, text[m[g]:m[g+1]]...)
				}
			case ch == 'n':
				dst = append(dst, '\n')
			default:
				dst = append(dst, ch)
			}
		default:
			dst = append(dst, ch)
		}
	}
	return dst
}
