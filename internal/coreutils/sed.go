package coreutils

import (
	"fmt"
	"io"
	"regexp"
	"strconv"
	"strings"
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
// the overwhelming majority of sed usage in shell pipelines; the full
// POSIX command set (hold space, branching) is out of scope and
// documented in DESIGN.md.
//
// sed streams: it holds one line of lookahead, so a line runs through the
// script once the next read has found another line or hit EOF, which is
// what $ means. It stops reading at q, or once its reader is gone.
func sedCmd(c *Context, args []string) int {
	cl, err := spec.Parse(args)
	if err != nil {
		return c.Errorf(2, "sed: %v", err)
	}
	var cmds []sedCommand
	for _, script := range cl.Scripts() {
		for _, part := range spec.SplitSedScript(script) {
			cmd, err := parseSedCommand(part)
			if err != nil {
				return c.Errorf(2, "sed: %v", err)
			}
			cmds = append(cmds, cmd)
		}
	}
	rs, st := openInputs(c, cl.Operands)
	if rs == nil {
		return st
	}
	lw := newLineWriter(c.Stdout)
	defer lw.Release()
	s := sedState{cmds: cmds, autoPrint: !cl.Has('n'), lw: lw}
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
	if held && !stopped && !c.Cancelled() {
		s.cycle(true)
	}
	lw.Flush()
	return 0
}

// sedState is one run of a script: the pattern space, and the buffer the
// next s or y writes into; the two swap, so a run reuses both.
type sedState struct {
	cmds      []sedCommand
	autoPrint bool
	lw        *lineWriter
	lineNo    int
	ps, out   []byte
}

// cycle runs the script over the pattern space, which holds the next
// input line; last says no line follows it. It reports whether sed should
// stop reading: at q, or once a write has failed.
func (s *sedState) cycle(last bool) bool {
	s.lineNo++
	for i := range s.cmds {
		cmd := &s.cmds[i]
		if !cmd.addrMatch(s.lineNo, s.ps, last) {
			continue
		}
		switch cmd.kind {
		case 's':
			if out, ok := cmd.substitute(s.out[:0], s.ps); ok {
				s.ps, s.out = out, s.ps
				if cmd.printSub {
					s.lw.WriteLine(s.ps)
				}
			}
		case 'y':
			s.ps, s.out = cmd.transliterate(s.out[:0], s.ps), s.ps
		case 'd':
			return !s.lw.ok
		case 'p':
			s.lw.WriteLine(s.ps)
		case 'q':
			if s.autoPrint {
				s.lw.WriteLine(s.ps)
			}
			return true
		}
	}
	if s.autoPrint {
		s.lw.WriteLine(s.ps)
	}
	return !s.lw.ok
}

type sedCommand struct {
	kind     byte // 's', 'd', 'p', 'q', 'y'
	addrLine int  // 0 = no line address
	addrRe   *regexp.Regexp
	addrLast bool // $ address
	re       *regexp.Regexp
	repl     string
	global   bool
	printSub bool
	nth      int
	yASCII   [utf8.RuneSelf]rune // y's image of each ASCII character
	yMap     map[rune]rune       // y's mapping of the other characters
}

func (sc *sedCommand) addrMatch(lineNo int, text []byte, isLast bool) bool {
	if sc.addrLine > 0 {
		return lineNo == sc.addrLine
	}
	if sc.addrRe != nil {
		return sc.addrRe.Match(text)
	}
	if sc.addrLast {
		return isLast
	}
	return true
}

// transliterate appends text with a y/from/to/ mapping applied to dst, per
// character, not per byte: POSIX defines the sets in characters, so
// multibyte UTF-8 text maps whole runes (y/ä/ö/ must not splice the bytes
// of ä). Bytes that are not valid UTF-8 pass through unchanged rather than
// being rewritten as replacement characters.
func (sc *sedCommand) transliterate(dst, text []byte) []byte {
	for i := 0; i < len(text); {
		if b := text[i]; b < utf8.RuneSelf {
			dst = utf8.AppendRune(dst, sc.yASCII[b])
			i++
			continue
		}
		r, size := utf8.DecodeRune(text[i:])
		if to, ok := sc.yMap[r]; ok && (r != utf8.RuneError || size > 1) {
			dst = utf8.AppendRune(dst, to)
		} else {
			dst = append(dst, text[i:i+size]...)
		}
		i += size
	}
	return dst
}

// unescapeSed removes backslash escapes in y-command sets.
func unescapeSed(s string) string {
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		if s[i] == '\\' && i+1 < len(s) {
			i++
			switch s[i] {
			case 'n':
				b.WriteByte('\n')
				continue
			case 't':
				b.WriteByte('\t')
				continue
			}
		}
		b.WriteByte(s[i])
	}
	return b.String()
}

// substitute appends text with s/// applied to dst, and reports whether it
// replaced anything. The matches come from one pass over the line: the
// first, the nth, or with g every one from the nth (default first) on.
// & and \N expand from each match's own indices on the line.
func (sc *sedCommand) substitute(dst, text []byte) ([]byte, bool) {
	skip, n := max(sc.nth, 1)-1, max(sc.nth, 1)
	if sc.global {
		n = -1
	}
	ms := sc.re.FindAllSubmatchIndex(text, n)
	if len(ms) <= skip {
		return dst, false
	}
	last := 0
	for _, m := range ms[skip:] {
		dst = append(dst, text[last:m[0]]...)
		dst = sc.expand(dst, text, m)
		last = m[1]
	}
	return append(dst, text[last:]...), true
}

// expand appends the replacement for match m of text to dst: & is the
// match, \N its Nth group (empty when the group took no part), \n a
// newline, and any other escaped character itself.
func (sc *sedCommand) expand(dst, text []byte, m []int) []byte {
	repl := sc.repl
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

func parseSedCommand(src string) (sedCommand, error) {
	var cmd sedCommand
	s := strings.TrimSpace(src)
	// Optional address: NUM, $, or /regex/.
	switch {
	case len(s) > 0 && s[0] >= '0' && s[0] <= '9':
		j := 0
		for j < len(s) && s[j] >= '0' && s[j] <= '9' {
			j++
		}
		n, err := strconv.Atoi(s[:j])
		if err != nil {
			// Digits only reach here, so the sole failure is overflow —
			// which previously parsed as address 0 and silently matched
			// no line at all.
			return cmd, fmt.Errorf("invalid line address %q in %q", s[:j], src)
		}
		cmd.addrLine = n
		s = s[j:]
	case strings.HasPrefix(s, "$"):
		cmd.addrLast = true
		s = s[1:]
	case strings.HasPrefix(s, "/"):
		end := findUnescaped(s[1:], '/')
		if end < 0 {
			return cmd, fmt.Errorf("unterminated address in %q", src)
		}
		re, err := regexp.Compile(translateBRE(s[1 : 1+end]))
		if err != nil {
			return cmd, fmt.Errorf("bad address regexp: %v", err)
		}
		cmd.addrRe = re
		s = s[2+end:]
	}
	s = strings.TrimSpace(s)
	if s == "" {
		return cmd, fmt.Errorf("missing command in %q", src)
	}
	switch s[0] {
	case 'y':
		cmd.kind = 'y'
		if len(s) < 2 {
			return cmd, fmt.Errorf("bad y command %q", src)
		}
		delim := s[1]
		body := s[2:]
		end1 := findUnescaped(body, delim)
		if end1 < 0 {
			return cmd, fmt.Errorf("unterminated y command %q", src)
		}
		from := unescapeSed(body[:end1])
		rest := body[end1+1:]
		end2 := findUnescaped(rest, delim)
		if end2 < 0 {
			return cmd, fmt.Errorf("unterminated y command %q", src)
		}
		to := unescapeSed(rest[:end2])
		// POSIX measures the sets in characters, not bytes: y/ä/x/ is
		// legal even though ä is two bytes.
		fromRunes, toRunes := []rune(from), []rune(to)
		if len(fromRunes) != len(toRunes) {
			return cmd, fmt.Errorf("y: transliteration sets differ in length")
		}
		for r := range cmd.yASCII {
			cmd.yASCII[r] = rune(r)
		}
		cmd.yMap = make(map[rune]rune)
		for i, r := range fromRunes { // as in GNU sed, a repeated character's last mapping wins
			if r < utf8.RuneSelf {
				cmd.yASCII[r] = toRunes[i]
			} else {
				cmd.yMap[r] = toRunes[i]
			}
		}
		if rest[end2+1:] != "" {
			return cmd, fmt.Errorf("trailing text after y in %q", src)
		}
		return cmd, nil
	case 'd', 'p', 'q':
		cmd.kind = s[0]
		if len(s) > 1 {
			return cmd, fmt.Errorf("trailing text after %c in %q", s[0], src)
		}
		return cmd, nil
	case 's':
		cmd.kind = 's'
		if len(s) < 2 {
			return cmd, fmt.Errorf("bad s command %q", src)
		}
		delim := s[1]
		body := s[2:]
		end1 := findUnescaped(body, delim)
		if end1 < 0 {
			return cmd, fmt.Errorf("unterminated s command %q", src)
		}
		pat := body[:end1]
		rest := body[end1+1:]
		end2 := findUnescaped(rest, delim)
		if end2 < 0 {
			return cmd, fmt.Errorf("unterminated replacement in %q", src)
		}
		cmd.repl = rest[:end2]
		flags := rest[end2+1:]
		for i := 0; i < len(flags); i++ {
			switch f := flags[i]; {
			case f == 'g':
				cmd.global = true
			case f == 'p':
				cmd.printSub = true
			case f >= '1' && f <= '9' && cmd.nth == 0:
				j := i + 1
				for j < len(flags) && flags[j] >= '0' && flags[j] <= '9' {
					j++
				}
				n, err := strconv.Atoi(flags[i:j])
				if err != nil {
					return cmd, fmt.Errorf("invalid s flag %q in %q", flags[i:j], src)
				}
				cmd.nth, i = n, j-1
			default:
				return cmd, fmt.Errorf("unknown s flag %q", string(f))
			}
		}
		re, err := regexp.Compile(translateBRE(pat))
		if err != nil {
			return cmd, fmt.Errorf("bad pattern %q: %v", pat, err)
		}
		// A reference to a group the pattern lacks is an error, as in GNU
		// sed, not an empty expansion.
		for i := 0; i+1 < len(cmd.repl); i++ {
			if cmd.repl[i] != '\\' {
				continue
			}
			if i++; cmd.repl[i] >= '1' && cmd.repl[i] <= '9' && int(cmd.repl[i]-'0') > re.NumSubexp() {
				return cmd, fmt.Errorf("invalid reference \\%c on s command's RHS in %q", cmd.repl[i], src)
			}
		}
		cmd.re = re
		return cmd, nil
	}
	return cmd, fmt.Errorf("unsupported sed command %q", src)
}

// findUnescaped returns the index of the first unescaped occurrence of sep.
func findUnescaped(s string, sep byte) int {
	for i := 0; i < len(s); i++ {
		if s[i] == '\\' {
			i++
			continue
		}
		if s[i] == sep {
			return i
		}
	}
	return -1
}

// translateBRE converts the POSIX basic-RE escapes sed uses — \(..\), \+,
// \?, \{..\}, \| — to RE2 syntax, and escapes the characters that are
// literal in BREs but special in RE2: +, ?, |, (, ), {, }.
func translateBRE(pat string) string {
	var b strings.Builder
	for i := 0; i < len(pat); i++ {
		ch := pat[i]
		if ch == '\\' && i+1 < len(pat) {
			next := pat[i+1]
			switch next {
			case '(', ')', '{', '}', '+', '?', '|':
				b.WriteByte(next) // BRE escape -> RE2 operator
			default:
				b.WriteByte('\\')
				b.WriteByte(next)
			}
			i++
			continue
		}
		switch ch {
		case '+', '?', '|', '(', ')', '{', '}':
			b.WriteByte('\\')
			b.WriteByte(ch)
		default:
			b.WriteByte(ch)
		}
	}
	return b.String()
}
