package coreutils

import (
	"fmt"
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
// and number flags), d (delete), p (print), and q (quit) commands, with
// optional line-number or /regex/ addresses, and the -n (no auto-print)
// and -e (add script) options. This subset covers the overwhelming
// majority of sed usage in shell pipelines; the full POSIX command set
// (hold space, branching) is out of scope and documented in DESIGN.md.
func sedCmd(c *Context, args []string) int {
	cl, err := spec.Parse(args)
	if err != nil {
		return c.Errorf(2, "sed: %v", err)
	}
	autoPrint := !cl.Has('n')
	var cmds []sedCommand
	for _, script := range cl.Scripts() {
		for _, part := range splitSedScript(script) {
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
	// $-addresses need to know the last line, so hold one line of delay.
	lines, rerr := c.readLines(concatReaders(rs))
	if rerr != nil {
		return c.Errorf(2, "sed: %v", rerr)
	}
	lw := newLineWriter(c.Stdout)
	defer lw.Release()
	quit := false
	for lineNo, text := range lines {
		isLast := lineNo == len(lines)-1
		deleted := false
		for _, cmd := range cmds {
			if !cmd.addrMatch(lineNo+1, text, isLast) {
				continue
			}
			switch cmd.kind {
			case 's':
				text = cmd.substitute(text, lw)
			case 'y':
				text = cmd.transliterate(text)
			case 'd':
				deleted = true
			case 'p':
				lw.WriteLine([]byte(text))
			case 'q':
				quit = true
			}
			if deleted {
				break
			}
		}
		if !deleted && autoPrint {
			lw.WriteLine([]byte(text))
		}
		if quit {
			break
		}
	}
	lw.Flush()
	return 0
}

// splitSedScript splits a script on semicolons and newlines, respecting
// nothing fancier (bracket groups are unsupported in this subset).
func splitSedScript(script string) []string {
	var parts []string
	for _, chunk := range strings.FieldsFunc(script, func(r rune) bool { return r == ';' || r == '\n' }) {
		chunk = strings.TrimSpace(chunk)
		if chunk != "" {
			parts = append(parts, chunk)
		}
	}
	return parts
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
	yMap     map[rune]rune
}

func (sc *sedCommand) addrMatch(lineNo int, text string, isLast bool) bool {
	if sc.addrLine > 0 {
		return lineNo == sc.addrLine
	}
	if sc.addrRe != nil {
		return sc.addrRe.MatchString(text)
	}
	if sc.addrLast {
		return isLast
	}
	return true
}

// transliterate applies a y/from/to/ mapping per character, not per byte:
// POSIX defines the sets in characters, so multibyte UTF-8 text maps
// whole runes (y/ä/ö/ must not splice the bytes of ä). Bytes that are
// not valid UTF-8 pass through unchanged rather than being rewritten as
// replacement characters.
func (sc *sedCommand) transliterate(text string) string {
	var b strings.Builder
	b.Grow(len(text))
	for i := 0; i < len(text); {
		r, size := utf8.DecodeRuneInString(text[i:])
		if r == utf8.RuneError && size == 1 {
			b.WriteByte(text[i])
			i++
			continue
		}
		if to, ok := sc.yMap[r]; ok {
			b.WriteRune(to)
		} else {
			b.WriteString(text[i : i+size])
		}
		i += size
	}
	return b.String()
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

// substitute applies s///; lw is used for the p flag.
func (sc *sedCommand) substitute(text string, lw *lineWriter) string {
	count := 0
	changed := false
	out := sc.re.ReplaceAllStringFunc(text, func(m string) string {
		count++
		if !sc.global && sc.nth == 0 && count > 1 {
			return m
		}
		if sc.nth > 0 && count != sc.nth {
			return m
		}
		changed = true
		return expandSedRepl(sc.re, sc.repl, m)
	})
	if changed && sc.printSub {
		lw.WriteLine([]byte(out))
	}
	return out
}

// expandSedRepl rewrites & and \N references in the replacement.
func expandSedRepl(re *regexp.Regexp, repl, match string) string {
	groups := re.FindStringSubmatch(match)
	var b strings.Builder
	for i := 0; i < len(repl); i++ {
		switch repl[i] {
		case '&':
			b.WriteString(match)
		case '\\':
			if i+1 < len(repl) {
				i++
				ch := repl[i]
				if ch >= '1' && ch <= '9' {
					idx := int(ch - '0')
					if idx < len(groups) {
						b.WriteString(groups[idx])
					}
				} else if ch == '&' || ch == '\\' {
					b.WriteByte(ch)
				} else if ch == 'n' {
					b.WriteByte('\n')
				} else {
					b.WriteByte(ch)
				}
			}
		default:
			b.WriteByte(repl[i])
		}
	}
	return b.String()
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
		cmd.yMap = make(map[rune]rune, len(fromRunes))
		for i, r := range fromRunes {
			if _, dup := cmd.yMap[r]; !dup {
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
		for _, f := range rest[end2+1:] {
			switch {
			case f == 'g':
				cmd.global = true
			case f == 'p':
				cmd.printSub = true
			case f >= '1' && f <= '9':
				cmd.nth = int(f - '0')
			default:
				return cmd, fmt.Errorf("unknown s flag %q", string(f))
			}
		}
		re, err := regexp.Compile(translateBRE(pat))
		if err != nil {
			return cmd, fmt.Errorf("bad pattern %q: %v", pat, err)
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
