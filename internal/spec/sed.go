package spec

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"unicode/utf8"
)

// SedCommand is one command of a sed script as sed runs it: an optional
// address, then s, y, d, p or q. ParseSed is the only reader of sed's
// grammar: the utility runs its commands, and refineSed classifies them.
type SedCommand struct {
	Kind byte // 's', 'y', 'd', 'p' or 'q'
	// The address: a line number (0 = none), $ (Last), or /re/ (Match).
	// Match and Pat are fixed strings where compileBRE finds them so.
	Line  int
	Last  bool
	Match *Pattern
	// s: the pattern, the replacement, and the g, p and N flags.
	Pat      Pattern
	Repl     string
	Global   bool
	PrintSub bool
	Nth      int
	// y: the image of each ASCII character, and of every other mapped one.
	YASCII [utf8.RuneSelf]rune
	YMap   map[rune]rune
}

// sedRefusal names the part of sed's grammar outside the subset that c
// begins, so a script that uses one fails with what it used; it is "" for
// any other byte.
func sedRefusal(c byte) string {
	switch c {
	case 'h', 'H', 'g', 'G', 'x':
		return "the hold space (h H g G x) is not supported"
	case 'b', 't', ':':
		return "branching (b t :) is not supported"
	case '{', '}':
		return "command groups ({}) are not supported"
	case ',':
		return "address ranges are not supported"
	case '!':
		return "address negation (!) is not supported"
	}
	return ""
}

// ParseSed reads sed's scripts, the -e values or else the script operand,
// into the commands sed runs, by sed's grammar: commands end at ;, a
// newline or the end of the script, and an s or y command's text runs to
// its third delimiter, so a ; inside one is text.
func ParseSed(p *Parsed) ([]SedCommand, error) {
	var cmds []SedCommand
	for _, script := range p.Scripts() {
		for s := script; ; {
			if s = strings.TrimLeft(s, " \t\n;"); s == "" {
				break
			}
			cmd, rest, err := parseSedCommand(s)
			if err != nil {
				return nil, err
			}
			cmds = append(cmds, cmd)
			s = rest
		}
	}
	return cmds, nil
}

// parseSedCommand reads the command at the head of s and returns it with
// the rest of the script.
func parseSedCommand(s string) (cmd SedCommand, rest string, err error) {
	src := s
	switch {
	case s[0] >= '0' && s[0] <= '9':
		j := 0
		for j < len(s) && s[j] >= '0' && s[j] <= '9' {
			j++
		}
		if cmd.Line, err = strconv.Atoi(s[:j]); err != nil {
			// Digits only reach here, so the sole failure is overflow.
			return cmd, "", fmt.Errorf("invalid line address %q in %q", s[:j], src)
		}
		s = s[j:]
	case s[0] == '$':
		cmd.Last, s = true, s[1:]
	case s[0] == '/':
		end := findUnescaped(s[1:], '/')
		if end < 0 {
			return cmd, "", fmt.Errorf("unterminated address in %q", src)
		}
		var m Pattern
		if m, err = compileBRE(s[1 : 1+end]); err != nil {
			return cmd, "", fmt.Errorf("bad address regexp: %v", err)
		}
		cmd.Match = &m
		s = s[2+end:]
	}
	if s = strings.TrimLeft(s, " \t"); s == "" || s[0] == '\n' || s[0] == ';' {
		return cmd, "", fmt.Errorf("missing command in %q", src)
	}
	cmd.Kind, s = s[0], s[1:]
	switch cmd.Kind {
	case 'd', 'p', 'q':
	case 's', 'y':
		var parts [2]string
		if parts, s, err = sedDelimited(cmd.Kind, s); err != nil {
			return cmd, "", err
		}
		if cmd.Kind == 'y' {
			err = cmd.setY(parts[0], parts[1])
		} else {
			s, err = cmd.setS(parts[0], parts[1], s)
		}
		if err != nil {
			return cmd, "", err
		}
	default:
		if why := sedRefusal(cmd.Kind); why != "" {
			return cmd, "", errors.New(why)
		}
		return cmd, "", fmt.Errorf("unsupported command %q in %q", cmd.Kind, src)
	}
	if s = strings.TrimLeft(s, " \t"); s != "" && s[0] != ';' && s[0] != '\n' {
		if s[0] == '}' {
			return cmd, "", errors.New(sedRefusal('}'))
		}
		return cmd, "", fmt.Errorf("extra characters after %c in %q", cmd.Kind, src)
	}
	return cmd, s, nil
}

// sedDelimited reads the two delimited texts of an s or y command, whose
// delimiter is the first byte of s, and returns them with what follows.
func sedDelimited(kind byte, s string) (parts [2]string, rest string, err error) {
	if s == "" || s[0] == '\\' || s[0] == '\n' {
		return parts, "", fmt.Errorf("bad %c command delimiter", kind)
	}
	delim := s[0]
	s = s[1:]
	for i := range parts {
		end := findUnescaped(s, delim)
		if end < 0 {
			return parts, "", fmt.Errorf("unterminated %c command", kind)
		}
		parts[i], s = s[:end], s[end+1:]
	}
	return parts, s, nil
}

// setY builds y's character map. POSIX measures the sets in characters,
// not bytes: y/ä/x/ is legal even though ä is two bytes.
func (cmd *SedCommand) setY(from, to string) error {
	fromRunes, toRunes := []rune(unescapeSed(from)), []rune(unescapeSed(to))
	if len(fromRunes) != len(toRunes) {
		return fmt.Errorf("y: transliteration sets differ in length")
	}
	for r := range cmd.YASCII {
		cmd.YASCII[r] = rune(r)
	}
	cmd.YMap = make(map[rune]rune)
	for i, r := range fromRunes { // as in GNU sed, a repeated character's last mapping wins
		if r < utf8.RuneSelf {
			cmd.YASCII[r] = toRunes[i]
		} else {
			cmd.YMap[r] = toRunes[i]
		}
	}
	return nil
}

// setS reads s's flags from the head of s and compiles its pattern,
// returning the rest of the script.
func (cmd *SedCommand) setS(pat, repl, s string) (string, error) {
	cmd.Repl = repl
	i := 0
	for ; i < len(s) && strings.IndexByte(" \t;\n}", s[i]) < 0; i++ {
		switch f := s[i]; {
		case f == 'g':
			cmd.Global = true
		case f == 'p':
			cmd.PrintSub = true
		case f >= '1' && f <= '9' && cmd.Nth == 0:
			j := i + 1
			for j < len(s) && s[j] >= '0' && s[j] <= '9' {
				j++
			}
			n, err := strconv.Atoi(s[i:j])
			if err != nil {
				return "", fmt.Errorf("invalid s flag %q", s[i:j])
			}
			cmd.Nth, i = n, j-1
		default:
			return "", fmt.Errorf("unknown s flag %q", string(f))
		}
	}
	var err error
	if cmd.Pat, err = compileBRE(pat); err != nil {
		return "", fmt.Errorf("bad pattern %q: %v", pat, err)
	}
	// A reference to a group the pattern lacks is an error, as in GNU sed,
	// not an empty expansion; a fixed string has no group.
	groups := 0
	if cmd.Pat.Re != nil {
		groups = cmd.Pat.Re.NumSubexp()
	}
	for j := 0; j+1 < len(repl); j++ {
		if repl[j] != '\\' {
			continue
		}
		if j++; repl[j] >= '1' && repl[j] <= '9' && int(repl[j]-'0') > groups {
			return "", fmt.Errorf("invalid reference \\%c on s command's RHS", repl[j])
		}
	}
	return s[i:], nil
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
