// Package pattern implements POSIX shell pattern matching (fnmatch):
// `*`, `?`, and bracket expressions, with backslash escaping. It backs
// pathname expansion, case-statement matching, and the prefix/suffix
// trimming parameter expansions.
package pattern

import "strings"

// Match reports whether name matches the shell pattern. A backslash in the
// pattern escapes the following character. Bracket expressions support
// ranges (a-z), negation (! or ^ as the first character), and literal ]
// when it appears first.
func Match(pat, name string) bool {
	return match(pat, name)
}

// Prefix returns the length of the shortest (or, with longest, the longest)
// prefix of name that the pattern matches, and whether one does. It tries
// lengths in that order and stops at the first match, and only where the
// pattern's last atom can match the prefix's last byte: when that atom is a
// literal byte, its occurrences are the candidates. A pattern whose first
// atom is a literal byte name does not start with matches nothing.
func Prefix(pat, name string, longest bool) (int, bool) {
	first, last := endBytes(pat)
	if first >= 0 && (name == "" || name[0] != byte(first)) {
		return 0, false
	}
	return cut(pat, name, last, !longest, false)
}

// Suffix is Prefix for suffixes: the candidates are where the pattern's
// first atom can match the suffix's first byte, and a last atom that is a
// literal byte must be name's last.
func Suffix(pat, name string, longest bool) (int, bool) {
	first, last := endBytes(pat)
	if last >= 0 && (name == "" || name[len(name)-1] != byte(last)) {
		return 0, false
	}
	if j, ok := cut(pat, name, first, longest, true); ok {
		return len(name) - j, true
	}
	return 0, false
}

// cut returns the first cut j of name, tried from 0 up to len(name) (or
// down), at which the pattern matches name[:j] (or, for a suffix, name[j:]).
// When c, the byte the pattern's moving end matches, is not -1, a cut is
// tried only where the piece's byte at that end is c: name[j-1] for a
// prefix, name[j] for a suffix.
func cut(pat, name string, c int, up, suffix bool) (int, bool) {
	at := -1 // the moving end's byte is name[j+at]
	if suffix {
		at = 0
	}
	for n := 0; n <= len(name); n++ {
		j := n
		if !up {
			j = len(name) - n
		}
		if c >= 0 && (j+at < 0 || j+at >= len(name) || name[j+at] != byte(c)) {
			continue
		}
		if suffix && match(pat, name[j:]) || !suffix && match(pat, name[:j]) {
			return j, true
		}
	}
	return 0, false
}

// endBytes returns the literal byte the pattern's first and last atoms
// match, or -1 for an atom that is not one literal byte (`*`, `?`, a
// bracket expression, a trailing backslash) or a pattern with no atoms.
func endBytes(pat string) (first, last int) {
	first, last = -1, -1
	for i := 0; i < len(pat); {
		c, n := -1, 1
		switch pat[i] {
		case '*', '?':
		case '[':
			if n, _ = matchBracket(pat[i:], 0); n == 1 {
				c = '['
			}
		case '\\':
			if i+1 < len(pat) {
				c, n = int(pat[i+1]), 2
			}
		default:
			c = int(pat[i])
		}
		if i == 0 {
			first = c
		}
		last = c
		i += n
	}
	return first, last
}

// HasMeta reports whether the pattern contains any unescaped matching
// metacharacters; a pattern without them only matches itself literally.
// A '[' that opens no bracket expression (no closing ']') is literal, so
// the `[` command word globs nothing.
func HasMeta(pat string) bool {
	for i := 0; i < len(pat); i++ {
		switch pat[i] {
		case '\\':
			i++
		case '*', '?':
			return true
		case '[':
			if n, _ := matchBracket(pat[i:], 0); n > 1 {
				return true
			}
		}
	}
	return false
}

// Unescape removes backslash escapes, turning a meta-free pattern into the
// literal string it matches.
func Unescape(pat string) string {
	if !strings.ContainsRune(pat, '\\') {
		return pat
	}
	var b strings.Builder
	for i := 0; i < len(pat); i++ {
		if pat[i] == '\\' && i+1 < len(pat) {
			i++
		}
		b.WriteByte(pat[i])
	}
	return b.String()
}

func match(pat, name string) bool {
	// Iterative matching with backtracking on '*', the classic algorithm.
	var starPat, starName = -1, 0
	p, n := 0, 0
	for n < len(name) {
		if p < len(pat) {
			switch pat[p] {
			case '*':
				starPat = p
				starName = n
				p++
				continue
			case '?':
				p++
				n++
				continue
			case '[':
				if length, ok := matchBracket(pat[p:], name[n]); ok {
					p += length
					n++
					continue
				}
			case '\\':
				if p+1 < len(pat) && pat[p+1] == name[n] {
					p += 2
					n++
					continue
				}
			default:
				if pat[p] == name[n] {
					p++
					n++
					continue
				}
			}
		}
		if starPat >= 0 {
			starName++
			n = starName
			p = starPat + 1
			continue
		}
		return false
	}
	for p < len(pat) && pat[p] == '*' {
		p++
	}
	return p == len(pat)
}

// matchBracket matches one bracket expression starting at pat[0] == '['
// against byte c. It returns the byte length of the bracket expression and
// whether c matched. A malformed expression (no closing ']') matches a
// literal '['.
func matchBracket(pat string, c byte) (int, bool) {
	i := 1
	negate := false
	if i < len(pat) && (pat[i] == '!' || pat[i] == '^') {
		negate = true
		i++
	}
	start := i
	matched := false
	for i < len(pat) {
		if pat[i] == ']' && i > start {
			if negate {
				matched = !matched
			}
			return i + 1, matched
		}
		lo := pat[i]
		if lo == '\\' && i+1 < len(pat) {
			i++
			lo = pat[i]
		}
		if i+2 < len(pat) && pat[i+1] == '-' && pat[i+2] != ']' {
			hi := pat[i+2]
			if hi == '\\' && i+3 < len(pat) {
				i++
				hi = pat[i+2]
			}
			if lo <= c && c <= hi {
				matched = true
			}
			i += 3
		} else {
			if c == lo {
				matched = true
			}
			i++
		}
	}
	// No closing bracket: treat '[' literally.
	return 1, c == '['
}
