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

// MatchPrefix returns the length in bytes of the shortest and longest
// prefixes of name matching the pattern, and whether any prefix matched
// (the empty prefix counts when the pattern can match "").
func MatchPrefix(pat, name string) (shortest, longest int, ok bool) {
	shortest, longest = -1, -1
	for i := 0; i <= len(name); i++ {
		if match(pat, name[:i]) {
			if shortest < 0 {
				shortest = i
			}
			longest = i
		}
	}
	return shortest, longest, longest >= 0
}

// MatchSuffix returns the length in bytes of the shortest and longest
// suffixes of name matching the pattern, and whether any suffix matched.
func MatchSuffix(pat, name string) (shortest, longest int, ok bool) {
	shortest, longest = -1, -1
	for i := len(name); i >= 0; i-- {
		if match(pat, name[i:]) {
			n := len(name) - i
			if shortest < 0 {
				shortest = n
			}
			longest = n
		}
	}
	return shortest, longest, longest >= 0
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
