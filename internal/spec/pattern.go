package spec

import (
	"bytes"
	"fmt"
	"regexp"
	"strings"
	"unicode/utf8"
)

// Pattern is what grep matches a line against, and sed an address or an
// s command's text: a regular expression, or a fixed string when Re is
// nil. A fixed string matches where its bytes occur, so the utilities
// find it with bytes.Index over whole runs of lines and compile nothing.
type Pattern struct {
	Re  *regexp.Regexp // nil for a fixed string
	Lit []byte         // the fixed string
}

// Match reports whether b holds a match of the pattern.
func (p *Pattern) Match(b []byte) bool {
	if p.Re == nil {
		return bytes.Contains(b, p.Lit)
	}
	return p.Re.Match(b)
}

// ParseGrep reads grep's patterns, the -e values or else the pattern
// operand, into the one Pattern grep matches lines against. Each pattern
// is a newline-separated list, as in GNU grep, and a line matches if any
// pattern in any list matches it. The syntax is RE2 (grep -E's, and the
// default), or fixed strings under -F.
//
// The result is a fixed string when there is exactly one pattern, -i is
// not set, and the pattern is -F's or has no RE2 metacharacter and is
// valid UTF-8 (an invalid one stays on the regexp, which refuses it as it
// always has). Anything else is one regexp: the patterns are an
// alternation, -F quotes each, and -i folds case.
func ParseGrep(p *Parsed) (Pattern, error) {
	var pats []string
	for _, s := range p.Scripts() {
		pats = append(pats, strings.Split(s, "\n")...)
	}
	fixedStrings, fold := p.Has('F'), p.Has('i')
	if len(pats) == 1 && !fold && (fixedStrings || isFixedRE2(pats[0])) {
		return Pattern{Lit: []byte(pats[0])}, nil
	}
	var b strings.Builder
	if fold {
		b.WriteString("(?i)")
	}
	for i, pat := range pats {
		if i > 0 {
			b.WriteByte('|')
		}
		if fixedStrings {
			pat = regexp.QuoteMeta(pat)
		}
		if len(pats) > 1 {
			pat = "(?:" + pat + ")"
		}
		b.WriteString(pat)
	}
	re, err := regexp.Compile(b.String())
	if err != nil {
		return Pattern{}, fmt.Errorf("bad pattern %q: %v", strings.Join(pats, "\n"), err)
	}
	return Pattern{Re: re}, nil
}

// isFixedRE2 reports whether the RE2 pattern pat matches only its own
// bytes: it is valid UTF-8 and has no metacharacter.
func isFixedRE2(pat string) bool {
	return utf8.ValidString(pat) && !strings.ContainsAny(pat, `\.+*?()|[]{}^$`)
}

// compileBRE compiles a sed basic regular expression: a non-empty pattern
// that is valid UTF-8 and has no BRE metacharacter (\ . * [ ] ^ $) is a
// fixed string, anything else a regexp. In a BRE + ? | ( ) { } are
// themselves, so s/a+b/ is a fixed string too.
func compileBRE(pat string) (Pattern, error) {
	if pat != "" && utf8.ValidString(pat) && !strings.ContainsAny(pat, `\.*[]^$`) {
		return Pattern{Lit: []byte(pat)}, nil
	}
	re, err := regexp.Compile(translateBRE(pat))
	return Pattern{Re: re}, err
}
