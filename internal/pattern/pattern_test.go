package pattern

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestMatch(t *testing.T) {
	cases := []struct {
		pat, name string
		want      bool
	}{
		{"", "", true},
		{"", "x", false},
		{"abc", "abc", true},
		{"abc", "abd", false},
		{"*", "", true},
		{"*", "anything", true},
		{"*.txt", "file.txt", true},
		{"*.txt", "file.txt.bak", false},
		{"a*b", "ab", true},
		{"a*b", "axxxb", true},
		{"a*b", "axxxc", false},
		{"a**b", "ab", true},
		{"?", "x", true},
		{"?", "", false},
		{"?", "xy", false},
		{"a?c", "abc", true},
		{"[abc]", "b", true},
		{"[abc]", "d", false},
		{"[a-z]", "m", true},
		{"[a-z]", "M", false},
		{"[!a-z]", "M", true},
		{"[!a-z]", "m", false},
		{"[^a-z]", "5", true},
		{"[]x]", "]", true},
		{"[]x]", "x", true},
		{"[]x]", "y", false},
		{"x[0-9]y", "x5y", true},
		{`\*`, "*", true},
		{`\*`, "x", false},
		{`a\?b`, "a?b", true},
		{`a\?b`, "axb", false},
		{"*.[ch]", "main.c", true},
		{"*.[ch]", "main.h", true},
		{"*.[ch]", "main.o", false},
		{"*x*y*", "axbycz", true},
		{"*x*y*", "aybxc", false},
		{"[", "[", true}, // malformed bracket is literal
		{"a[", "a[", true},
	}
	for _, c := range cases {
		if got := Match(c.pat, c.name); got != c.want {
			t.Errorf("Match(%q, %q) = %v, want %v", c.pat, c.name, got, c.want)
		}
	}
}

func TestMatchPrefix(t *testing.T) {
	s, l, ok := MatchPrefix("a*", "aXbXc")
	if !ok || s != 1 || l != 5 {
		t.Errorf("MatchPrefix(a*, aXbXc) = %d, %d, %v", s, l, ok)
	}
	s, l, ok = MatchPrefix("*/", "usr/local/bin")
	if !ok || s != 4 || l != 10 {
		t.Errorf("MatchPrefix(*/, usr/local/bin) = %d, %d, %v", s, l, ok)
	}
	if _, _, ok := MatchPrefix("z*", "abc"); ok {
		t.Error("MatchPrefix(z*, abc) should not match")
	}
}

func TestMatchSuffix(t *testing.T) {
	s, l, ok := MatchSuffix(".*", "a.b.c")
	if !ok || s != 2 || l != 4 {
		t.Errorf("MatchSuffix(.*, a.b.c) = %d, %d, %v", s, l, ok)
	}
	if _, _, ok := MatchSuffix(".txt", "file.pdf"); ok {
		t.Error(".txt should not match a suffix of file.pdf")
	}
}

func TestHasMeta(t *testing.T) {
	cases := []struct {
		pat  string
		want bool
	}{
		{"plain", false},
		{"has*star", true},
		{"has?q", true},
		{"has[set]", true},
		{`escaped\*`, false},
		{`escaped\[`, false},
		{`mixed\**`, true},
		// A '[' that opens no bracket expression matches itself.
		{"[", false},
		{"a[b", false},
		{"[]", false},
		{"[]]", true},
		{"[!a]", true},
	}
	for _, c := range cases {
		if got := HasMeta(c.pat); got != c.want {
			t.Errorf("HasMeta(%q) = %v, want %v", c.pat, got, c.want)
		}
	}
}

func TestUnescape(t *testing.T) {
	if got := Unescape(`a\*b\\c`); got != `a*b\c` {
		t.Errorf("Unescape = %q", got)
	}
	if got := Unescape("plain"); got != "plain" {
		t.Errorf("Unescape(plain) = %q", got)
	}
}

// Property: a literal string always matches itself once escaped.
func TestQuickSelfMatch(t *testing.T) {
	f := func(s string) bool {
		// Escape every metacharacter.
		var esc strings.Builder
		for i := 0; i < len(s); i++ {
			switch s[i] {
			case '*', '?', '[', '\\':
				esc.WriteByte('\\')
			}
			esc.WriteByte(s[i])
		}
		return Match(esc.String(), s)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: "*" matches everything; "prefix*" matches iff prefix holds.
func TestQuickStarPrefix(t *testing.T) {
	f := func(pre, rest string) bool {
		if strings.ContainsAny(pre, `*?[\`) {
			return true // skip meta in the literal portion
		}
		return Match(pre+"*", pre+rest)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: MatchPrefix/MatchSuffix results are consistent with Match.
func TestQuickPrefixConsistent(t *testing.T) {
	f := func(name string) bool {
		s, l, ok := MatchPrefix("*", name)
		return ok && s == 0 && l == len(name)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func BenchmarkMatchStar(b *testing.B) {
	name := strings.Repeat("abcde", 50)
	for i := 0; i < b.N; i++ {
		Match("*c*e*a*", name)
	}
}
