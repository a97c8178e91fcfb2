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

// TestPrefixSuffixMatchTheOracle checks the trim search, which stops at the
// first match and tries only the ends the pattern's end atoms allow,
// against MatchPrefix/MatchSuffix, which try every length: every pattern of
// up to three atoms (escapes, brackets, `?`, `*`, a malformed `[` and a
// trailing backslash among them) against every value of up to five bytes
// over the bytes those atoms name.
func TestPrefixSuffixMatchTheOracle(t *testing.T) {
	atoms := []string{"a", "b", "*", "?", `\*`, `\\`, "[ab]", "[!a]", "[", `\`}
	pats := []string{""}
	for n, from := 0, 0; n < 3; n++ {
		to := len(pats)
		for _, p := range pats[from:to] {
			for _, a := range atoms {
				pats = append(pats, p+a)
			}
		}
		from = to
	}
	vals := []string{""}
	for i := 0; i < len(vals) && len(vals[i]) < 5; i++ {
		for _, c := range []string{"a", "b", "*", `\`, "["} {
			vals = append(vals, vals[i]+c)
		}
	}
	for _, pat := range pats {
		for _, val := range vals {
			short, long, ok := MatchPrefix(pat, val)
			if n, got := Prefix(pat, val, false); got != ok || ok && n != short {
				t.Fatalf("Prefix(%q, %q) = %d, %v; shortest %d, %v", pat, val, n, got, short, ok)
			}
			if n, got := Prefix(pat, val, true); got != ok || ok && n != long {
				t.Fatalf("Prefix(%q, %q, longest) = %d, %v; longest %d, %v", pat, val, n, got, long, ok)
			}
			short, long, ok = MatchSuffix(pat, val)
			if n, got := Suffix(pat, val, false); got != ok || ok && n != short {
				t.Fatalf("Suffix(%q, %q) = %d, %v; shortest %d, %v", pat, val, n, got, short, ok)
			}
			if n, got := Suffix(pat, val, true); got != ok || ok && n != long {
				t.Fatalf("Suffix(%q, %q, longest) = %d, %v; longest %d, %v", pat, val, n, got, long, ok)
			}
		}
	}
	t.Logf("%d patterns x %d values", len(pats), len(vals))
}

// MatchPrefix returns the length in bytes of the shortest and longest
// prefixes of name matching the pattern, and whether any prefix matched
// (the empty prefix counts when the pattern can match ""): by trying every
// length, the oracle Prefix is checked against.
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
