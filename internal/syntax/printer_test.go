package syntax

import (
	"reflect"
	"testing"
	"testing/quick"
)

// normalize strips positions (and the cosmetic backquote flag, which the
// printer canonicalizes to $(...)) so ASTs can be compared structurally.
func normalize(n Node) {
	Walk(n, func(x Node) bool {
		switch v := x.(type) {
		case *Stmt:
			v.Position = Pos{}
		case *Pipeline:
			v.Position = Pos{}
		case *SimpleCommand:
			v.Position = Pos{}
		case *Assign:
			v.Position = Pos{}
		case *Redirect:
			v.Position = Pos{}
		case *Subshell:
			v.Position = Pos{}
		case *BraceGroup:
			v.Position = Pos{}
		case *IfClause:
			v.Position = Pos{}
		case *WhileClause:
			v.Position = Pos{}
		case *ForClause:
			v.Position = Pos{}
		case *CaseClause:
			v.Position = Pos{}
		case *CaseItem:
			v.Position = Pos{}
		case *FuncDecl:
			v.Position = Pos{}
		case *Word:
			v.Position = Pos{}
		case *Lit:
			v.Position = Pos{}
		case *SglQuoted:
			v.Position = Pos{}
		case *DblQuoted:
			v.Position = Pos{}
		case *ParamExp:
			v.Position = Pos{}
		case *CmdSubst:
			v.Position = Pos{}
			v.Backquote = false
		case *ArithExp:
			v.Position = Pos{}
		}
		return true
	})
}

var roundTripCases = []string{
	"echo hello world",
	"FOO=1 BAR=two cmd arg",
	"cat f | tr A-Z a-z | sort -u | uniq -c",
	"! grep -q x f && echo missing || echo found",
	"sleep 5 &",
	"sort <in >out 2>err >>app 2>&1 <>rw",
	"echo 'single $x' \"double $x and $(sub cmd)\"",
	"echo ${FOO:-def} ${BAR:=x} ${BAZ:?err} ${QUX:+alt} ${#LEN}",
	"echo ${path%.txt} ${path%%/*} ${path#pre} ${path##*/}",
	"echo $(ls | wc -l) $((1 + 2*3))",
	"if test -f x; then echo yes; else echo no; fi",
	"if a; then b; elif c; then d; elif e; then f; else g; fi",
	"while read line; do echo $line; done <input",
	"until test -f stop; do sleep 1; done",
	"for f in a b 'c d'; do process $f; done",
	"for arg; do echo $arg; done",
	"case $x in a|b) one ;; *.txt) two ;; *) three ;; esac",
	"(cd /tmp && ls) | wc -l",
	"{ echo a; echo b; } >out",
	"greet() { echo hello $1; }",
	"cat <<EOF\nline one\nline two\nEOF",
	"cat <<'Q'\n$notexpanded\nQ",
	"cat <<-T\n\tindented\n\tT",
	"cut -c 89-92 | grep -v 999 | sort -rn | head -n1",
	"cat $FILES | tr A-Z a-z | tr -cs A-Za-z '\\n' | sort -u | comm -13 $DICT -",
	"echo a; echo b; echo c",
	"X=$(date) Y=${Z:-$(fallback)} run",
	"test \\( -f a -o -f b \\)",
	// Background `&` is itself a statement separator: no `;` may follow it
	// anywhere a list is rendered inline (once printed as `a &; b`).
	"a & b",
	"for v in x y; do slow & echo it: $v; done",
	"{ spin & }",
	"if true; then bg & fi",
	"while work; do step & done",
	"(first & second)",
	"case $x in a) job & ;; esac",
	// The parser resolves quoting: `/a\ b` and "/a b" are one value.
	"tr a-z A-Z </big >/a\\ b; wc -c \"/a b\" \"/a\\$b\" \"x\\\\q\" \"\\q\"",
	"echo ${x-\\}} \"${x-\\}}\" \"${x-\\a}\" \"${x-'a'}\" \"${x#'a'}\" ${x#\\*} \\$ \"$\"",
}

func TestPrintRoundTrip(t *testing.T) {
	for _, src := range roundTripCases {
		orig, err := Parse(src)
		if err != nil {
			t.Errorf("Parse(%q): %v", src, err)
			continue
		}
		printed := Print(orig)
		again, err := Parse(printed)
		if err != nil {
			t.Errorf("reparse of %q -> %q failed: %v", src, printed, err)
			continue
		}
		normalize(orig)
		normalize(again)
		if !reflect.DeepEqual(orig, again) {
			t.Errorf("round trip changed AST:\n src: %q\nprinted: %q", src, printed)
		}
	}
}

func TestPrintIdempotent(t *testing.T) {
	for _, src := range roundTripCases {
		s1, err := Parse(src)
		if err != nil {
			t.Fatalf("Parse(%q): %v", src, err)
		}
		p1 := Print(s1)
		s2, err := Parse(p1)
		if err != nil {
			t.Fatalf("reparse: %v", err)
		}
		p2 := Print(s2)
		if p1 != p2 {
			t.Errorf("print not idempotent for %q:\n1: %q\n2: %q", src, p1, p2)
		}
	}
}

func TestPrintWordQuoting(t *testing.T) {
	s := mustParse(t, `echo 'a b' "c $d"`)
	sc := firstSimple(t, s)
	if got := PrintWord(sc.Args[1]); got != `'a b'` {
		t.Errorf("single-quoted printed as %q", got)
	}
	if got := PrintWord(sc.Args[2]); got != `"c $d"` {
		t.Errorf("double-quoted printed as %q", got)
	}
}

// TestRoundTripQuickLiterals property-tests that printing a simple command
// built from random safe literal arguments round-trips.
func TestRoundTripQuickLiterals(t *testing.T) {
	safe := []rune("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789._-/,:")
	f := func(raw []int8, n uint8) bool {
		args := []string{"cmd"}
		word := []rune{}
		for _, r := range raw {
			idx := int(r)
			if idx < 0 {
				idx = -idx
			}
			word = append(word, safe[idx%len(safe)])
			if len(word) >= 1+int(n%5) {
				args = append(args, string(word))
				word = word[:0]
			}
		}
		if len(word) > 0 {
			args = append(args, string(word))
		}
		src := ""
		for i, a := range args {
			if i > 0 {
				src += " "
			}
			src += a
		}
		s, err := Parse(src)
		if err != nil {
			return false
		}
		printed := Print(s)
		s2, err := Parse(printed)
		if err != nil {
			return false
		}
		normalize(s)
		normalize(s2)
		return reflect.DeepEqual(s, s2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
