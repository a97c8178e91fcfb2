package syntax

import (
	"reflect"
	"testing"
)

// parseSeeds are FuzzParse's seed corpus.
var parseSeeds = []string{
	"echo hello | tr a-z A-Z",
	"if test -f x; then echo y; fi",
	"for v in a b; do cat f & echo $v; done",
	"case $x in a|b) one ;; *) two ;; esac",
	"f() { echo ${1:-d}; }; f",
	"cat <<EOF\nbody $v\nEOF",
	"while read l; do echo $((n + 1)); done <in",
	"a=1 b=$(c d) e ${f%g} >>out 2>&1",
	"! a && b || c; (d; e) | { g; }",
	"echo ${#x} ${y##*/} 'q' \"d $z\"",
	"\x00\xff${", "$(($((", "<<'", "a\\",
	"echo $(( ${x:-1} + 1 ))", "echo $(( $(echo 2) ))", "echo $(( `echo 3` ))",
	`echo $(( "$x" ))`, "echo $(( ${ ))",
	`echo a\ b "a\$b" 'c\d' \\ "\\" "\q" ${x-\a} "${x-\a}" "${x#\a}"`,
}

// FuzzParse is the native fuzz target for the parser: arbitrary bytes
// must never panic, errors must be *ParseError, and any accepted input
// must survive a print→parse round trip to a structurally identical AST.
// Run with `go test -fuzz=FuzzParse ./internal/syntax/`.
func FuzzParse(f *testing.F) {
	for _, seed := range parseSeeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, src string) {
		s, err := Parse(src)
		if err != nil {
			if _, ok := err.(*ParseError); !ok {
				t.Fatalf("Parse(%q) returned non-ParseError %T: %v", src, err, err)
			}
			return
		}
		printed := Print(s)
		again, err := Parse(printed)
		if err != nil {
			t.Fatalf("Print(Parse(%q)) = %q does not re-parse: %v", src, printed, err)
		}
		normalize(s)
		normalize(again)
		if !reflect.DeepEqual(s, again) {
			t.Fatalf("round trip changed AST for %q (printed %q)", src, printed)
		}
	})
}

// FuzzParseCommand targets the incremental JIT entry point: it must never
// panic and must always make progress or reject, so interpreter loops
// cannot spin on adversarial input.
func FuzzParseCommand(f *testing.F) {
	f.Add("echo a; echo b\nwhile x; do y; done")
	f.Add(";;;&&&")
	f.Add("a &\nb | c |")
	f.Fuzz(func(t *testing.T, src string) {
		rest := src
		for i := 0; i <= len(src)+1; i++ {
			stmts, n, err := ParseCommand(rest)
			if err != nil {
				return
			}
			if n == 0 {
				if len(stmts) != 0 {
					t.Fatalf("ParseCommand(%q): statements without progress", rest)
				}
				return
			}
			rest = rest[n:]
			if rest == "" {
				return
			}
		}
		t.Fatalf("ParseCommand failed to terminate on %q", src)
	})
}
