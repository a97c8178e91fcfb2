package interp

import (
	"bytes"
	"maps"
	"testing"

	"jash/internal/syntax"
	"jash/internal/vfs"
)

// TestClonesShareTablesUntilWritten: pipeline stages, $(...), ( ) and &
// run on clones that share the shell's variable and function tables until
// they write one. Each row writes the same names in several clones at once
// (the stages of a pipeline run concurrently: run it under -race); every
// clone must see its own writes, and the shell's tables must be exactly
// what they were before.
func TestClonesShareTablesUntilWritten(t *testing.T) {
	for _, c := range []struct{ src, stdout string }{
		{`x=1 | x=2; echo "$x"`, "0\n"},
		{`{ x=1; echo "a$x"; } | { x=2; cat; echo "b$x"; } | { x=3; cat; echo "c$x"; }`, "a1\nb2\nc3\n"},
		{`{ unset y; echo "a${y-none}"; } | { y=b; cat; echo "b$y"; } | { cat; echo "c$y"; }`, "anone\nbb\ncy\n"},
		{`{ export x=4; echo "a$x"; } | { readonly x=5; cat; echo "b$x"; } | { cat; export -p; }`, "a4\nb5\nexport PWD=/\nexport e=1\n"},
		{`{ f() { echo new; }; f; } | { cat; unset -f f; f 2>/dev/null || echo gone; } | { cat; f; }`, "new\ngone\nold\n"},
		{`f() { :; } | unset f | unset -f g; f; g`, "old\ng\n"},
		{`echo "$(x=3; unset y; echo "$x${y-unset}")" "$x$y"`, "3unset 0y\n"},
		{`(x=4; unset -f f; f 2>/dev/null || echo "no f $x"); f`, "no f 4\nold\n"},
		{`x=5 & wait; unset y & wait; f() { :; } & wait; echo "$x$y"; f`, "0y\nold\n"},
		{`h() { local x=6; echo "h$x"; }; h | cat; echo "$x"`, "h6\n0\n"},
		{`i=0; while [ "$i" -lt 3 ]; do i=$((i + 1)); echo "$i" | { read x; echo "r$x"; }; done; echo "$x"`, "r1\nr2\nr3\n0\n"},
	} {
		in := New(vfs.New())
		setup, err := syntax.Parse(`x=0; y=y; export e=1; readonly r=2; f() { echo old; }; g() { echo g; }`)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := in.RunStmts(setup.Stmts); err != nil {
			t.Fatal(err)
		}
		vars, funcs := maps.Clone(in.Vars), maps.Clone(in.Funcs)
		script, err := syntax.Parse(c.src)
		if err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		in.Stdout = &out
		if _, err := in.RunStmts(script.Stmts); err != nil {
			t.Fatalf("%q: %v", c.src, err)
		}
		if out.String() != c.stdout {
			t.Errorf("%q printed %q, want %q", c.src, out.String(), c.stdout)
		}
		// The shell's own writes (h and i, at the top level) stay; nothing
		// else may change.
		delete(in.Funcs, "h")
		delete(in.Vars, "i")
		if !maps.Equal(in.Vars, vars) {
			t.Errorf("%q changed the shell's variables: %v, was %v", c.src, in.Vars, vars)
		}
		if !maps.Equal(in.Funcs, funcs) {
			t.Errorf("%q changed the shell's functions: %v, was %v", c.src, in.Funcs, funcs)
		}
	}
}
