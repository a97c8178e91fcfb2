package expand

import (
	"strings"
	"testing"

	"jash/internal/syntax"
	"jash/internal/vfs"
)

// fuzzExpander builds an expander over a tiny fixture filesystem with a
// few variables bound, mirroring how the interpreter wires it up.
func fuzzExpander() *Expander {
	fs := vfs.New()
	fs.WriteFile("/a.txt", []byte("alpha\n"))
	fs.WriteFile("/ab.txt", []byte("beta\n"))
	fs.MkdirAll("/dir")
	vars := map[string]string{"x": "one two", "y": "/a*", "empty": ""}
	return &Expander{
		Lookup: func(name string) (string, bool) { v, ok := vars[name]; return v, ok },
		Set:    func(name, value string) error { vars[name] = value; return nil },
		Params: []string{"p1", "p2"},
		Name0:  "fuzz",
		Status: 3,
		PID:    1000,
		FS:     fs,
		Dir:    "/",
		CmdSubst: func(stmts []*syntax.Stmt) (string, error) {
			return "sub out\n", nil
		},
	}
}

// FuzzExpand is the native fuzz target for the expansion layer: any word
// the parser accepts must expand without panicking — errors must surface
// as ordinary error values. Run with `go test -fuzz=FuzzExpand ./internal/expand/`.
func FuzzExpand(f *testing.F) {
	for _, seed := range []string{
		"echo $x ${y:-d} ${#x} $((1 + 2))",
		"echo \"$x\" '$x' ${x%two} ${x##*o}",
		"echo /a*.txt /d?r $y",
		"echo ${empty:+alt} ${unset=assigned} $@ $* $? $$ $0 $1",
		"echo $(cmd) `cmd` $((x + 1)) ${x/bad", "echo ${", "echo $((",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, src string) {
		sc, err := syntax.Parse(src)
		if err != nil {
			return // parser fuzzing owns unparseable input
		}
		x := fuzzExpander()
		for _, st := range sc.Stmts {
			cmd, ok := st.AndOr.First.Cmds[0].(*syntax.SimpleCommand)
			if !ok {
				continue
			}
			if _, err := x.ExpandWords(cmd.Args); err != nil {
				continue // errors are fine; panics are not
			}
			for _, w := range cmd.Args {
				_, _ = x.ExpandString(w)
				_, _ = x.ExpandPattern(w)
			}
		}
	})
}

// FuzzExpandPattern drives glob-pattern expansion with adversarial
// patterns directly (bracket classes, escapes, metacharacter soup).
func FuzzExpandPattern(f *testing.F) {
	for _, seed := range []string{
		"/a*", "/[ab]*.txt", "/a?.txt", "/[!x]*", "/[", "\\*", "/***/*",
	} {
		f.Add("echo " + seed)
	}
	f.Fuzz(func(t *testing.T, src string) {
		if !strings.HasPrefix(src, "echo ") {
			src = "echo " + src
		}
		sc, err := syntax.Parse(src)
		if err != nil {
			return
		}
		x := fuzzExpander()
		for _, st := range sc.Stmts {
			if cmd, ok := st.AndOr.First.Cmds[0].(*syntax.SimpleCommand); ok {
				_, _ = x.ExpandWords(cmd.Args)
			}
		}
	})
}
