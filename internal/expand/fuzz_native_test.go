package expand

import (
	"os"
	"slices"
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
// as ordinary error values — and a static word must expand to its
// StaticValue: as a string, and as exactly that one field when it has
// parts and no glob metacharacter. Run with
// `go test -fuzz=FuzzExpand ./internal/expand/`. Its seeds are the lines
// of testdata/seeds.txt.
func FuzzExpand(f *testing.F) {
	data, err := os.ReadFile("testdata/seeds.txt")
	if err != nil {
		f.Fatal(err)
	}
	for _, seed := range strings.Split(strings.TrimSuffix(string(data), "\n"), "\n") {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, src string) {
		sc, err := syntax.Parse(src)
		if err != nil {
			return // parser fuzzing owns unparseable input
		}
		x := fuzzExpander()
		syntax.Walk(sc, func(n syntax.Node) bool {
			w, ok := n.(*syntax.Word)
			if !ok || !w.IsStatic() {
				return true
			}
			v := w.StaticValue()
			if got, err := x.ExpandString(w); err != nil || got != v {
				t.Fatalf("ExpandString(%s) = %q, %v; StaticValue %q", syntax.PrintWord(w), got, err, v)
			}
			if !MayGlob(w) && len(w.Parts) > 0 {
				if fields, err := x.ExpandWord(w); err != nil || !slices.Equal(fields, []string{v}) {
					t.Fatalf("ExpandWord(%s) = %q, %v; StaticValue %q", syntax.PrintWord(w), fields, err, v)
				}
			}
			return true
		})
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
