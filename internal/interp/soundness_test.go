package interp_test

import (
	"os"
	"strings"
	"testing"

	"jash/internal/analysis"
	"jash/internal/expand"
	"jash/internal/fuzz"
	"jash/internal/interp"
	"jash/internal/syntax"
)

// TestAbstractExpansionIsSound checks the contract absenv.go states, with
// the abstract walk and the evaluator reading the same constant bindings:
// whenever FieldsOf reports exact, its Const fields are the fields Run
// makes, and a Const from EvalWordAbs is the string Run makes. Its words
// are every word of the FuzzExpand seeds, of the plan-fallback rows and of
// the generator's first 2,000 programs. Run has no filesystem (no field is
// globbed) and may neither assign nor substitute a command; a word it
// cannot expand that way is skipped.
func TestAbstractExpansionIsSound(t *testing.T) {
	data, err := os.ReadFile("../expand/testdata/seeds.txt")
	if err != nil {
		t.Fatal(err)
	}
	srcs := append(strings.Split(strings.TrimSuffix(string(data), "\n"), "\n"), interp.PlanFallbackScripts()...)
	// Operands whose literal text is split, groups that may vanish, and
	// trims, which the corpora above reach seldom.
	srcs = append(srcs, `echo ${u:-a b} ${empty:-c  d} ${x:+e f} "${u+$x}" a"${u-}"b ${u-"g h"}$t ${x%o*} ${f##*.} ${#t}`)
	for seed := uint64(1); seed <= 2000; seed++ {
		srcs = append(srcs, fuzz.Generate(fuzz.DefaultConfig(seed)).Source)
	}
	vars := map[string]string{"x": "one two", "y": "/a*", "empty": "", "v": "real",
		"f": "/d/a.b.txt", "t": "a b", "IFS": " \t\n", "HOME": "/home"}
	lookup := func(name string) (string, bool) { v, ok := vars[name]; return v, ok }
	params := []string{"p1", "two words"}
	x := &expand.Expander{Lookup: lookup, Params: params, Name0: "jash"}
	words, fields, strs := 0, 0, 0
	for _, src := range srcs {
		script, err := syntax.Parse(src)
		if err != nil {
			continue
		}
		syntax.Walk(script, func(n syntax.Node) bool {
			w, ok := n.(*syntax.Word)
			if !ok {
				return true
			}
			words++
			env := analysis.NewEnv(lookup)
			env.SetParams([]analysis.AbsVal{analysis.Const(params[0]), analysis.Const(params[1])})
			p := expand.Compile(w)
			if abs, exact := analysis.FieldsOf(w, env); exact {
				if got, err := x.Run(&p, expand.Fields, nil); err == nil {
					fields++
					for i, f := range abs {
						if f.Val.IsConst() && (i >= len(got) || got[i] != f.Val.Str) || len(abs) != len(got) {
							t.Errorf("%q: FieldsOf(%s) = %v, exact; Run = %q", src, syntax.PrintWord(w), abs, got)
							break
						}
					}
				}
			}
			if abs := analysis.EvalWordAbs(w, env); abs.IsConst() {
				if got, err := x.RunString(&p, expand.String); err == nil {
					strs++
					if got != abs.Str {
						t.Errorf("%q: EvalWordAbs(%s) = %v; Run = %q", src, syntax.PrintWord(w), abs, got)
					}
				}
			}
			return true
		})
	}
	if fields == 0 || strs == 0 {
		t.Fatalf("%d words, and none compared", words)
	}
	t.Logf("%d words of %d programs: %d exact field lists and %d constant strings compared", words, len(srcs), fields, strs)
}
