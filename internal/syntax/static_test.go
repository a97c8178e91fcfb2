package syntax_test

import (
	"slices"
	"testing"

	"jash/internal/analysis"
	"jash/internal/expand"
	"jash/internal/fuzz"
	"jash/internal/syntax"
)

// checkStatic checks the static view of every IsStatic word of src
// against the expander: ExpandString is StaticValue, the abstract
// interpreter's value is that constant, and a word with no glob
// metacharacter is exactly that one field (the empty value of `x=` has
// no parts, and is no field).
func checkStatic(t *testing.T, src string) {
	t.Helper()
	s, err := syntax.Parse(src)
	if err != nil {
		return
	}
	x := &expand.Expander{}
	syntax.Walk(s, func(n syntax.Node) bool {
		w, ok := n.(*syntax.Word)
		if !ok || !w.IsStatic() {
			return true
		}
		v := w.StaticValue()
		if got, err := x.ExpandString(w); err != nil || got != v {
			t.Errorf("%q: ExpandString(%s) = %q, %v; StaticValue %q", src, syntax.PrintWord(w), got, err, v)
		}
		if abs := analysis.EvalWordAbs(w, nil); abs != analysis.Const(v) {
			t.Errorf("%q: EvalWordAbs(%s) = %v; StaticValue %q", src, syntax.PrintWord(w), abs, v)
		}
		if !expand.MayGlob(w) && len(w.Parts) > 0 {
			if fields, err := x.ExpandWord(w); err != nil || !slices.Equal(fields, []string{v}) {
				t.Errorf("%q: ExpandWord(%s) = %q, %v; StaticValue %q", src, syntax.PrintWord(w), fields, err, v)
			}
		}
		return true
	})
}

// TestStaticValueIsTheExpansion ties the static view the effect summaries
// read to the expander, over the round-trip table, the parser's fuzz seeds
// and generated programs.
func TestStaticValueIsTheExpansion(t *testing.T) {
	for _, src := range append(syntax.RoundTripCases, syntax.ParseSeeds...) {
		checkStatic(t, src)
	}
	for seed := uint64(1); seed <= 2000; seed++ {
		checkStatic(t, fuzz.Generate(fuzz.DefaultConfig(seed)).Source)
	}
}
