package fuzz

import (
	"flag"
	"fmt"
	"strings"
	"testing"

	"jash/internal/analysis"
	"jash/internal/interp"
	"jash/internal/spec"
	"jash/internal/syntax"
)

var modelN = flag.Int("fuzz.model", 2000, "check the variable-effect model against the interpreter over N generated programs")

// TestAbstractEnvOverApproximatesTheInterpreter checks the model against
// the evaluator, which the five oracles cannot do — they share the
// evaluator. Each generated program runs one top-level statement at a time
// on a plain interpreter; after statement k, whatever the abstract
// interpreter claims about a variable from the text of statements 1..k
// (seeded with the shell's start-up variables) must hold of the variable
// the interpreter actually has: a Const equals it, a Prefix prefixes it.
// And a statement the list planner would let leave program order must name
// every variable it changed in its Defs — those are the only ones merged
// back from a region's worker.
func TestAbstractEnvOverApproximatesTheInterpreter(t *testing.T) {
	lib := spec.Builtin()
	violations := map[string]bool{}
	for seed := uint64(1); seed <= uint64(*modelN); seed++ {
		p := Generate(DefaultConfig(seed))
		in := interp.New(p.Fixture.Build())
		start := values(in)
		lookup := func(name string) (string, bool) { v, ok := start[name]; return v, ok }
		report := func(k int, format string, args ...any) {
			msg := fmt.Sprintf(format, args...)
			if !violations[msg] {
				violations[msg] = true
				t.Errorf("seed %d after statement %d (%s): %s", seed, k+1,
					strings.TrimSpace(syntax.PrintStmts(p.Script.Stmts[k:k+1])), msg)
			}
		}
		pre := analysis.NewEnv(lookup) // the model's state before statement k
		for k, st := range p.Script.Stmts {
			before := values(in)
			funcs := analysis.NewFuncSummarizer(lib, func(name string) syntax.Command { return in.Funcs[name] })
			ss := analysis.SummarizeStmtOpts(st, analysis.StmtOptions{Lib: lib, Env: pre, Funcs: funcs})
			if _, err := in.RunStmts([]*syntax.Stmt{st}); err != nil || in.Exited {
				break
			}
			after := values(in)
			env := analysis.WalkValues(&syntax.Script{Stmts: p.Script.Stmts[:k+1]}, analysis.NewEnv(lookup), nil)
			names := map[string]bool{}
			for n := range before {
				names[n] = true
			}
			for n := range after {
				names[n] = true
			}
			for _, line := range strings.Split(env.Dump(), "\n") {
				if n, _, ok := strings.Cut(line, "="); ok {
					names[n] = true
				}
			}
			for n := range names {
				switch v := env.Resolve(n); {
				case v.IsConst() && v.Str != after[n]:
					report(k, "$%s is %q, the model says %v", n, after[n], v)
				case v.Kind == analysis.AbsPrefix && !strings.HasPrefix(after[n], v.Str):
					report(k, "$%s is %q, the model says %v", n, after[n], v)
				}
				_, was := before[n]
				_, is := after[n]
				if ss.Eligible() && (before[n] != after[n] || was != is) && !ss.Defs[n] {
					report(k, "eligible statement changed $%s, Defs are %v", n, ss.Defs)
				}
			}
			pre = env
		}
	}
}

func values(in *interp.Interp) map[string]string {
	m := make(map[string]string, len(in.Vars))
	for n, v := range in.Vars {
		m[n] = v.Value
	}
	return m
}
