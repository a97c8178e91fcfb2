package fuzz

import (
	"flag"
	"fmt"
	"maps"
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
// back from a region's worker — and may not change whether a variable is
// exported: every utility started after it reads the exported environment,
// which no summary models.
func TestAbstractEnvOverApproximatesTheInterpreter(t *testing.T) {
	lib := spec.Builtin()
	violations := map[string]bool{}
	for seed := uint64(1); seed <= uint64(*modelN); seed++ {
		p := Generate(DefaultConfig(seed))
		in := interp.New(p.Fixture.Build())
		start := values(in)
		lookup := func(name string) (string, bool) { v, ok := start[name]; return v.Value, ok }
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
			env, _ := analysis.WalkValues(&syntax.Script{Stmts: p.Script.Stmts[:k+1]}, analysis.NewEnv(lookup), nil)
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
				case v.IsConst() && v.Str != after[n].Value:
					report(k, "$%s is %q, the model says %v", n, after[n].Value, v)
				case v.Kind == analysis.AbsPrefix && !strings.HasPrefix(after[n].Value, v.Str):
					report(k, "$%s is %q, the model says %v", n, after[n].Value, v)
				}
				b, was := before[n]
				a, is := after[n]
				if ss.Eligible() && (b.Value != a.Value || was != is) && !ss.Defs[n] {
					report(k, "eligible statement changed $%s, Defs are %v", n, ss.Defs)
				}
				if ss.Eligible() && b.Exported != a.Exported {
					report(k, "eligible statement changed whether $%s is exported", n)
				}
			}
			pre = env
		}
	}
}

// TestDeadStoreIsDead checks JSH402's model against the evaluator: a store
// DeadDefs calls dead is never read, so giving every one of them a sentinel
// value instead must leave the program's stdout, stderr, exit status and
// filesystem exactly as they were.
func TestDeadStoreIsDead(t *testing.T) {
	const sentinel = "jash_dead_store"
	checked := 0
	for seed := uint64(1); seed <= uint64(*modelN); seed++ {
		p := Generate(DefaultConfig(seed))
		dead := map[syntax.Pos]string{}
		for _, d := range analysis.AnalyzeDefUse(p.Script).DeadDefs() {
			dead[d.Pos] = d.Name
		}
		n := len(dead)
		if n == 0 {
			continue
		}
		p.Source = syntax.Print(p.Script)
		want := RunOracle("plain", p, RunOpts{})
		syntax.Walk(p.Script, func(n syntax.Node) bool {
			switch x := n.(type) {
			case *syntax.Assign: // x=value
				if name, ok := dead[x.Pos()]; ok && name == x.Name {
					x.Value = lit(sentinel)
					delete(dead, x.Pos())
				}
			case *syntax.SimpleCommand: // local x=value
				for i, w := range x.Args {
					if name, ok := dead[w.Pos()]; ok && strings.HasPrefix(w.StaticValue(), name+"=") {
						x.Args[i] = lit(name + "=" + sentinel)
						delete(dead, w.Pos())
					}
				}
			}
			return true
		})
		if len(dead) != 0 {
			t.Errorf("seed %d: dead stores %v name no assignment", seed, dead)
			continue
		}
		checked += n
		mutant := syntax.Print(p.Script)
		p.Source = mutant
		got := RunOracle("plain", p, RunOpts{})
		if got.Status != want.Status || got.Stdout != want.Stdout || got.Stderr != want.Stderr || got.FSDump != want.FSDump {
			t.Errorf("seed %d: a dead store was read\n--- mutant:\n%s\n--- status %d/%d stdout %q/%q stderr %q/%q",
				seed, mutant, want.Status, got.Status, want.Stdout, got.Stdout, want.Stderr, got.Stderr)
		}
	}
	t.Logf("%d dead stores checked", checked)
}

func values(in *interp.Interp) map[string]interp.Variable {
	return maps.Clone(in.Vars)
}
