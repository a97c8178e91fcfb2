// Command jashexplain answers "what does this pipeline do?" from the
// specification library — an explainshell built on formal, symbolic man
// pages (§4 "Heuristic support"): per-stage summaries, flag meanings,
// dataflow classes, and the parallelization consequences. A `value flow:
// $x ⇒ /path` line appears only while abstract interpretation still knows
// the value: whatever may assign x — an expansion (`${x=w}`, `$((x=1))`,
// a `$n` pasted into arithmetic), a builtin's operand, eval, a function the
// script declares and the statement calls, under any control flow — makes
// it ⊤ (one model decides: expand.AnalyzeWord, analysis.AssignedBy). The
// hazard preflight is the shell's own, run ahead of time: the region former
// (dfg.FromStmt) and analysis.GraphHazards. It needs no run; what a run
// decided is in its trace (jashtrace).
//
// Usage:
//
//	jashexplain 'cat access.log | grep -v 200 | sort | uniq -c'
//	jashexplain -tutor sort -rn    # command tutor: spec, inferred class, caveats
package main

import (
	"errors"
	"fmt"
	"os"
	"sort"
	"strings"

	"jash/internal/analysis"
	"jash/internal/coreutils"
	"jash/internal/cost"
	"jash/internal/dfg"
	"jash/internal/expand"
	"jash/internal/infer"
	"jash/internal/rewrite"
	"jash/internal/spec"
	"jash/internal/syntax"
)

func main() {
	os.Exit(run())
}

func run() int {
	if len(os.Args) < 2 {
		fmt.Fprintln(os.Stderr, "usage: jashexplain ['pipeline...' | -tutor COMMAND [ARGS...]]")
		return 2
	}
	if os.Args[1] == "-tutor" {
		if len(os.Args) < 3 {
			fmt.Fprintln(os.Stderr, "usage: jashexplain -tutor COMMAND [ARGS...]")
			return 2
		}
		return tutor(os.Args[2:])
	}
	src := strings.Join(os.Args[1:], " ")
	script, err := syntax.Parse(src)
	if err != nil {
		fmt.Fprintf(os.Stderr, "jashexplain: %v\n", err)
		return 2
	}
	lib := spec.Builtin()
	x := &expand.Expander{}
	// Value flow: thread the abstract environment through the script so a
	// later `grep x $f` explains with the witness `$f ⇒ /tmp/a` instead
	// of "depends on dynamic state".
	env := analysis.NewEnv(nil)
	// The script's own declarations are the function table, for the value
	// flow here and for the list verdict below.
	funcBody := analysis.Declared(script)
	for _, st := range script.Stmts {
		simple, calls := 0, false
		for _, cmd := range st.AndOr.First.Cmds {
			sc, ok := cmd.(*syntax.SimpleCommand)
			if !ok {
				fmt.Printf("%s\n  a compound command (control flow); interpreted, never compiled\n",
					syntax.PrintCommand(cmd))
				continue
			}
			simple++
			sum := analysis.SummarizeCommandEnv(sc, lib, env)
			static := true
			for _, w := range sc.Args {
				static = static && w.IsStatic()
			}
			fields, err := x.ExpandWords(sc.Args)
			if !static || err != nil || len(fields) == 0 {
				deps := expand.AnalyzeWords(sc.Args)
				fmt.Printf("%s\n  depends on dynamic state (vars: %s) — the JIT expands it at dispatch time\n",
					syntax.PrintCommand(sc), strings.Join(deps.Vars, ", "))
				for _, wit := range sum.Witnesses {
					fmt.Printf("  value flow: %s — proven by abstract interpretation, no runtime state needed\n", wit)
				}
				if s := sum.String(); s != "pure" {
					fmt.Printf("  effects: %s\n", s)
				}
				continue
			}
			fmt.Printf("%s\n", syntax.QuoteWords(fields))
			if analysis.Called(fields[0], funcBody) != nil {
				fmt.Printf("  %s is a shell function: the JIT interprets this pipeline, never compiles it\n", fields[0])
				calls = true
				continue
			}
			e := lib.Resolve(fields)
			if e.Summary != "" {
				fmt.Printf("  %s\n", e.Summary)
			} else {
				fmt.Printf("  unknown command: no specification; the optimizer must assume arbitrary behaviour (B1)\n")
			}
			if cl, err := e.Scan(fields); err == nil {
				for _, f := range cl.Flags {
					flag := "-" + string(f.Letter)
					if doc, ok := e.FlagDocs[flag]; ok {
						fmt.Printf("    %s  %s\n", flag, doc)
					}
				}
			}
			fmt.Printf("  dataflow class: %s", e.Class)
			switch e.Class {
			case spec.Stateless:
				fmt.Printf(" — splits into parallel lanes; outputs concatenate in order\n")
			case spec.Parallelizable:
				fmt.Printf(" — splits into parallel lanes; partials recombine via %s\n", e.Agg)
			case spec.Blocking:
				fmt.Printf(" — needs its whole input; runs as a sequential stage\n")
			case spec.SideEffectful:
				if e.Excluded != nil {
					fmt.Printf(" — not planned: %v\n", e.Excluded)
				} else {
					fmt.Printf(" — mutates state; the optimizer will not touch this pipeline\n")
				}
			}
			if s := sum.String(); s != "pure" {
				fmt.Printf("  effects: %s\n", s)
			}
			for _, wit := range sum.Witnesses {
				fmt.Printf("  value flow: %s\n", wit)
			}
		}
		// Hazard preflight, decided as the shell decides it: the region
		// former builds the statement's dataflow graph, every node of which
		// runs concurrently, and GraphHazards refuses a graph whose nodes
		// conflict on a file. Ahead of time there is no shell state, so a
		// word that needs it is refused with the former's reason; the JIT
		// decides such a statement once the word is expanded. Any other
		// refusal is the JIT's too.
		g, err := dfg.FromStmt(st, lib, nil, true)
		if calls {
			// The JIT asks what each stage's name runs before it plans.
			err = errors.New("a stage is a shell function")
		}
		switch {
		case err != nil && dfg.NeedsShellState(err):
			fmt.Printf("hazard preflight: not decided ahead of time — %v\n", err)
		case err != nil:
			if simple >= 1 {
				fmt.Printf("hazard preflight: not a region, the JIT interprets it — %v\n", err)
			}
		default:
			if hz := analysis.GraphHazards(g, lib, "/"); len(hz) > 0 {
				fmt.Println("hazard preflight: REJECT — the JIT will not compile this pipeline:")
				for _, h := range hz {
					fmt.Printf("  %s\n", h)
				}
			} else {
				fmt.Println("hazard preflight: clean — its dataflow nodes touch no conflicting files")
			}
		}
		if simple >= 1 && (err == nil || dfg.NeedsShellState(err)) {
			fmt.Printf("self-healing: a failed plan falls back to the interpreter, journaled past any\n")
			fmt.Printf("  committed output; a region failing %d times is quarantined (interpreted) with\n",
				cost.BreakerThreshold)
			fmt.Printf("  a half-open probe after %v — see `jash -trace`\n", cost.BreakerDecay)
		}
		// Summarizing the statement walks it, which advances env past it.
		analysis.SummarizeStmtOpts(st, analysis.StmtOptions{Lib: lib, Env: env, FuncBody: funcBody})
	}
	// List-level verdict: across statements, can whole commands leave
	// program order? The shell's own planner (core.runStmtsTop), with the
	// cores of the profile jash plans with by default, including function
	// summaries for functions the script declares.
	if len(script.Stmts) >= 2 {
		_, dec := rewrite.ParallelizeList(script.Stmts, rewrite.ListOptions{
			Lib: lib, Dir: "/", Cores: cost.Laptop().Cores,
			FuncBody: funcBody,
		})
		for _, wit := range dec.Witnesses {
			fmt.Printf("value flow: %s\n", wit)
		}
		if dec.Parallel {
			fmt.Printf("list parallelism: PROVEN — %s; outputs replay in program order,\n", dec.Reason)
			fmt.Printf("  so stdout, stderr, and $? are byte-identical to the sequential run\n")
		} else {
			fmt.Printf("list parallelism: refused — %s\n", dec.Reason)
			if dec.CdBlockedOnly {
				fmt.Printf("  (JSH405: only a removable cd blocks this list — use absolute paths\n")
				fmt.Printf("   and drop the cd to unlock a concurrent region)\n")
			}
		}
	}
	return 0
}

// tutor answers "teach me about this command" from the specification
// library — the §4 proposal of using spec libraries as a database for a
// shell tutor. It combines the spec's summary, flags, dataflow class,
// parallelization story, and the linter analyses that guard the command.
// For a utility the shell implements it also learns the class by
// behavioural testing (package infer) and says whether the spec agrees.
func tutor(argv []string) int {
	name := argv[0]
	lib := spec.Builtin()
	s, hasSpec := lib.Lookup(name)
	status := 0
	if hasSpec {
		fmt.Printf("%s (spec v%s)\n", name, s.Version)
		fmt.Printf("  %s\n\n", s.Summary)
		if len(s.FlagDocs) > 0 {
			fmt.Println("flags the specification documents:")
			flags := make([]string, 0, len(s.FlagDocs))
			for f := range s.FlagDocs {
				flags = append(flags, f)
			}
			sort.Strings(flags)
			for _, f := range flags {
				fmt.Printf("  %-4s %s\n", f, s.FlagDocs[f])
			}
			fmt.Println()
		}
		fmt.Printf("dataflow class: %s\n", s.Class)
		switch s.Class {
		case spec.Stateless:
			fmt.Println("  Each input line is processed independently and order is preserved.")
			fmt.Println("  Jash can split its input into parallel lanes and simply concatenate")
			fmt.Println("  the partial outputs.")
		case spec.Parallelizable:
			fmt.Printf("  A pure function of its whole input with a known aggregator (%s),\n", s.Agg)
			fmt.Println("  so Jash can run it on chunks and recombine the partial results.")
		case spec.Blocking:
			fmt.Println("  It needs its entire input (or global positions within it), so it runs")
			fmt.Println("  as a sequential stage; the stages before and after it can still parallelize.")
		case spec.SideEffectful:
			fmt.Println("  It mutates state, so the optimizer leaves any pipeline containing it")
			fmt.Println("  entirely to the interpreter.")
		}
	} else {
		fmt.Printf("%s: no specification on file.\n", name)
		fmt.Println("An optimizer must treat it as side-effectful and never touch pipelines")
		fmt.Println("containing it (the paper's B1).")
		status = 1
	}
	if _, ok := coreutils.Lookup(name); ok {
		fmt.Printf("\ninferred by behavioural testing (%s):\n", strings.Join(argv, " "))
		if res, err := infer.Infer(argv); err != nil {
			fmt.Printf("  no class: %v\n", err)
		} else {
			fmt.Printf("  class=%s aggregator=%s\n", res.Class, res.Agg)
			for _, e := range res.Evidence {
				fmt.Printf("  %s\n", e)
			}
			if hasSpec {
				verdict := "AGREES"
				if eff := lib.Resolve(argv); eff.Class != res.Class {
					verdict = "DISAGREES"
				}
				fmt.Printf("  %s with the hand-written spec\n", verdict)
			}
		}
	}
	// Per-command caveats, mirroring the linter's analyses.
	caveats := map[string][]string{
		"rm":   {"quote variables and guard with ${VAR:?} — `rm -rf $DIR` with an empty DIR is catastrophic (JSH201)"},
		"read": {"use read -r unless you want backslash processing (JSH206)", "a `cmd | while read ...` loop runs in a subshell: assignments don't survive it (JSH302)"},
		"cat":  {"`cat file | cmd` with a single file is a useless use of cat: `cmd <file` (JSH301)"},
		"sort": {"`sort f >f` truncates f before sort reads it (JSH304)", "comm and join require sorted input — sort it first"},
		"sed":  {"`sed ... f >f` truncates the input before it is read (JSH304)"},
		"cd":   {"guard failures: `cd dir || exit 1`, or the rest of the script runs in the wrong directory (JSH207)"},
	}
	if notes, ok := caveats[name]; ok {
		fmt.Println("\nwatch out:")
		for _, n := range notes {
			fmt.Printf("  - %s\n", n)
		}
	}
	return status
}
