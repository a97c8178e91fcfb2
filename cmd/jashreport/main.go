// Command jashreport measures the precision of the effect system over a
// set of shell scripts: for every simple command it compares the purely
// syntactic effect summary (what the planner knew before value-flow
// analysis) against the abstract-interpretation summary (constants
// propagated through assignments, concatenation, and quote removal; a
// variable that `${x=w}` or `$((x=1))` may assign goes back to ⊤), and
// reports how many ⊤ summaries — commands with unknown effects —
// the value-flow layer eliminates.
//
// Usage:
//
//	jashreport [-json out.json] [-baseline base.json]
//	           [-min-concretized PCT] script.sh...
//
// With -baseline, the run fails (exit 1) if the ⊤-summary rate
// regressed against the committed baseline — the CI precision gate.
// -min-concretized fails the run when fewer than PCT percent of the
// previously-⊤ summaries were concretized.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"jash/internal/analysis"
	"jash/internal/spec"
	"jash/internal/syntax"
)

func main() {
	os.Exit(run())
}

// scriptReport is the per-script (and, with Script empty, whole-corpus)
// precision record.
type scriptReport struct {
	Script string `json:"script,omitempty"`
	// Commands counts named simple commands analyzed.
	Commands int `json:"commands"`
	// TopSyntactic counts commands whose syntactic summary contains ⊤
	// (unknown) effects.
	TopSyntactic int `json:"top_syntactic"`
	// TopAbstract counts commands still ⊤ under value-flow analysis.
	TopAbstract int `json:"top_abstract"`
	// Concretized counts commands the abstract layer rescued: ⊤ under
	// syntax, fully known under value flow.
	Concretized int      `json:"concretized"`
	Witnesses   []string `json:"witnesses,omitempty"`
}

// report is the -json document.
type report struct {
	Scripts []scriptReport `json:"scripts"`
	Total   scriptReport   `json:"total"`
	// TopRate is TopAbstract/Commands over the whole corpus — the
	// number the baseline gate compares.
	TopRate float64 `json:"top_rate"`
	// ConcretizedPct is Concretized/TopSyntactic over the corpus: the
	// share of previously-⊤ summaries the value-flow layer eliminated.
	ConcretizedPct float64 `json:"concretized_pct"`
}

func run() int {
	jsonPath := flag.String("json", "", "write the report as JSON to this file")
	basePath := flag.String("baseline", "", "fail if the ⊤-summary rate regressed vs this committed report")
	minConc := flag.Float64("min-concretized", 0, "fail if fewer than this percent of ⊤ summaries were concretized")
	flag.Parse()
	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "usage: jashreport [-json out.json] [-baseline base.json] script.sh...")
		return 2
	}
	lib := spec.Builtin()
	var rep report
	for _, path := range flag.Args() {
		data, err := os.ReadFile(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "jashreport: %v\n", err)
			return 2
		}
		sr, err := analyzeScript(path, string(data), lib)
		if err != nil {
			fmt.Fprintf(os.Stderr, "jashreport: %s: %v\n", path, err)
			return 2
		}
		rep.Scripts = append(rep.Scripts, sr)
		rep.Total.Commands += sr.Commands
		rep.Total.TopSyntactic += sr.TopSyntactic
		rep.Total.TopAbstract += sr.TopAbstract
		rep.Total.Concretized += sr.Concretized
	}
	if rep.Total.Commands > 0 {
		rep.TopRate = float64(rep.Total.TopAbstract) / float64(rep.Total.Commands)
	}
	if rep.Total.TopSyntactic > 0 {
		rep.ConcretizedPct = 100 * float64(rep.Total.Concretized) / float64(rep.Total.TopSyntactic)
	}

	fmt.Printf("%-40s %9s %6s %6s %11s\n", "script", "commands", "⊤ syn", "⊤ abs", "concretized")
	for _, sr := range rep.Scripts {
		fmt.Printf("%-40s %9d %6d %6d %11d\n",
			sr.Script, sr.Commands, sr.TopSyntactic, sr.TopAbstract, sr.Concretized)
		for _, w := range sr.Witnesses {
			fmt.Printf("    value flow: %s\n", w)
		}
	}
	fmt.Printf("%-40s %9d %6d %6d %11d\n", "total",
		rep.Total.Commands, rep.Total.TopSyntactic, rep.Total.TopAbstract, rep.Total.Concretized)
	fmt.Printf("⊤-summary rate: %.1f%% of commands; value flow concretized %.1f%% of previously-⊤ summaries\n",
		100*rep.TopRate, rep.ConcretizedPct)

	if *jsonPath != "" {
		data, err := json.MarshalIndent(&rep, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "jashreport: %v\n", err)
			return 2
		}
		if err := os.WriteFile(*jsonPath, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "jashreport: %v\n", err)
			return 2
		}
	}
	if *minConc > 0 && rep.Total.TopSyntactic > 0 && rep.ConcretizedPct < *minConc {
		fmt.Fprintf(os.Stderr, "jashreport: FAIL — only %.1f%% of ⊤ summaries concretized (floor %.1f%%)\n",
			rep.ConcretizedPct, *minConc)
		return 1
	}
	if *basePath != "" {
		data, err := os.ReadFile(*basePath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "jashreport: %v\n", err)
			return 2
		}
		var base report
		if err := json.Unmarshal(data, &base); err != nil {
			fmt.Fprintf(os.Stderr, "jashreport: %s: %v\n", *basePath, err)
			return 2
		}
		if rep.TopRate > base.TopRate+1e-9 {
			fmt.Fprintf(os.Stderr, "jashreport: FAIL — ⊤-summary rate regressed: %.2f%% now vs %.2f%% in %s\n",
				100*rep.TopRate, 100*base.TopRate, *basePath)
			return 1
		}
		fmt.Printf("baseline check: ok (%.2f%% ⊤ rate, baseline %.2f%%)\n",
			100*rep.TopRate, 100*base.TopRate)
	}
	return 0
}

// analyzeScript runs the abstract interpreter over one script and scores
// every named simple command under both analyses.
func analyzeScript(path, src string, lib *spec.Library) (scriptReport, error) {
	script, err := syntax.Parse(src)
	if err != nil {
		return scriptReport{}, err
	}
	sr := scriptReport{Script: path}
	vis := &analysis.ValueVisitor{
		Simple: func(sc *syntax.SimpleCommand, env *analysis.Env) {
			if sc.Name() == "" {
				return
			}
			sr.Commands++
			synTop := hasTop(analysis.SummarizeCommand(sc, lib))
			abs := analysis.SummarizeCommandEnv(sc, lib, env)
			absTop := hasTop(abs)
			if synTop {
				sr.TopSyntactic++
			}
			if absTop {
				sr.TopAbstract++
			}
			if synTop && !absTop {
				sr.Concretized++
				sr.Witnesses = append(sr.Witnesses, abs.Witnesses...)
			}
		},
	}
	analysis.WalkValues(script, nil, vis)
	return sr, nil
}

// hasTop reports whether a summary contains ⊤ effects: operations on
// paths the analysis could not name.
func hasTop(s *analysis.Summary) bool { return s.Unknown != 0 }
