package analysis

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"jash/internal/syntax"
)

// TestValueFlowPrecisionGate measures the effect system's precision over
// the example scripts: for every named simple command it compares the
// purely syntactic summary (what the planner knew before value-flow
// analysis) against the abstract-interpretation summary, and counts the ⊤
// summaries — commands with effects on paths the analysis cannot name —
// each leaves. It fails if the ⊤ rate (abstract ⊤ summaries per command)
// rose above the committed ANALYSIS_baseline.json, or if value flow
// concretizes fewer than 30% of the syntactically-⊤ summaries. After
// precision work, lower the baseline's top_rate to the logged rate.
func TestValueFlowPrecisionGate(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("..", "..", "examples", "*", "script.sh"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no example scripts found: %v", err)
	}
	l := lib()
	var commands, topSyn, topAbs, concretized int
	t.Logf("%-40s %9s %6s %6s %11s", "script", "commands", "⊤ syn", "⊤ abs", "concretized")
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		script, err := syntax.Parse(string(data))
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		var n, syn, abs, conc int
		var witnesses []string
		WalkValues(script, nil, &ValueVisitor{
			Simple: func(sc *syntax.SimpleCommand, env *Env) {
				if sc.Name() == "" {
					return
				}
				n++
				synTop := SummarizeCommand(sc, l).Unknown != 0
				sum := SummarizeCommandEnv(sc, l, env)
				absTop := sum.Unknown != 0
				if synTop {
					syn++
				}
				if absTop {
					abs++
				}
				if synTop && !absTop {
					conc++
					witnesses = append(witnesses, sum.Witnesses...)
				}
			},
		})
		rel, _ := filepath.Rel(filepath.Join("..", ".."), p)
		t.Logf("%-40s %9d %6d %6d %11d", filepath.ToSlash(rel), n, syn, abs, conc)
		for _, w := range witnesses {
			t.Logf("    value flow: %s", w)
		}
		commands, topSyn, topAbs, concretized = commands+n, topSyn+syn, topAbs+abs, concretized+conc
	}
	t.Logf("%-40s %9d %6d %6d %11d", "total", commands, topSyn, topAbs, concretized)
	rate := float64(topAbs) / float64(commands)
	t.Logf("⊤-summary rate: %.2f%% of commands", 100*rate)

	if topSyn > 0 {
		pct := 100 * float64(concretized) / float64(topSyn)
		t.Logf("value flow concretized %.1f%% of previously-⊤ summaries", pct)
		if pct < 30 {
			t.Errorf("only %.1f%% of ⊤ summaries concretized (floor 30%%)", pct)
		}
	}
	raw, err := os.ReadFile(filepath.Join("..", "..", "ANALYSIS_baseline.json"))
	if err != nil {
		t.Fatal(err)
	}
	var base struct {
		TopRate float64 `json:"top_rate"`
	}
	if err := json.Unmarshal(raw, &base); err != nil {
		t.Fatalf("ANALYSIS_baseline.json: %v", err)
	}
	if rate > base.TopRate+1e-9 {
		t.Errorf("⊤-summary rate regressed: %.2f%% now vs %.2f%% in ANALYSIS_baseline.json", 100*rate, 100*base.TopRate)
	}
}
