package analysis

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"jash/internal/syntax"
)

// exampleScripts returns dir-name -> source for every script under
// examples/.
func exampleScripts(t *testing.T) map[string]string {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join("..", "..", "examples", "*", "script.sh"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no example scripts found: %v", err)
	}
	out := map[string]string{}
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		out[filepath.Base(filepath.Dir(p))] = string(data)
	}
	return out
}

// TestAnalyzerHandlesAllExamples: every example script parses and runs
// through both analysis layers without panicking.
func TestAnalyzerHandlesAllExamples(t *testing.T) {
	l := lib()
	for dir, src := range exampleScripts(t) {
		script, err := syntax.Parse(src)
		if err != nil {
			t.Errorf("%s: parse: %v", dir, err)
			continue
		}
		du := AnalyzeDefUse(script)
		if du == nil {
			t.Errorf("%s: nil def-use result", dir)
		}
		syntax.Walk(script, func(n syntax.Node) bool {
			if sc, ok := n.(*syntax.SimpleCommand); ok {
				if s := SummarizeCommand(sc, l); s == nil {
					t.Errorf("%s: nil summary for %s", dir, sc.Name())
				}
			}
			return true
		})
	}
}

// exampleVerdict renders the representative (first multi-stage) pipeline
// of a script as per-stage effect summaries plus the hazard verdict.
func exampleVerdict(t *testing.T, src string) string {
	t.Helper()
	script, err := syntax.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	l := lib()
	for _, st := range script.Stmts {
		pl := st.AndOr.First
		if len(pl.Cmds) < 2 {
			continue
		}
		var sums []*Summary
		var parts []string
		for _, cmd := range pl.Cmds {
			sc, ok := cmd.(*syntax.SimpleCommand)
			if !ok {
				t.Fatalf("compound stage in representative pipeline")
			}
			s := SummarizeCommand(sc, l)
			sums = append(sums, s)
			parts = append(parts, fmt.Sprintf("%s{%s}", sc.Name(), s))
		}
		// Pipeline stages run concurrently: any two that conflict on a
		// file reject the pipeline.
		var hz []Hazard
		for i := range sums {
			for j := i + 1; j < len(sums); j++ {
				hz = append(hz, Conflicts(sums[i], sums[j], fmt.Sprintf("stage %d", i+1), fmt.Sprintf("stage %d", j+1))...)
			}
		}
		verdict := "clean"
		if len(hz) > 0 {
			verdict = "REJECT: " + hz[0].String()
		}
		return strings.Join(parts, " | ") + " => " + verdict
	}
	// No multi-stage pipeline (a command-list script): pin the first
	// command's solo summary instead.
	for _, st := range script.Stmts {
		if sc, ok := st.AndOr.First.Cmds[0].(*syntax.SimpleCommand); ok && len(sc.Args) > 0 {
			return fmt.Sprintf("%s{%s} => single-stage", sc.Name(), SummarizeCommand(sc, l))
		}
	}
	t.Fatal("script has no commands")
	return ""
}

// TestExamplePipelineGolden pins the effect summary and hazard verdict
// for one representative pipeline per example directory. A change here
// means the effect lattice or the spec library changed semantics —
// update deliberately.
func TestExamplePipelineGolden(t *testing.T) {
	golden := map[string]string{
		"quickstart":  "cat{reads[/data/words.txt] stdout} | tr{stdin stdout} | tr{stdin stdout} | sort{stdin stdout} | uniq{stdin stdout} | sort{stdin stdout} | head{stdin stdout} => clean",
		"loganalysis": "grep{reads[/var/log/access.log] stdout} | cut{stdin stdout} | sort{stdin stdout} | uniq{stdin stdout} | sort{stdin stdout} | head{stdin stdout} => clean",
		"spellcheck":  "cat{stdout ⊤[read]} | tr{stdin stdout} | tr{stdin stdout} | sort{stdin stdout} | comm{stdout ⊤[read]} => clean",
		"temperature": "cat{reads[/ncdc/records.txt] stdout} | cut{stdin stdout} | grep{stdin stdout} | sort{stdin stdout} | head{stdin stdout} => clean",
		"distributed": "tr{reads[/data/shard.txt] stdin stdout} | tr{stdin stdout} | sort{stdin stdout} => clean",
		"incremental": "tr{reads[/corpus.txt] stdin stdout} | tr{stdin stdout} | grep{stdin stdout} => clean",
		// reportgen is a command list, not a pipeline: its whole point is
		// that every path hides behind a variable, so the syntactic
		// summary is ⊤ until the value-flow layer concretizes it.
		"reportgen": "grep{reads[ERROR] stdout ⊤[read+write+create]} => single-stage",
	}
	scripts := exampleScripts(t)
	for dir, want := range golden {
		src, ok := scripts[dir]
		if !ok {
			t.Errorf("example %s has no script.sh", dir)
			continue
		}
		if got := exampleVerdict(t, src); got != want {
			t.Errorf("%s:\n got  %s\n want %s", dir, got, want)
		}
	}
	// Every example dir must be pinned: a new example needs a golden row.
	var missing []string
	for dir := range scripts {
		if _, ok := golden[dir]; !ok {
			missing = append(missing, dir)
		}
	}
	sort.Strings(missing)
	if len(missing) > 0 {
		t.Errorf("example dirs without golden rows: %v", missing)
	}
}
