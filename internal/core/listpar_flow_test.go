// Differential coverage for list regions that only value-flow analysis
// can admit: every operand hides behind a variable or a function
// parameter, so the syntactic planner of PR 7 rejected them. Each test
// byte-compares the parallel run against a sequential oracle — the
// admission criterion for newly-concretized scripts.
package core

import (
	"strings"
	"testing"

	"jash/internal/cost"
	"jash/internal/exec/faultinject"
	"jash/internal/vfs"
)

func TestListParallelVariableOperandsDifferential(t *testing.T) {
	sh, out := runBoth(t, seedListFS,
		"F=/w0\nG=/w1\nH=/w2\ngrep -c alpha \"$F\"; grep -c beta \"$G\"; grep -c gamma \"$H\"\n")
	if out != "200\n250\n300\n" {
		t.Fatalf("output wrong: %q", out)
	}
	if sh.Stats.ListParallel != 3 {
		t.Fatalf("variable-operand region did not form: ListParallel=%d decisions=%+v",
			sh.Stats.ListParallel, sh.Stats.Decisions)
	}
	if sh.Stats.Concretized == 0 {
		t.Fatal("no words concretized: the region formed syntactically?")
	}
	d, ok := findDecision(sh, "parallel-list")
	if !ok {
		t.Fatalf("no parallel-list decision: %+v", sh.Stats.Decisions)
	}
	var sawF bool
	for _, w := range d.Witnesses {
		if strings.Contains(w, "$F") && strings.Contains(w, "/w0") {
			sawF = true
		}
	}
	if !sawF {
		t.Errorf("decision carries no $F ⇒ /w0 witness: %v", d.Witnesses)
	}
}

func TestListParallelFunctionCallsDifferential(t *testing.T) {
	sh, out := runBoth(t, seedListFS,
		"count() { grep -c line \"$1\" > \"$1.n\"; }\n"+
			"count /w0; count /w1; count /w2\n"+
			"cat /w0.n /w1.n /w2.n\n")
	if out != "200\n250\n300\n" {
		t.Fatalf("output wrong: %q", out)
	}
	if sh.Stats.ListParallel != 3 {
		t.Fatalf("function-call region did not form: ListParallel=%d decisions=%+v",
			sh.Stats.ListParallel, sh.Stats.Decisions)
	}
	if sh.Stats.Concretized == 0 {
		t.Fatal("function summaries were not parameterized")
	}
	if _, ok := findDecision(sh, "parallel-list"); !ok {
		t.Fatalf("no parallel-list decision: %+v", sh.Stats.Decisions)
	}
}

// TestListRegionChaosConcretizedLane is the chaos variant for a region
// that exists only because of value flow: the same mid-stream write
// fault as the syntactic chaos test, but with every path behind a
// variable. Recovery inside the lane must still replay byte-identically.
func TestListRegionChaosConcretizedLane(t *testing.T) {
	const script = "F=/small0\nG=/big\nH=/small2\n" +
		"grep -c Apple \"$F\"; cat \"$G\" | tr A-Z a-z; grep -c banana \"$H\"\n"

	oracle, oout, oerr := newShell(chaosListFS(), cost.StandardEC2(), ModeJash)
	oracle.NoListParallel = true
	wantSt, err := oracle.Run(script)
	if err != nil {
		t.Fatalf("oracle: %v", err)
	}

	s, out, errb := newShell(chaosListFS(), cost.StandardEC2(), ModeJash)
	s.Faults = faultinject.NewSet(faultinject.Rule{
		Node: "tr", Op: faultinject.OpWrite, Nth: 8,
	})
	st, err := s.Run(script)
	if err != nil {
		t.Fatalf("faulted run: %v", err)
	}
	if s.Faults.Fired() == 0 {
		t.Fatal("fault never fired")
	}
	if s.Stats.ListParallel != 3 {
		t.Fatalf("concretized region did not form: ListParallel=%d decisions=%+v",
			s.Stats.ListParallel, s.Stats.Decisions)
	}
	if s.Stats.Concretized == 0 {
		t.Fatal("region formed without value flow?")
	}
	if st != wantSt {
		t.Errorf("status %d, oracle %d (stderr %q)", st, wantSt, errb.String())
	}
	if out.String() != oout.String() {
		t.Errorf("replay not byte-identical: got %d bytes, oracle %d bytes",
			out.Len(), oout.Len())
	}
	if errb.String() != oerr.String() {
		t.Errorf("stderr diverged: %q vs %q", errb.String(), oerr.String())
	}
}

// TestListRegionSeesArithmeticAssignment: `: $((p=7))` rebinds p, so f
// reads ./7 — the file the next statement of the list rewrites. Value flow
// that misses the assignment proves the two independent ("f reads
// /data/a.txt") and /o receives whichever of `old` and `new` wins the race.
func TestListRegionSeesArithmeticAssignment(t *testing.T) {
	const script = "f() { p=/data/a.txt; : $((p=7)); cat $p > /o; }\n" +
		"cd /\necho old > /7\nf; echo new > 7\n"
	for _, cfg := range []struct {
		name   string
		mode   Mode
		noList bool
	}{{"bash", ModeBash, false}, {"jash", ModeJash, false}, {"no-list-parallel", ModeJash, true}} {
		fs := vfs.New()
		sh, _, errb := newShell(fs, cost.StandardEC2(), cfg.mode)
		sh.NoListParallel = cfg.noList
		if st, err := sh.Run(script); err != nil || st != 0 {
			t.Fatalf("%s: status=%d err=%v stderr=%q", cfg.name, st, err, errb.String())
		}
		if got, _ := fs.ReadFile("/o"); string(got) != "old\n" {
			t.Errorf("%s: /o holds %q, want %q", cfg.name, got, "old\n")
		}
		if d, ok := findDecision(sh, "parallel-list"); ok {
			t.Errorf("%s: the list ran as a parallel region: %+v", cfg.name, d)
		}
	}
}
