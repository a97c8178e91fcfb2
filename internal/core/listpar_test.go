package core

import (
	"strings"
	"testing"

	"jash/internal/cost"
	"jash/internal/vfs"
)

// seedListFS writes the disjoint inputs the list-region tests share.
func seedListFS() *vfs.FS {
	fs := vfs.New()
	words := []string{"alpha", "beta", "gamma", "delta"}
	for i, w := range words {
		var b strings.Builder
		for j := 0; j < 200+50*i; j++ {
			b.WriteString(w)
			b.WriteString(" line\n")
		}
		fs.WriteFile("/w"+string(rune('0'+i)), []byte(b.String()))
	}
	return fs
}

// runBoth runs the same script with list parallelism on and off and
// checks stdout, stderr, and status are byte-identical.
func runBoth(t *testing.T, fs func() *vfs.FS, script string) (*Shell, string) {
	t.Helper()
	par, pout, perr := newShell(fs(), cost.StandardEC2(), ModeJash)
	pst, perrr := par.Run(script)
	seq, sout, serr := newShell(fs(), cost.StandardEC2(), ModeJash)
	seq.NoListParallel = true
	sst, serrr := seq.Run(script)
	if (perrr == nil) != (serrr == nil) {
		t.Fatalf("error divergence: parallel=%v sequential=%v", perrr, serrr)
	}
	if pst != sst {
		t.Fatalf("status divergence: parallel=%d sequential=%d", pst, sst)
	}
	if pout.String() != sout.String() {
		t.Fatalf("stdout divergence:\nparallel:   %q\nsequential: %q", pout.String(), sout.String())
	}
	if perr.String() != serr.String() {
		t.Fatalf("stderr divergence:\nparallel:   %q\nsequential: %q", perr.String(), serr.String())
	}
	return par, pout.String()
}

func TestListParallelIndependentStatements(t *testing.T) {
	sh, _ := runBoth(t, seedListFS,
		"grep -c alpha /w0; grep -c beta /w1; grep -c gamma /w2; grep -c delta /w3\n")
	if sh.Stats.ListParallel != 4 {
		t.Fatalf("ListParallel=%d, want 4; decisions=%+v", sh.Stats.ListParallel, sh.Stats.Decisions)
	}
	d, ok := findDecision(sh, "parallel-list")
	if !ok {
		t.Fatalf("no parallel-list decision recorded: %+v", sh.Stats.Decisions)
	}
	if d.Width < 2 {
		t.Fatalf("parallel-list width=%d", d.Width)
	}
}

func TestListParallelOutputOrderIsProgramOrder(t *testing.T) {
	// Each statement writes a distinct marker; the replay must interleave
	// nothing and preserve program order exactly.
	sh, out := runBoth(t, seedListFS,
		"grep -c alpha /w0; grep -c beta /w1; grep -c gamma /w2; grep -c delta /w3\n")
	if out != "200\n250\n300\n350\n" {
		t.Fatalf("replay order wrong: %q", out)
	}
	if sh.Stats.ListParallel == 0 {
		t.Fatal("region never formed")
	}
}

func TestListParallelStatusIsLastStatement(t *testing.T) {
	// grep with no match exits 1; the list's $? is the last statement's.
	sh, _ := runBoth(t, seedListFS,
		"grep -c alpha /w0; grep -c zeta /w1\necho st=$?\n")
	if sh.Stats.ListParallel != 2 {
		t.Fatalf("ListParallel=%d decisions=%+v", sh.Stats.ListParallel, sh.Stats.Decisions)
	}
}

func TestListParallelDefsMergeBack(t *testing.T) {
	sh, out := runBoth(t, seedListFS, "x=one; y=two; z=three\necho $x $y $z\n")
	if out != "one two three\n" {
		t.Fatalf("defs lost: %q", out)
	}
	if sh.Stats.ListParallel != 3 {
		t.Fatalf("ListParallel=%d decisions=%+v", sh.Stats.ListParallel, sh.Stats.Decisions)
	}
}

func TestListParallelForLoopUnrolls(t *testing.T) {
	fs := func() *vfs.FS {
		f := seedListFS()
		return f
	}
	sh, _ := runBoth(t, fs, "for f in /w0 /w1 /w2; do wc -l $f >$f.n; done\ncat /w0.n /w1.n /w2.n\necho last=$f\n")
	if sh.Stats.ListParallel != 3 {
		t.Fatalf("loop not unrolled: ListParallel=%d decisions=%+v",
			sh.Stats.ListParallel, sh.Stats.Decisions)
	}
}

func TestListParallelBraceGroupFlattens(t *testing.T) {
	sh, _ := runBoth(t, seedListFS, "{ grep -c alpha /w0; grep -c beta /w1; }\n")
	if sh.Stats.ListParallel != 2 {
		t.Fatalf("brace group not flattened: ListParallel=%d decisions=%+v",
			sh.Stats.ListParallel, sh.Stats.Decisions)
	}
}

func TestListParallelRefusesInterference(t *testing.T) {
	sh, _ := runBoth(t, seedListFS, "sort /w0 >/mid; grep -c alpha /mid\n")
	if sh.Stats.ListParallel != 0 {
		t.Fatal("read-after-write list entered a region")
	}
	if d, ok := findDecision(sh, "sequential-list"); !ok || !strings.Contains(d.Reason, "/mid") {
		t.Fatalf("refusal not recorded with the hazard path: %+v", sh.Stats.Decisions)
	}
}

func TestListParallelRefusesUnderErrExit(t *testing.T) {
	sh, _ := runBoth(t, seedListFS, "set -e\ngrep -c alpha /w0; grep -c beta /w1\n")
	if sh.Stats.ListParallel != 0 {
		t.Fatal("set -e list entered a region")
	}
}

func TestListParallelRefusesUnderTrap(t *testing.T) {
	sh, _ := runBoth(t, seedListFS, "trap 'echo bye' EXIT\ngrep -c alpha /w0; grep -c beta /w1\n")
	if sh.Stats.ListParallel != 0 {
		t.Fatal("trapped list entered a region")
	}
}

func TestListParallelDisabledByFlag(t *testing.T) {
	fs := seedListFS()
	sh, out, _ := newShell(fs, cost.StandardEC2(), ModeJash)
	sh.NoListParallel = true
	if st, err := sh.Run("grep -c alpha /w0; grep -c beta /w1\n"); st != 0 || err != nil {
		t.Fatalf("st=%d err=%v", st, err)
	}
	if sh.Stats.ListParallel != 0 {
		t.Fatal("NoListParallel ignored")
	}
	if out.String() != "200\n250\n" {
		t.Fatalf("out=%q", out.String())
	}
}

func TestListParallelInnerPipelinesStillJIT(t *testing.T) {
	// Statements inside a region are full pipelines: the observer on each
	// worker clone must still get to optimize them.
	fs := seedListFS()
	sh, out, _ := newShell(fs, cost.StandardEC2(), ModeJash)
	script := "cat /w0 | tr a-z A-Z | grep -c ALPHA >/o0; cat /w1 | tr a-z A-Z | grep -c BETA >/o1\ncat /o0 /o1\n"
	if st, err := sh.Run(script); st != 0 || err != nil {
		t.Fatalf("st=%d err=%v", st, err)
	}
	if out.String() != "200\n250\n" {
		t.Fatalf("out=%q", out.String())
	}
	if sh.Stats.ListParallel != 2 {
		t.Fatalf("ListParallel=%d decisions=%+v", sh.Stats.ListParallel, sh.Stats.Decisions)
	}
	if sh.Stats.Optimized == 0 {
		t.Fatal("inner pipelines never reached the JIT")
	}
}

func TestListParallelStderrReplaysInOrder(t *testing.T) {
	// grep on a missing file diagnoses to stderr; the diagnostic must land
	// in program order like stdout does.
	fs := func() *vfs.FS { return seedListFS() }
	_, _ = runBoth(t, fs, "grep -c alpha /w0; grep -c beta /missing; grep -c gamma /w2\n")
}

func findDecision(s *Shell, strategy string) (Decision, bool) {
	for _, d := range s.Stats.Decisions {
		if d.Strategy == strategy {
			return d, true
		}
	}
	return Decision{}, false
}

// TestListParallelPlanningIsRaceFree is the -race regression for planning
// against live device state: every worker of a region plans its own
// pipeline, and the what-if estimates read the burst credits that a
// sibling's charged estimate settles under the session lock.
func TestListParallelPlanningIsRaceFree(t *testing.T) {
	sh, out, _ := newShell(seedListFS(), cost.StandardEC2(), ModeJash)
	var script, want strings.Builder
	for round := 0; round < 25; round++ {
		script.WriteString("cat /w0 | tr a-z A-Z | grep -c ALPHA; cat /w1 | tr a-z A-Z | grep -c BETA; " +
			"cat /w2 | tr a-z A-Z | grep -c GAMMA; cat /w3 | tr a-z A-Z | grep -c DELTA\n")
		want.WriteString("200\n250\n300\n350\n")
	}
	if st, err := sh.Run(script.String()); st != 0 || err != nil {
		t.Fatalf("st=%d err=%v", st, err)
	}
	if out.String() != want.String() {
		t.Fatalf("out=%q", out.String())
	}
	if sh.Stats.ListParallel != 100 || sh.Stats.Optimized != 100 {
		t.Fatalf("ListParallel=%d Optimized=%d, want 100 each", sh.Stats.ListParallel, sh.Stats.Optimized)
	}
}

// TestListParallelImplicitExitStopsTheShell pins what happens when a
// statement of a list ends the shell without a fatal error, and the session
// must stop there exactly as the sequential run does — earlier statements'
// output, that statement's diagnostic, nothing after it, the non-zero
// status. Under set -u (jashfuzz seeds 13232 and 18264) no region forms at
// all, because the statements after the miss must never start; an
// arithmetic error can still end a worker inside a region (the planner
// keeps ${x?} and readonly assignments out), and the replay loop stops
// there.
func TestListParallelImplicitExitStopsTheShell(t *testing.T) {
	cases := []struct {
		name, script, stdout, stderr string
		region                       bool
	}{
		{"set-u-in-unrolled-for",
			"set -u\nfor v1 in A-Z; do v2=\"$v2.0\"; echo; done\necho after\n",
			"", "jash: v2: parameter not set\n", false},
		{"set-u-in-brace-group",
			"set -u\n{ v1=\"$v1.42\"; v2=shell; }\necho after $v2\n",
			"", "jash: v1: parameter not set\n", false},
		{"set-u-mid-list",
			"set -u\necho first; y=$nope; echo third\necho after\n",
			"first\n", "jash: nope: parameter not set\n", false},
		{"division-by-zero-mid-list",
			"echo first; y=$((1/0)); echo third\necho after\n",
			"first\n", "jash: arithmetic: division by zero\n", true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, cfg := range []struct {
				name   string
				mode   Mode
				noList bool
			}{{"bash", ModeBash, false}, {"jash", ModeJash, false}, {"no-list-parallel", ModeJash, true}} {
				sh, out, errb := newShell(vfs.New(), cost.StandardEC2(), cfg.mode)
				sh.NoListParallel = cfg.noList
				st, err := sh.Run(tc.script)
				if err != nil {
					t.Fatalf("%s: err=%v", cfg.name, err)
				}
				if st != 1 || out.String() != tc.stdout || errb.String() != tc.stderr {
					t.Errorf("%s: status=%d stdout=%q stderr=%q, want 1 %q %q",
						cfg.name, st, out.String(), errb.String(), tc.stdout, tc.stderr)
				}
				if cfg.mode == ModeJash && !cfg.noList && (sh.Stats.ListParallel > 0) != tc.region {
					t.Errorf("list regions entered = %d, want one: %v: %+v",
						sh.Stats.ListParallel, tc.region, sh.Stats.Decisions)
				}
			}
		})
	}
}
