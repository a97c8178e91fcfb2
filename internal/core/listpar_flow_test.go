// Differential coverage for list regions that only value-flow analysis
// can admit: every operand hides behind a variable or a function
// parameter, so the syntactic planner of PR 7 rejected them. Each test
// byte-compares the parallel run against a sequential oracle — the
// admission criterion for newly-concretized scripts.
package core

import (
	"fmt"
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

// threeModes runs script under bash, jash and jash -no-list-parallel over
// fresh filesystems from mkfs and hands each run to check.
func threeModes(t *testing.T, mkfs func() *vfs.FS, script string,
	check func(name string, sh *Shell, fs *vfs.FS, status int, stdout, stderr string)) {
	t.Helper()
	for _, cfg := range []struct {
		name   string
		mode   Mode
		noList bool
	}{{"bash", ModeBash, false}, {"jash", ModeJash, false}, {"no-list-parallel", ModeJash, true}} {
		fs := mkfs()
		sh, out, errb := newShell(fs, cost.StandardEC2(), cfg.mode)
		sh.NoListParallel = cfg.noList
		st, err := sh.Run(script)
		if err != nil {
			t.Fatalf("%s: %v", cfg.name, err)
		}
		check(cfg.name, sh, fs, st, out.String(), errb.String())
	}
}

// TestListRegionSeesHiddenAssignments: in each script the statement before
// the list's `sort … >$f` moves f from /a.txt to /b.txt where no name set
// shows it — under a branch, a loop, && or a case arm that runs eval, in a
// loop that unsets and re-assigns through ${f=w}, in a function whose body
// is a compound, through a $name pasted into arithmetic. Value flow that
// still believes f=/a.txt proves the sort independent of `wc -l /b.txt`,
// runs the two concurrently, and wc counts the old one-line file.
func TestListRegionSeesHiddenAssignments(t *testing.T) {
	mkfs := func() *vfs.FS {
		fs := vfs.New()
		fs.WriteFile("/big", []byte(strings.Repeat("some line of words\n", 4000)))
		for _, p := range []string{"/a.txt", "/b.txt", "/1"} {
			fs.WriteFile(p, []byte("old\n"))
		}
		return fs
	}
	const rest = "; sort /big | sort | tail -n 3 >$f; wc -l /b.txt >/o1\ncat /o1\n"
	cases := []struct{ name, script, want string }{
		{"eval-in-if", "f=/a.txt; if true; then eval 'f=/b.txt'; fi" + rest, "3 /b.txt\n"},
		{"eval-in-for", "f=/a.txt; for i in 1; do eval 'f=/b.txt'; done" + rest, "3 /b.txt\n"},
		{"unset-reassign-in-while", "n=1\nf=/a.txt; while [ $n = 1 ]; do n=2; unset f; : ${f=/b.txt}; done" + rest, "3 /b.txt\n"},
		{"eval-after-and", "f=/a.txt; true && eval 'f=/b.txt'" + rest, "3 /b.txt\n"},
		{"eval-in-case", "f=/a.txt; case x in x) eval 'f=/b.txt';; esac" + rest, "3 /b.txt\n"},
		{"call-with-compound-body", "g() { if true; then f=/b.txt; fi; }\nf=/a.txt; g" + rest, "3 /b.txt\n"},
		{"arith-spliced-text", "n='f=1'\nf=a.txt; : $(($n)); sort /big | sort | tail -n 3 >/$f; wc -l /1 >/o1\ncat /o1\n", "3 /1\n"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			threeModes(t, mkfs, tc.script, func(name string, sh *Shell, _ *vfs.FS, st int, out, errs string) {
				if st != 0 || out != tc.want {
					t.Errorf("%s: status %d stdout %q stderr %q, want 0 %q", name, st, out, errs, tc.want)
				}
				if d, ok := findDecision(sh, "parallel-list"); ok {
					t.Errorf("%s: the list ran as a parallel region: %+v", name, d)
				}
			})
		})
	}
}

// TestListRegionSeesUnsetFunction: `unset -f` changes the function table,
// so a later `cp` on the same line runs the cp utility, not the function
// the plan-time table still holds. A planner that summarises the call from
// the dropped body (`:`, no effects) proves it independent of `wc -l
// /b.txt` and runs the two concurrently. And `unset -f x` leaves the
// variable x alone, as in dash: value flow that believes x was unset
// resolves `$x` to nothing.
func TestListRegionSeesUnsetFunction(t *testing.T) {
	mkfs := func() *vfs.FS {
		fs := vfs.New()
		fs.WriteFile("/big", []byte(strings.Repeat("some line of words\n", 4000)))
		fs.WriteFile("/b.txt", []byte("old\n"))
		return fs
	}
	cases := []struct{ name, script, want string }{
		{"call-after-unset-f", "cp() { :; }\nunset -f cp; cp /big /b.txt; wc -l /b.txt >/o1\ncat /o1\n", "4000 /b.txt\n"},
		{"unset-f-keeps-variable", "x=/b.txt; x() { :; }\nunset -f x; sort /big | sort | tail -n 3 >$x; wc -l /b.txt >/o1\ncat /o1\n", "3 /b.txt\n"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			threeModes(t, mkfs, tc.script, func(name string, sh *Shell, _ *vfs.FS, st int, out, errs string) {
				if st != 0 || out != tc.want {
					t.Errorf("%s: status %d stdout %q stderr %q, want 0 %q", name, st, out, errs, tc.want)
				}
				if d, ok := findDecision(sh, "parallel-list"); ok {
					t.Errorf("%s: the list ran as a parallel region: %+v", name, d)
				}
			})
		})
	}
}

// TestListRegionMergesHereDocumentAssignment: an unquoted here-document
// body is a word like any other, so the ${f=…} in it is a definition the
// region merges back (the text scan this replaces recorded only a use, and
// the worker's assignment was lost).
func TestListRegionMergesHereDocumentAssignment(t *testing.T) {
	const script = "cat <<E >/o1; grep -c a /a.txt >/o2; grep -c b /b.txt >/o3\n${f=/b.txt}\nE\necho \"f=$f\"\ncat /o1\n"
	mkfs := func() *vfs.FS {
		fs := vfs.New()
		fs.WriteFile("/a.txt", []byte("a\n"))
		fs.WriteFile("/b.txt", []byte("b\n"))
		return fs
	}
	threeModes(t, mkfs, script, func(name string, sh *Shell, _ *vfs.FS, st int, out, errs string) {
		if st != 0 || out != "f=/b.txt\n/b.txt\n" {
			t.Errorf("%s: status %d stdout %q stderr %q", name, st, out, errs)
		}
		if name == "jash" && sh.Stats.ListParallel != 3 {
			t.Errorf("the three statements no longer form a region: %+v", sh.Stats.Decisions)
		}
	})
}

// TestUnrolledLoopKeepsItsVariableForCallees: each iteration runs with the
// loop variable bound, so a function the body calls sees the item, and the
// iterations still form a region.
func TestUnrolledLoopKeepsItsVariableForCallees(t *testing.T) {
	const script = "g() { echo $x; }\nx=q\nfor x in a b c; do g; done\n"
	threeModes(t, vfs.New, script, func(name string, sh *Shell, _ *vfs.FS, st int, out, errs string) {
		if st != 0 || out != "a\nb\nc\n" {
			t.Errorf("%s: status %d stdout %q stderr %q", name, st, out, errs)
		}
		if name == "jash" && sh.Stats.ListParallel != 3 {
			t.Errorf("jash: %d statements in list regions, want 3: %+v", sh.Stats.ListParallel, sh.Stats.Decisions)
		}
	})
}

// TestListRegionObeysOptionsSetOnItsOwnLine: set -e and set -u make the
// statement that ends the shell keep its successors from starting; a
// region that had already started them left their files behind. The whole
// filesystem must match the sequential run, not only the replayed bytes.
func TestListRegionObeysOptionsSetOnItsOwnLine(t *testing.T) {
	for _, script := range []string{
		"mkdir /tmp\nset -e; false; echo a >/tmp/o1; echo b >/tmp/o2; echo c >/tmp/o3\n",
		"mkdir /tmp\nset -u\nv1=\"$v1.pipe\"; echo hi >>/tmp/out1.txt; echo a >/tmp/o2; echo b >/tmp/o3\n",
		"mkdir /tmp\necho x >/tmp/o0; set -u; echo $nope >/tmp/o1; echo b >/tmp/o2; echo c >/tmp/o3\n",
		"mkdir /tmp\ntrap 'echo bye' EXIT; echo a >/tmp/o1; echo b >/tmp/o2; echo c >/tmp/o3\n",
	} {
		var base string
		threeModes(t, vfs.New, script, func(name string, sh *Shell, fs *vfs.FS, st int, out, errs string) {
			got := fmt.Sprintf("status %d\nstdout %q\nstderr %q\n%s", st, out, errs, snapshotFS(t, fs, "/"))
			if name == "bash" {
				base = got
			} else if got != base {
				t.Errorf("%q: %s diverges from bash:\n%s\nbash:\n%s", script, name, got, base)
			}
		})
	}
}
