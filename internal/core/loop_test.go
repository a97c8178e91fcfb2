package core

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"jash/internal/vfs"
)

// loopFS holds the loop rows' inputs: four files under /d, and under /s
// one whose name has a space.
func loopFS() *vfs.FS {
	fs := vfs.New()
	for _, p := range []string{"/d/a", "/d/b", "/d/c", "/d/e", "/s/a b", "/s/c"} {
		fs.WriteFile(p, []byte("Line of "+p+"\n"))
	}
	return fs
}

// TestLoopIterationsAreBindings: a `for` loop's words are expanded once
// and each iteration's statements are planned with the variable bound, so
// the loops a literal paste could not reproduce form regions, and those
// that must keep program order do. Every row must leave stdout, stderr,
// status, the whole filesystem and $f and $b as bash mode leaves them;
// regions counts the statements jash mode runs in list regions, and reason
// is what its refusal names.
func TestLoopIterationsAreBindings(t *testing.T) {
	for _, c := range []struct {
		script  string
		regions int
		reason  string
	}{
		// The probe loops: a glob, literal words, a trim of the variable.
		{"for f in /d/*; do tr a-z A-Z <$f >$f.up; done", 4, ""},
		{"for f in /d/a /d/b /d/c /d/e; do tr a-z A-Z <$f >$f.up; done", 4, ""},
		{"for f in /d/a /d/b /d/c /d/e; do tr a-z A-Z <$f >/d/${f##*/}.up; done", 4, ""},
		{"for f in /d/a /d/b; do wc -l <$f >$f.n; tr a-z A-Z <$f >$f.up; done", 4, ""},
		// An item with a space, quoted and unquoted (two operands, one
		// of them missing).
		{"for f in '/s/a b' /s/c; do tr a-z A-Z <\"$f\" >\"$f.up\"; done", 2, ""},
		{"for f in '/s/a b' /s/c; do wc -l $f >\"$f.n\"; done", 2, ""},
		// The positional parameters.
		{"set -- /d/a /d/b /d/c\nfor f; do tr a-z A-Z <$f >$f.up; done", 3, ""},
		// A callee reads the variable; a prefix assignment hides the
		// value a callee sees, so that call keeps program order.
		{"up() { tr a-z A-Z <$f >$f.up; }\nfor f in /d/a /d/b /d/c; do up; done", 3, ""},
		{"up() { tr a-z A-Z <$x >$x.up; }\nx=/d/e\nfor f in /d/a /d/b; do x=$f up; done", 0, "⊤"},
		// Iteration-local assignment stays sequential, naming the hazard.
		{"for f in /d/a /d/b /d/c /d/e; do b=${f##*/}; tr a-z A-Z <$f >/d/$b.up; done", 0, "$b"},
		// A loop-carried variable; an iteration reading a file another writes.
		{"for f in /d/a /d/b /d/c; do n=\"$n ${f##*/}\"; done\necho \"$n\"", 0, "$n"},
		{"for f in /d/a /d/b; do tr a-z A-Z <$f >/d/b; done", 0, "/d/b"},
		// An iteration whose expansion ends the shell: the later
		// iterations never run, so none may have written its file.
		{"for f in 1 '' 3; do echo $((1 / f)) >/d/o$f; done", 0, "divide by zero"},
		// Refused shapes.
		{"for f in /d/a /d/b; do f=$f.x; echo $f >$f; done", 0, "may assign $f"},
		{"readonly f=/d/a\nfor f in /d/a /d/b; do echo $f; done\necho after", 0, "readonly"},
		{"for f in ${g=/d/a} /d/b; do wc -l $f >$f.n; done\necho $g", 0, "not safe to expand early"},
		{"for f in /d/a $((1/0)); do echo $f >$f.n; done\necho after", 0, "division by zero"},
		{"for f in /d/a /d/b /d/c; do wc -l $f >$f.n; break; done", 0, "break"},
		{"for f in /d/a /d/b /d/c; do wc -l $f >$f.n; continue; done", 0, "continue"},
		{"set -e\nfor f in /d/a /d/b; do wc -l $f >$f.n; done", 0, ""},
		{"set -u\nfor f in /d/a /d/b; do wc -l $f >$f.n; done", 0, ""},
		{"trap 'echo bye' EXIT\nfor f in /d/a /d/b; do wc -l $f >$f.n; done", 0, ""},
		{"set --\nfor f; do echo $f; done", 0, "no items"},
	} {
		script := c.script + "\necho \"st=$?\"\n"
		var base string
		threeModes(t, loopFS, script, func(name string, sh *Shell, fs *vfs.FS, st int, out, errs string) {
			fv, fok := sh.Interp.Vars["f"]
			bv, bok := sh.Interp.Vars["b"]
			got := fmt.Sprintf("status %d\nstdout %q\nstderr %q\nf=%q %v b=%q %v\n%s",
				st, out, errs, fv.Value, fok, bv.Value, bok, snapshotFS(t, fs, "/"))
			if name == "bash" {
				base = got
				return
			}
			if got != base {
				t.Errorf("%q: %s diverges from bash:\n%s\nbash:\n%s", c.script, name, got, base)
			}
			if name != "jash" {
				return
			}
			if sh.Stats.ListParallel != c.regions {
				t.Errorf("%q: %d statements ran in list regions, want %d: %+v",
					c.script, sh.Stats.ListParallel, c.regions, sh.Stats.Decisions)
			}
			if d, ok := findDecision(sh, "sequential-list"); c.reason != "" && (!ok || !strings.Contains(d.Reason, c.reason)) {
				t.Errorf("%q: refusal %q does not name %q", c.script, d.Reason, c.reason)
			}
		})
	}
}

// TestLoopOverManyFiles: a glob loop over hundreds of files is one region
// of hundreds of statements, run by a pool as wide as the region and
// replayed in order.
func TestLoopOverManyFiles(t *testing.T) {
	mkfs := func() *vfs.FS {
		fs := vfs.New()
		for i := 0; i < 300; i++ {
			fs.WriteFile(fmt.Sprintf("/m/f%03d", i), []byte(fmt.Sprintf("file %d\n", i)))
		}
		return fs
	}
	const script = "for f in /m/*; do tr a-z A-Z <$f >$f.up; echo $f; done\necho \"st=$? f=$f\"\n"
	var base string
	threeModes(t, mkfs, script, func(name string, sh *Shell, fs *vfs.FS, st int, out, errs string) {
		got := fmt.Sprintf("status %d\nstdout %q\nstderr %q\n%s", st, out, errs, snapshotFS(t, fs, "/"))
		if name == "bash" {
			base = got
		} else if got != base {
			t.Errorf("%s diverges from bash", name)
		}
		if name == "jash" && sh.Stats.ListParallel != 600 {
			t.Errorf("jash: %d statements in list regions, want 600", sh.Stats.ListParallel)
		}
	})
}

// TestLoopRegionClonesShareTables: a list region's workers bind the loop
// variable on clones that share the shell's variable and function tables,
// so each binding copies its worker's table first: under -race, no worker
// writes the table the others are reading, and the shell's tables after
// the two loops and the last line (a region of two statements, one of
// them a call) are exactly bash mode's.
func TestLoopRegionClonesShareTables(t *testing.T) {
	const script = "x=keep; g() { :; }\n" +
		"for f in /d/a /d/b /d/c /d/e; do tr a-z A-Z <$f >$f.up; done\n" +
		"for f in /d/a /d/b /d/c /d/e; do wc -l <$f >$f.n; done\n" +
		"echo \"$f $x\"; g\n"
	var base string
	threeModes(t, loopFS, script, func(name string, sh *Shell, fs *vfs.FS, st int, out, errs string) {
		funcs := make([]string, 0, len(sh.Interp.Funcs))
		for f := range sh.Interp.Funcs {
			funcs = append(funcs, f)
		}
		sort.Strings(funcs)
		got := fmt.Sprintf("status %d\nstdout %q\nstderr %q\nvars %v\nfuncs %v\n%s",
			st, out, errs, sh.Interp.Vars, funcs, snapshotFS(t, fs, "/"))
		if name == "bash" {
			base = got
			return
		}
		if got != base {
			t.Errorf("%s diverges from bash:\n%s\nbash:\n%s", name, got, base)
		}
		if name == "jash" && sh.Stats.ListParallel != 10 {
			t.Errorf("%d statements ran in list regions, want 10", sh.Stats.ListParallel)
		}
	})
}
