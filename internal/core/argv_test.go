package core

import (
	"reflect"
	"strings"
	"testing"

	"jash/internal/analysis"
	"jash/internal/cost"
	"jash/internal/interp"
	"jash/internal/vfs"
)

// TestAnalysisKnowsEveryInterpreterBuiltin pins the analysis package's
// hand copy of the builtin names (it does not import interp) to the
// registry the interpreter dispatches from, so a builtin cannot be added
// to one side only.
func TestAnalysisKnowsEveryInterpreterBuiltin(t *testing.T) {
	if got, want := analysis.InterpBuiltins(), interp.BuiltinNames(); !reflect.DeepEqual(got, want) {
		t.Errorf("analysis.interpBuiltins = %q\ninterp's registry       = %q", got, want)
	}
}

// TestArgvGrammarModesAgree runs command lines whose flag/operand split
// the planner and the utilities used to read differently, under all three
// modes, on an input large enough that a planner which believes the later
// stage reads its pipe replicates it: stdout, status and the filesystem
// must be identical. (A stage that names a file ignores the pipe; N lanes
// of it print the file N times.)
func TestArgvGrammarModesAgree(t *testing.T) {
	scripts := []struct {
		name, src string
		lanes     bool // the file is the first stage's input: Jash must split it
	}{
		{name: "value flag ends a cluster", src: "cat /big | grep -ie alpha /file\n"},
		{name: "sed file operand", src: "cat /big | sed s/a/A/ /file\n"},
		{name: "awk file operand", src: "cat /big | awk '{print $1}' /file\n"},
		{name: "pattern equals file name", src: "cd /\ncat /big | grep foo foo\n"},
		{name: "sort -o", src: "sort -o /out /file\necho $?\nsort -ro /file /file\n"},
		{name: "tail -c", src: "tail -c 3 /file\necho $?\n"},
		{name: "grep -ie source", src: "grep -ie LINE /big | wc -l\n", lanes: true},
		{name: "sed source", src: "sed s/line/LINE/ /big | sort -u\n", lanes: true},
		// sed splits its script on newlines as well as on semicolons; so
		// must the spec that decides whether a lane may run it.
		{name: "sed newline script, last line", src: "sed 's/a/b/\n$d' /big | wc -l\n"},
		{name: "sed newline script, q", src: "sed 's/a/b/\n3q' /big\n"},
	}
	for _, sc := range scripts {
		t.Run(sc.name, func(t *testing.T) { modesAgree(t, sc.src, sc.lanes) })
	}
}

// TestEarlyExpansionModesAgree: planning expands a region's words before the
// region runs, through the interpreter's own expander, so whatever the shell
// options and special parameters make of a word they make of it in every
// mode — including the diagnostics when expansion fails.
func TestEarlyExpansionModesAgree(t *testing.T) {
	for _, sc := range []struct{ name, src string }{
		{"set -u, unset operand", "set -u\ncat $NOPE /file | sort\necho after $?\n"},
		{"set -u, unset target", "set -u\nsort /file | uniq >$NOPE\necho after $?\n"},
		{"set -f, glob operand", "set -f\ncat /fil* | sort\necho $?\nset +f\ncat /fil* | sort\n"},
		{"$? and $1 operands", "set -- /file 2\n(exit 2)\nhead -n $? $1 | sort -r\n"},
		{"quoted target", "out=/res\nsort /file | uniq -c >\"$out\"\ncat /res\n"},
		{"two stdout targets", "sort /file | uniq >/a >>/b\nls /\ncat /b\n"},
	} {
		t.Run(sc.name, func(t *testing.T) { modesAgree(t, sc.src, false) })
	}
}

// bigFixture (~10 MB) is large enough that Jash splits a stage reading it.
var bigFixture = strings.Repeat("line"+strings.Repeat(" of words", 17)+"\n", 1<<16)

// modesAgree runs src under bash, pash and jash over the same fixture and
// requires identical stdout, stderr, status and filesystem. lanes says /big
// is the first stage's input, which Jash must split.
func modesAgree(t *testing.T, src string, lanes bool) {
	t.Helper()
	type result struct {
		out, errs, snap string
		status          int
	}
	var base result
	for _, mode := range []Mode{ModeBash, ModePaSh, ModeJash} {
		fs := vfs.New()
		fs.WriteFile("/big", []byte(bigFixture))
		fs.WriteFile("/file", []byte("alpha\nbeta\nAlpha\n"))
		fs.WriteFile("/foo", []byte("foo\nbar\n"))
		sh, out, errs := newShell(fs, cost.IOOptEC2(), mode)
		status, err := sh.Run(src)
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		fs.Remove("/big")
		r := result{out.String(), errs.String(), snapshotFS(t, fs, "/"), status}
		if d, _ := sh.LastDecision(); lanes && mode == ModeJash && d.Width < 2 {
			t.Errorf("jash did not parallelize: %+v", d)
		}
		if mode == ModeBash {
			base = r
			continue
		}
		if r != base {
			t.Errorf("%v diverges from bash:\nbash: status %d stdout %q stderr %q\n%s%v: status %d stdout %q stderr %q\n%s",
				mode, base.status, base.out, base.errs, base.snap, mode, r.status, r.out, r.errs, r.snap)
		}
	}
	if base.out == "" && base.status == 0 {
		t.Errorf("bash printed nothing: the script lost its point")
	}
}
