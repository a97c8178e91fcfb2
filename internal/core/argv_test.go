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
	big := strings.Repeat("line"+strings.Repeat(" of words", 17)+"\n", 1<<16) // ~10 MB
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
	}
	for _, sc := range scripts {
		t.Run(sc.name, func(t *testing.T) {
			type result struct {
				out, snap string
				status    int
			}
			var base result
			for _, mode := range []Mode{ModeBash, ModePaSh, ModeJash} {
				fs := vfs.New()
				fs.WriteFile("/big", []byte(big))
				fs.WriteFile("/file", []byte("alpha\nbeta\nAlpha\n"))
				fs.WriteFile("/foo", []byte("foo\nbar\n"))
				sh, out, _ := newShell(fs, cost.IOOptEC2(), mode)
				status, err := sh.Run(sc.src)
				if err != nil {
					t.Fatalf("%v: %v", mode, err)
				}
				fs.Remove("/big")
				r := result{out.String(), snapshotFS(t, fs, "/"), status}
				if d, _ := sh.LastDecision(); sc.lanes && mode == ModeJash && d.Width < 2 {
					t.Errorf("jash did not parallelize: %+v", d)
				}
				if mode == ModeBash {
					base = r
					continue
				}
				if r != base {
					t.Errorf("%v diverges from bash:\nbash: status %d stdout %q\n%s%v: status %d stdout %q\n%s",
						mode, base.status, base.out, base.snap, mode, r.status, r.out, r.snap)
				}
			}
			if base.out == "" && base.status == 0 {
				t.Errorf("bash printed nothing: the script lost its point")
			}
		})
	}
}
