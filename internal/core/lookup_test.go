package core

import (
	"fmt"
	"testing"

	"jash/internal/cost"
	"jash/internal/vfs"
	"jash/internal/workload"
)

// TestLookupAgreesWithBashMode: what a command name runs is decided by
// the shell's one lookup rule (interp.Resolve), which the JIT asks before
// it runs a stage as the utility of its name, and the list planner before
// it summarizes a statement as one. A function shadows a utility and a
// regular builtin, and an assignment before a special builtin persists.
// Every variant must leave what bash mode, which only interprets, leaves:
// stdout, stderr, status and every file.
func TestLookupAgreesWithBashMode(t *testing.T) {
	scripts := []string{
		"cat() { echo fn; }; cat /a",
		"wc() { echo fn; }; cat /a | wc -l",
		"wc() { echo fn; }\ncat /a | wc -l >/o1; sort /a >/o2; cat /o1",
		`cat() { echo "$1" >>/log; }; cat /a >/o0; cat /b >/o1; cat /c >/o2; cat /d >/o3`,
		`X=0; echo "$X" >/o1; X=1 :; echo "$X" >/o2`,
	}
	variants := []struct {
		name   string
		mode   Mode
		noList bool
	}{{"jash", ModeJash, false}, {"pash", ModePaSh, false}, {"no-list-parallel", ModeJash, true}}
	run := func(script string, mode Mode, noList bool) (string, string) {
		fs := vfs.New()
		fs.WriteFile("/a", workload.Words(1, 4000))
		sh, out, errb := newShell(fs, cost.StandardEC2(), mode)
		sh.NoListParallel = noList
		st, err := sh.Run(script)
		return fmt.Sprintf("status %d err %v\nstdout %q\nstderr %q", st, err, out.String(), errb.String()),
			snapshotFS(t, fs, "/")
	}
	for _, script := range scripts {
		want, wantFS := run(script, ModeBash, false)
		for _, v := range variants {
			got, gotFS := run(script, v.mode, v.noList)
			if got != want || gotFS != wantFS {
				t.Errorf("%q under %s differs from bash mode:\n%s\nwant\n%s\nsame files: %v", script, v.name, got, want, gotFS == wantFS)
			}
		}
	}
}
