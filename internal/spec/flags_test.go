package spec_test

import (
	"bytes"
	"sort"
	"strings"
	"testing"

	"jash/internal/core"
	"jash/internal/coreutils"
	"jash/internal/cost"
	"jash/internal/spec"
	"jash/internal/vfs"
)

// ignoredLetters are invocations whose letter the host's GNU tool honours
// or refuses, and which a utility that ignored unknown letters would run
// with status 0: head -2 and tail -1 would print 10 lines, wc -L and wc -m
// all three counts, grep -o, grep -w, cat -s, cat -A and nl -ba their input
// unchanged or unfiltered, and tail -r and rev -x would succeed where GNU
// exits 1.
var ignoredLetters = [][]string{
	{"head", "-2"}, {"tail", "-1"}, {"wc", "-L"}, {"wc", "-m"},
	{"grep", "-o", "a"}, {"grep", "-w", "a"}, {"cat", "-s"}, {"cat", "-A"},
	{"nl", "-ba"}, {"tail", "-r"}, {"rev", "-x"},
}

// runFlag runs script in the given mode over a one-file filesystem and
// returns its status and stderr.
func runFlag(t *testing.T, mode core.Mode, script string) (int, string) {
	t.Helper()
	fs := vfs.New()
	fs.WriteFile("/in", []byte("a b\n\nb  a\na\n"))
	s := core.New(fs, cost.Laptop(), mode)
	var out, errb bytes.Buffer
	s.Interp.Stdout, s.Interp.Stderr = &out, &errb
	status, err := s.Run(script)
	if err != nil {
		t.Fatalf("%s: %v", script, err)
	}
	return status, errb.String()
}

// wantRefused: the utility exits 2 with one diagnostic, in the plain
// interpreter and under the JIT, alone and as a later pipeline stage.
func wantRefused(t *testing.T, argv []string) {
	t.Helper()
	cmd := strings.Join(argv, " ")
	for _, script := range []string{cmd + " /in", "cat /in | " + cmd} {
		for _, mode := range []core.Mode{core.ModeBash, core.ModeJash} {
			status, errs := runFlag(t, mode, script)
			if status != 2 || strings.Count(errs, "\n") != 1 {
				t.Errorf("%s mode: %s: status %d, stderr %q; want 2 and one diagnostic", mode, script, status, errs)
			}
		}
	}
}

// TestUnknownFlagsFailClosed: every letter a utility's grammar does not
// list is an error, never an ignored option, and the planner excludes the
// argv as the utility does.
func TestUnknownFlagsFailClosed(t *testing.T) {
	const letters = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"
	lib := spec.Builtin()
	names := make([]string, 0, len(spec.Grammars))
	for name := range spec.Grammars {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		g := spec.Grammars[name]
		if _, ok := coreutils.Lookup(name); !ok || g.AnyFlags {
			continue // read by the effect analysis only: no letters to list
		}
		for i := range len(letters) {
			l := letters[i]
			if strings.IndexByte(g.OnlyFlags, l) >= 0 {
				continue
			}
			argv := []string{name, "-" + string(l)}
			wantRefused(t, argv)
			if e := lib.Resolve(append(argv, "/in")); e.Class != spec.SideEffectful {
				t.Errorf("%q resolves as %s, want it excluded from planning", argv, e.Class)
			}
		}
	}
	for _, argv := range ignoredLetters {
		wantRefused(t, argv)
	}
}
