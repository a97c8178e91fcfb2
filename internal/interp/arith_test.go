package interp

import (
	"bytes"
	"errors"
	"os"
	osexec "os/exec"
	"path"
	"testing"
)

// arithWordTable is the reference for arithmetic whose text has expansions
// to run first — the parts the parser leaves on a $((...)), expanded by the
// interpreter's own expander, then compiled: every row runs through the
// interpreter with the fast paths on and off, and through /bin/sh when that
// is dash. The $? rows pin where the one expander takes its snapshot.
var arithWordTable = []diffCase{
	{"x=hello; echo $(( ${#x} + 1 ))", "6\n", 0},
	{"echo $(( ${u:-1} + 1 ))", "2\n", 0},
	{"echo $(( $(echo 2) * 3 ))", "6\n", 0},
	{"echo $(( `echo 3` + 1 ))", "4\n", 0},
	{"set -- 5; echo $(( $1 * 2 ))", "10\n", 0},
	{"f() { echo $(( $# + $1 )); }; f 3 4", "5\n", 0},
	// A spliced $x is text: 1+2 * 2, not 3 * 2.
	{"x=4; echo $(( $x * 2 ))", "8\n", 0},
	{"x='1+2'; echo $(( $x * 2 ))", "5\n", 0},
	{"echo $(( ${a=3}+1 )) $a", "4 3\n", 0},
	{"echo $(( $((1+1)) * 3 ))", "6\n", 0},
	{"x=4; echo $(( ${x:-1} + $(echo 2) + ${#x} + $x ))", "11\n", 0},
	{"i=0; while [ $i -lt 3 ]; do i=$(( $i + 1 )); done; echo $i", "3\n", 0},
	// $? is read once per command, before its first expansion runs.
	{"false; echo $(true) $?", "1\n", 0},
	{"false; x=$(true) y=$?; echo $y", "1\n", 0},
	{"false; y=$(( $? + $(exit 3) 0 + $? )); echo $y", "2\n", 0},
	// Quotes are text inside $(( )): an error, in dash too.
	{`x=3; echo $(( "$x" + 1 )); echo unreached`, "", 1},
	// A malformed expansion inside $(( )) is a syntax error of the script,
	// found before anything runs.
	{"echo a; echo $(( ${ ))", "", 2},
}

func TestArithExpansion(t *testing.T) {
	for _, c := range arithWordTable {
		assertAgree(t, c, nil)
	}
}

// TestArithExpansionAgreesWithDash runs arithWordTable through /bin/sh when
// that is dash: stdout and zero/non-zero status must be the table's.
func TestArithExpansionAgreesWithDash(t *testing.T) {
	if target, err := os.Readlink("/bin/sh"); err != nil || path.Base(target) != "dash" {
		t.Skip("/bin/sh is not dash")
	}
	for _, c := range arithWordTable {
		cmd := osexec.Command("/bin/sh", "-c", c.src)
		cmd.Env = []string{"LC_ALL=C", "PATH=/nonexistent"}
		var out bytes.Buffer
		cmd.Stdout = &out
		err := cmd.Run()
		var exit *osexec.ExitError
		if err != nil && !errors.As(err, &exit) {
			t.Fatalf("%q: dash did not run: %v", c.src, err)
		}
		if out.String() != c.stdout || (err == nil) != (c.status == 0) {
			t.Errorf("%q: dash %q err %v; the table wants %q status %d", c.src, out.String(), err, c.stdout, c.status)
		}
	}
}
