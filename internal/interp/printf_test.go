package interp

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	osexec "os/exec"
	"path"
	"strings"
	"testing"
	"time"
)

// printfTable is the reference for printf: the format reused only while a
// pass consumes operands, %b and its escapes, octal escapes of one to three
// digits, and dash's diagnostic for a directive printf does not know. Each
// row runs through the interpreter, fast paths on and off, and through
// /bin/sh when that is dash.
var printfTable = []struct {
	src, stdout, stderr string
	status              int
}{
	{`printf "hi\n" x`, "hi\n", "", 0},
	{`printf "%b\n" x`, "x\n", "", 0},
	{`printf "%b|" "a\tb" "c\101d" "e\0101f" "g\cZ" h; echo`, "a\tb|cAd|eAf|g\n", "", 0},
	{`printf "%b" "a\n\cb" x; echo`, "a\n\n", "", 0},
	{`printf "%5b|%.1b|\n" ab abc`, "   ab|a|\n", "", 0},
	{`printf "%b|%s|\n"`, "||\n", "", 0},
	{`printf "\101\n"`, "A\n", "", 0},
	{`printf "\0101\n"`, "\b1\n", "", 0},
	{`printf "\1012\n"`, "A2\n", "", 0},
	{`printf "\e\a|\q\n"`, "\x1b\a|\\q\n", "", 0},
	{`printf "%s %s\n" a b c`, "a b\nc \n", "", 0},
	{`printf "%X %E\n" 255 1.5`, "FF 1.500000E+00\n", "", 0},
	{`printf "a%zb\n" x; echo " st=$?"`, "a st=2\n", "printf: %z: invalid directive\n", 0},
	{`printf "%-5.2q\n"`, "", "printf: %-5.2q: invalid directive\n", 2},
	// Numeric operands: a quoted character is its code, a partial number
	// prints its prefix, a non-number 0, each with status 1; unsigned
	// conversions of a negative value wrap to 64 bits.
	{`printf "%d %i %x\n" "'A" '"B' "'"`, "65 66 0\n", "", 0},
	{`printf "%d|%5i|\n" 12abc 3`, "12|    3|\n", "printf: 12abc: not completely converted\n", 1},
	{`printf "%d %o\n" x 08`, "0 0\n", "printf: x: expected numeric value\nprintf: 08: not completely converted\n", 1},
	{`printf "%x %X %o %u\n" -1 -1 -1 -1`, "ffffffffffffffff FFFFFFFFFFFFFFFF 1777777777777777777777 18446744073709551615\n", "", 0},
	{`printf "%d %d %x\n" " 12" 0x1f 010`, "12 31 8\n", "", 0},
	{`printf "%d\n" 99999999999999999999`, "9223372036854775807\n", "printf: 99999999999999999999: Numerical result out of range\n", 1},
	{`printf "%c|%c|\n" "" abc`, "\x00|a|\n", "", 0},
}

// TestPrintf runs each row under a deadline: a printf that repeats its
// format forever can only be stopped by ending the test binary, before the
// output it accumulates exhausts memory.
func TestPrintf(t *testing.T) {
	for _, c := range printfTable {
		done := make(chan [6]any, 1)
		go func() {
			cOut, cErr, cStatus, pOut, pErr, pStatus := runBoth(t, c.src, nil)
			done <- [6]any{cOut, cErr, cStatus, pOut, pErr, pStatus}
		}()
		var r [6]any
		select {
		case r = <-done:
		case <-time.After(2 * time.Second):
			panic(fmt.Sprintf("%q did not end within 2s", c.src))
		}
		want := [6]any{c.stdout, c.stderr, c.status, c.stdout, c.stderr, c.status}
		if r != want {
			t.Errorf("%q: fast %q %q %v, plain %q %q %v; want %q %q %d",
				c.src, r[0], r[1], r[2], r[3], r[4], r[5], c.stdout, c.stderr, c.status)
		}
	}
}

// TestPrintfAgreesWithDash runs printfTable through /bin/sh when that is
// dash: stdout, stderr (each line from its "printf: ", past dash's prefix
// of script and command path) and status must be the table's.
func TestPrintfAgreesWithDash(t *testing.T) {
	if target, err := os.Readlink("/bin/sh"); err != nil || path.Base(target) != "dash" {
		t.Skip("/bin/sh is not dash")
	}
	for _, c := range printfTable {
		cmd := osexec.Command("/bin/sh", "-c", c.src)
		cmd.Env = []string{"LC_ALL=C", "PATH=/nonexistent"}
		var out, errb bytes.Buffer
		cmd.Stdout, cmd.Stderr = &out, &errb
		err := cmd.Run()
		status := 0
		var exit *osexec.ExitError
		if errors.As(err, &exit) {
			status = exit.ExitCode()
		} else if err != nil {
			t.Fatalf("%q: dash did not run: %v", c.src, err)
		}
		lines := strings.SplitAfter(errb.String(), "\n")
		for i, l := range lines {
			if at := strings.Index(l, "printf: "); at >= 0 {
				lines[i] = l[at:]
			}
		}
		stderr := strings.Join(lines, "")
		if out.String() != c.stdout || stderr != c.stderr || status != c.status {
			t.Errorf("%q: dash %q %q status %d; the table wants %q %q status %d",
				c.src, out.String(), stderr, status, c.stdout, c.stderr, c.status)
		}
	}
}
