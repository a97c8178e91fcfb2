package interp

import (
	"strings"
	"testing"

	"jash/internal/vfs"
)

// --- trap ---

func TestTrapExitRunsOnScriptEnd(t *testing.T) {
	wantOut(t, `trap "echo bye" EXIT; echo hi`, "hi\nbye\n")
}

func TestTrapExitRunsOnExplicitExit(t *testing.T) {
	out, _, st := runScript(t, nil, `trap "echo bye" EXIT; echo hi; exit 3; echo never`)
	if out != "hi\nbye\n" || st != 3 {
		t.Errorf("out=%q st=%d", out, st)
	}
}

// TestTrapExitRunsOnFatalError: a fatal error ends the script with status
// 2, and the EXIT trap still fires, as it does in dash.
func TestTrapExitRunsOnFatalError(t *testing.T) {
	in := New(vfs.New())
	var out strings.Builder
	in.Stdout, in.Stderr = &out, &strings.Builder{}
	st, err := in.RunScript(`trap "echo bye" EXIT; f() { f; }; f; echo never`)
	if err == nil || st != 2 || out.String() != "bye\n" {
		t.Errorf("out=%q st=%d err=%v, want bye, 2 and the error", out.String(), st, err)
	}
}

func TestTrapResetDisarms(t *testing.T) {
	wantOut(t, `trap "echo bye" EXIT; trap - EXIT; echo hi`, "hi\n")
	// POSIX's condition-only reset form.
	wantOut(t, `trap "echo bye" EXIT; trap EXIT; echo hi`, "hi\n")
	// 0 is an alias for EXIT in both directions.
	wantOut(t, `trap "echo bye" 0; trap - 0; echo hi`, "hi\n")
}

func TestTrapSeesExitStatus(t *testing.T) {
	// The trap body runs with exit's status in $?.
	out, _, st := runScript(t, nil, `trap 'echo "st=$?"' EXIT; exit 5`)
	if out != "st=5\n" || st != 5 {
		t.Errorf("out=%q st=%d", out, st)
	}
}

func TestTrapExitInTrapOverridesStatus(t *testing.T) {
	_, _, st := runScript(t, nil, `trap "exit 9" EXIT; exit 3`)
	if st != 9 {
		t.Errorf("st=%d, want trap's explicit exit status", st)
	}
}

func TestTrapRunsOnce(t *testing.T) {
	// exit inside the trap must not re-enter the trap.
	out, _, _ := runScript(t, nil, `trap "echo t; exit 0" EXIT; exit 1`)
	if out != "t\n" {
		t.Errorf("out=%q", out)
	}
}

func TestTrapPrint(t *testing.T) {
	// The EXIT trap still fires at script end, after the listing.
	wantOut(t, `trap "echo x" EXIT; trap "echo h" HUP; trap`,
		"trap -- 'echo x' EXIT\ntrap -- 'echo h' HUP\nx\n")
}

func TestTrapNotInheritedBySubshell(t *testing.T) {
	// Subshells reset traps; the parent's still fires once at the end.
	wantOut(t, `trap "echo bye" EXIT; (trap; echo sub); echo hi`, "sub\nhi\nbye\n")
}

func TestTrapLastWins(t *testing.T) {
	wantOut(t, `trap "echo one" EXIT; trap "echo two" EXIT; echo hi`, "hi\ntwo\n")
}

func TestTrapBadCondition(t *testing.T) {
	_, errs, st := runScript(t, nil, `trap "echo x" NOSUCH`)
	if st == 0 || !strings.Contains(errs, "bad trap") {
		t.Errorf("st=%d errs=%q", st, errs)
	}
}

// --- getopts ---

func TestGetoptsBasic(t *testing.T) {
	wantOut(t, `set -- -a -b arg
while getopts ab:c o; do echo "$o:$OPTARG"; done
echo "ind=$OPTIND"`,
		"a:\nb:arg\nind=4\n")
}

func TestGetoptsCluster(t *testing.T) {
	wantOut(t, `set -- -ab val rest
while getopts ab: o; do echo "$o:$OPTARG"; done
shift $((OPTIND - 1)); echo "rest=$*"`,
		"a:\nb:val\nrest=rest\n")
}

func TestGetoptsInlineArg(t *testing.T) {
	wantOut(t, `set -- -bval
while getopts b: o; do echo "$o:$OPTARG"; done`,
		"b:val\n")
}

func TestGetoptsIllegalOptionLoud(t *testing.T) {
	out, errs, _ := runScript(t, nil, `set -- -z; getopts ab o; echo "o=$o"`)
	if out != "o=?\n" {
		t.Errorf("out=%q", out)
	}
	if !strings.Contains(errs, "illegal option -- z") {
		t.Errorf("errs=%q", errs)
	}
}

func TestGetoptsSilentMode(t *testing.T) {
	// Leading ':' suppresses diagnostics; OPTARG carries the bad char.
	out, errs, _ := runScript(t, nil,
		`set -- -z; getopts :ab o; echo "o=$o optarg=$OPTARG"`)
	if out != "o=? optarg=z\n" || errs != "" {
		t.Errorf("out=%q errs=%q", out, errs)
	}
}

func TestGetoptsMissingArgSilent(t *testing.T) {
	out, errs, _ := runScript(t, nil,
		`set -- -b; getopts :b: o; echo "o=$o optarg=$OPTARG"`)
	if out != "o=: optarg=b\n" || errs != "" {
		t.Errorf("out=%q errs=%q", out, errs)
	}
}

func TestGetoptsMissingArgLoud(t *testing.T) {
	out, errs, _ := runScript(t, nil,
		`set -- -b; getopts b: o; echo "o=$o"`)
	if out != "o=?\n" || !strings.Contains(errs, "requires an argument") {
		t.Errorf("out=%q errs=%q", out, errs)
	}
}

func TestGetoptsEndsAtNonOption(t *testing.T) {
	out, _, _ := runScript(t, nil, `set -- -a file -b
getopts ab o; echo "$o"
getopts ab o; echo "st=$? ind=$OPTIND"`)
	if out != "a\nst=1 ind=2\n" {
		t.Errorf("out=%q", out)
	}
}

func TestGetoptsDoubleDashEnds(t *testing.T) {
	out, _, _ := runScript(t, nil, `set -- -a -- -b
while getopts ab o; do echo "$o"; done
echo "ind=$OPTIND"`)
	if out != "a\nind=3\n" {
		t.Errorf("out=%q", out)
	}
}

func TestGetoptsOptindResetRescans(t *testing.T) {
	wantOut(t, `set -- -a
getopts ab o; echo "$o"
OPTIND=1
getopts ab o; echo "$o"`,
		"a\na\n")
}

func TestGetoptsExplicitArgs(t *testing.T) {
	wantOut(t, `while getopts xy: o -y val -x; do echo "$o:$OPTARG"; done`,
		"y:val\nx:\n")
}

// --- umask ---

func TestUmaskPrintsDefault(t *testing.T) {
	wantOut(t, "umask", "0022\n")
}

func TestUmaskSetAndPrint(t *testing.T) {
	wantOut(t, "umask 027; umask", "0027\n")
}

func TestUmaskInvalid(t *testing.T) {
	_, errs, st := runScript(t, nil, "umask 9999")
	if st == 0 || !strings.Contains(errs, "invalid mask") {
		t.Errorf("st=%d errs=%q", st, errs)
	}
}

func TestUmaskHonoredByFileCreation(t *testing.T) {
	fs := vfs.New()
	out, errs, st := runScript(t, fs, "umask 077; echo secret > /private; umask 000; echo open > /public")
	if st != 0 {
		t.Fatalf("st=%d out=%q errs=%q", st, out, errs)
	}
	private, err := fs.Stat("/private")
	if err != nil || private.Mode != 0o600 {
		t.Errorf("private mode=%04o err=%v (want 0600)", private.Mode, err)
	}
	public, err := fs.Stat("/public")
	if err != nil || public.Mode != 0o666 {
		t.Errorf("public mode=%04o err=%v (want 0666)", public.Mode, err)
	}
}

func TestUmaskHonoredByMkdir(t *testing.T) {
	fs := vfs.New()
	_, _, st := runScript(t, fs, "umask 022; mkdir /d1")
	if st != 0 {
		t.Fatalf("st=%d", st)
	}
	d, err := fs.Stat("/d1")
	if err != nil || d.Mode != 0o755 {
		t.Errorf("dir mode=%04o err=%v (want 0755)", d.Mode, err)
	}
}

func TestUmaskKeptOnOverwrite(t *testing.T) {
	fs := vfs.New()
	_, _, st := runScript(t, fs, "umask 077; echo a > /f; umask 000; echo b > /f")
	if st != 0 {
		t.Fatalf("st=%d", st)
	}
	fi, err := fs.Stat("/f")
	if err != nil || fi.Mode != 0o600 {
		t.Errorf("mode=%04o err=%v (creation mode must stick)", fi.Mode, err)
	}
}

func TestUmaskInheritedBySubshell(t *testing.T) {
	wantOut(t, "umask 027; (umask)", "0027\n")
}
