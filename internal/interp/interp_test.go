package interp

import (
	"bytes"
	"strings"
	"testing"

	"jash/internal/syntax"
	"jash/internal/vfs"
)

// runScript executes src over fs (a fresh one if nil) and returns stdout,
// stderr, and the exit status.
func runScript(t *testing.T, fs *vfs.FS, src string) (string, string, int) {
	t.Helper()
	if fs == nil {
		fs = vfs.New()
	}
	in := New(fs)
	var out, errb bytes.Buffer
	in.Stdout = &out
	in.Stderr = &errb
	status, err := in.RunScript(src)
	if err != nil {
		t.Fatalf("RunScript(%q): %v", src, err)
	}
	return out.String(), errb.String(), status
}

func wantOut(t *testing.T, src, want string) {
	t.Helper()
	out, errs, status := runScript(t, nil, src)
	if out != want {
		t.Errorf("%q:\n got %q\nwant %q\nstderr: %s", src, out, want, errs)
	}
	if status != 0 {
		t.Errorf("%q: status %d, stderr %q", src, status, errs)
	}
}

func TestEcho(t *testing.T) {
	wantOut(t, "echo hello world", "hello world\n")
}

func TestVariables(t *testing.T) {
	wantOut(t, "X=1; echo $X", "1\n")
	wantOut(t, "X=a Y=b; echo $X$Y", "ab\n")
	wantOut(t, `X="two words"; echo "$X"`, "two words\n")
	wantOut(t, "X=outer; echo ${X:-default}", "outer\n")
	wantOut(t, "echo ${UNSET:-default}", "default\n")
}

func TestTemporaryAssignments(t *testing.T) {
	// FOO=1 cmd: binding visible to cmd, not after.
	out, _, _ := runScript(t, nil, "FOO=tmp env | grep FOO; echo after=$FOO")
	if !strings.Contains(out, "FOO=tmp") {
		t.Errorf("temp binding not visible to command: %q", out)
	}
	if !strings.Contains(out, "after=\n") {
		t.Errorf("temp binding leaked: %q", out)
	}
}

func TestPipeline(t *testing.T) {
	wantOut(t, "echo hello | tr a-z A-Z", "HELLO\n")
	wantOut(t, "printf 'c\\nb\\na\\n' | sort | head -n1", "a\n")
	wantOut(t, "echo one two | wc -w | tr -d ' '", "2\n")
}

func TestPipelineStatus(t *testing.T) {
	_, _, status := runScript(t, nil, "true | false")
	if status != 1 {
		t.Errorf("true|false status = %d", status)
	}
	_, _, status = runScript(t, nil, "false | true")
	if status != 0 {
		t.Errorf("false|true status = %d", status)
	}
	_, _, status = runScript(t, nil, "! true")
	if status != 1 {
		t.Errorf("! true status = %d", status)
	}
	_, _, status = runScript(t, nil, "! false")
	if status != 0 {
		t.Errorf("! false status = %d", status)
	}
}

func TestAndOr(t *testing.T) {
	wantOut(t, "true && echo yes", "yes\n")
	wantOut(t, "false || echo no", "no\n")
	out, _, _ := runScript(t, nil, "false && echo skipped")
	if out != "" {
		t.Errorf("&& after false ran: %q", out)
	}
	wantOut(t, "false && echo a || echo b", "b\n")
}

func TestRedirections(t *testing.T) {
	fs := vfs.New()
	_, _, status := runScript(t, fs, "echo data >/out; cat /out")
	if status != 0 {
		t.Fatal("failed")
	}
	data, _ := fs.ReadFile("/out")
	if string(data) != "data\n" {
		t.Errorf("file = %q", data)
	}
	runScript(t, fs, "echo more >>/out")
	data, _ = fs.ReadFile("/out")
	if string(data) != "data\nmore\n" {
		t.Errorf("append = %q", data)
	}
	fs.WriteFile("/in", []byte("from file\n"))
	out, _, _ := runScript(t, fs, "cat </in")
	if out != "from file\n" {
		t.Errorf("stdin redirect = %q", out)
	}
}

func TestStderrRedirect(t *testing.T) {
	fs := vfs.New()
	out, errs, _ := runScript(t, fs, "ls /missing 2>/errfile; echo ok")
	if out != "ok\n" || errs != "" {
		t.Errorf("out=%q errs=%q", out, errs)
	}
	data, _ := fs.ReadFile("/errfile")
	if !strings.Contains(string(data), "missing") {
		t.Errorf("errfile = %q", data)
	}
	// 2>&1 merges stderr into stdout.
	out, errs, _ = runScript(t, fs, "ls /missing 2>&1 | grep -c missing")
	if strings.TrimSpace(out) != "1" || errs != "" {
		t.Errorf("2>&1 out=%q errs=%q", out, errs)
	}
}

func TestHeredoc(t *testing.T) {
	wantOut(t, "cat <<EOF\nline 1\nline 2\nEOF", "line 1\nline 2\n")
	wantOut(t, "X=world; cat <<EOF\nhello $X\nEOF", "hello world\n")
	wantOut(t, "X=world; cat <<'EOF'\nhello $X\nEOF", "hello $X\n")
}

func TestIfElse(t *testing.T) {
	wantOut(t, "if true; then echo T; else echo F; fi", "T\n")
	wantOut(t, "if false; then echo T; else echo F; fi", "F\n")
	wantOut(t, "if false; then echo a; elif true; then echo b; else echo c; fi", "b\n")
	_, _, status := runScript(t, nil, "if false; then echo x; fi")
	if status != 0 {
		t.Errorf("if with false cond and no else: status %d", status)
	}
}

func TestWhileLoop(t *testing.T) {
	wantOut(t, "i=0; while test $i -lt 3; do echo $i; i=$((i+1)); done", "0\n1\n2\n")
	wantOut(t, "i=0; until test $i -ge 2; do echo $i; i=$((i+1)); done", "0\n1\n")
}

func TestForLoop(t *testing.T) {
	wantOut(t, "for x in a b c; do echo $x; done", "a\nb\nc\n")
	wantOut(t, `for x in "one two" three; do echo [$x]; done`, "[one two]\n[three]\n")
}

func TestBreakContinue(t *testing.T) {
	wantOut(t, "for x in 1 2 3 4; do if test $x = 3; then break; fi; echo $x; done", "1\n2\n")
	wantOut(t, "for x in 1 2 3; do if test $x = 2; then continue; fi; echo $x; done", "1\n3\n")
	wantOut(t, "for a in 1 2; do for b in x y; do break 2; done; echo inner; done; echo done", "done\n")
}

func TestCase(t *testing.T) {
	wantOut(t, "case hello.txt in *.txt) echo text ;; *) echo other ;; esac", "text\n")
	wantOut(t, "case abc in a|b) echo ab ;; a*) echo astar ;; esac", "astar\n")
	wantOut(t, "X=5; case $X in [0-9]) echo digit ;; esac", "digit\n")
	_, _, status := runScript(t, nil, "case zzz in a) echo a ;; esac")
	if status != 0 {
		t.Errorf("no-match case status = %d", status)
	}
}

func TestFunctions(t *testing.T) {
	wantOut(t, "greet() { echo hello $1; }\ngreet world", "hello world\n")
	wantOut(t, "f() { return 3; }\nf; echo $?", "3\n")
	wantOut(t, "f() { echo $#; }\nf a b c", "3\n")
	// Function params restored after call.
	wantOut(t, "set -- outer; f() { echo in=$1; }; f inner; echo out=$1", "in=inner\nout=outer\n")
}

func TestSubshell(t *testing.T) {
	wantOut(t, "X=1; (X=2; echo in=$X); echo out=$X", "in=2\nout=1\n")
	wantOut(t, "(cd /tmp 2>/dev/null; true); pwd", "/\n")
}

func TestBraceGroup(t *testing.T) {
	wantOut(t, "{ echo a; echo b; }", "a\nb\n")
	fs := vfs.New()
	runScript(t, fs, "{ echo one; echo two; } >/both")
	data, _ := fs.ReadFile("/both")
	if string(data) != "one\ntwo\n" {
		t.Errorf("group redirect = %q", data)
	}
}

func TestCmdSubst(t *testing.T) {
	wantOut(t, "echo $(echo nested)", "nested\n")
	wantOut(t, "X=$(echo val); echo $X", "val\n")
	wantOut(t, "echo `echo backquote`", "backquote\n")
	wantOut(t, "echo count=$(printf 'a\\nb\\n' | wc -l | tr -d ' ')", "count=2\n")
	// Substitution runs in a subshell: assignments don't escape.
	wantOut(t, "X=1; Y=$(X=2; echo $X); echo $X $Y", "1 2\n")
}

func TestArithmetic(t *testing.T) {
	wantOut(t, "echo $((2+3))", "5\n")
	wantOut(t, "i=10; echo $((i * i))", "100\n")
	wantOut(t, "i=1; i=$((i+1)); i=$((i+1)); echo $i", "3\n")
}

func TestExitStatus(t *testing.T) {
	_, _, status := runScript(t, nil, "exit 42")
	if status != 42 {
		t.Errorf("exit 42 -> %d", status)
	}
	out, _, status := runScript(t, nil, "echo before; exit 3; echo after")
	if out != "before\n" || status != 3 {
		t.Errorf("out=%q status=%d", out, status)
	}
	wantOut(t, "false; echo $?", "1\n")
	wantOut(t, "true; echo $?", "0\n")
}

func TestErrExit(t *testing.T) {
	out, _, status := runScript(t, nil, "set -e; false; echo unreachable")
	if out != "" || status != 1 {
		t.Errorf("set -e: out=%q status=%d", out, status)
	}
	// Guarded commands don't trip errexit.
	wantOut(t, "set -e; false || true; echo ok", "ok\n")
	wantOut(t, "set -e; if false; then :; fi; echo ok", "ok\n")
}

func TestUnknownCommand(t *testing.T) {
	_, errs, status := runScript(t, nil, "definitely-not-a-command")
	if status != 127 || !strings.Contains(errs, "not found") {
		t.Errorf("status=%d errs=%q", status, errs)
	}
}

func TestCdPwd(t *testing.T) {
	fs := vfs.New()
	fs.MkdirAll("/a/b")
	wantOutFS(t, fs, "cd /a/b; pwd", "/a/b\n")
	wantOutFS(t, fs, "cd /a; cd b; pwd", "/a/b\n")
	_, errs, status := runScript(t, fs, "cd /nope")
	if status == 0 || errs == "" {
		t.Error("cd to missing dir should fail")
	}
	// Relative file access after cd.
	fs.WriteFile("/a/b/f.txt", []byte("rel\n"))
	wantOutFS(t, fs, "cd /a/b; cat f.txt", "rel\n")
}

func wantOutFS(t *testing.T, fs *vfs.FS, src, want string) {
	t.Helper()
	out, errs, status := runScript(t, fs, src)
	if out != want || status != 0 {
		t.Errorf("%q: out=%q status=%d stderr=%q, want %q", src, out, status, errs, want)
	}
}

func TestExportEnv(t *testing.T) {
	out, _, _ := runScript(t, nil, "export FOO=bar; env | grep '^FOO='")
	if out != "FOO=bar\n" {
		t.Errorf("export: %q", out)
	}
	out, _, _ = runScript(t, nil, "FOO=nope; env | grep -c '^FOO=' || true")
	if strings.TrimSpace(out) != "0" {
		t.Errorf("unexported visible in env: %q", out)
	}
}

func TestUnset(t *testing.T) {
	wantOut(t, "X=1; unset X; echo [${X:-gone}]", "[gone]\n")
}

func TestShiftSetParams(t *testing.T) {
	wantOut(t, "set -- a b c; echo $1 $#; shift; echo $1 $#", "a 3\nb 2\n")
	wantOut(t, "set -- x y; shift 2; echo $#", "0\n")
}

func TestEval(t *testing.T) {
	wantOut(t, `CMD="echo evald"; eval $CMD`, "evald\n")
	wantOut(t, `eval "X=5"; echo $X`, "5\n")
}

func TestRead(t *testing.T) {
	fs := vfs.New()
	fs.WriteFile("/in", []byte("alpha beta gamma\nsecond\n"))
	wantOutFS(t, fs, "read A B </in; echo a=$A b=$B", "a=alpha b=beta gamma\n")
	wantOutFS(t, fs, "while read L; do echo got:$L; done </in", "got:alpha beta gamma\ngot:second\n")
}

func TestGlobbingInCommands(t *testing.T) {
	fs := vfs.New()
	fs.WriteFile("/w/a.txt", []byte("A\n"))
	fs.WriteFile("/w/b.txt", []byte("B\n"))
	wantOutFS(t, fs, "cd /w; cat *.txt", "A\nB\n")
	wantOutFS(t, fs, "cd /w; for f in *.txt; do echo f=$f; done", "f=a.txt\nf=b.txt\n")
	// set -f disables globbing.
	wantOutFS(t, fs, "cd /w; set -f; echo *.txt", "*.txt\n")
}

func TestTypeBuiltin(t *testing.T) {
	out, _, _ := runScript(t, nil, "type cd sort")
	if !strings.Contains(out, "cd is a shell builtin") || !strings.Contains(out, "sort is") {
		t.Errorf("type out=%q", out)
	}
}

func TestBackgroundRunsSynchronouslyButKeepsStatus(t *testing.T) {
	// No job control: & completes before the next command, and does not
	// clobber $?.
	wantOut(t, "true; false & echo $?", "0\n")
	fs := vfs.New()
	wantOutFS(t, fs, "echo bg >/f & cat /f", "bg\n")
}

func TestSpellPipelineEndToEnd(t *testing.T) {
	// The paper's §3.2 spell script, verbatim, over the VFS.
	fs := vfs.New()
	fs.WriteFile("/usr/dict", []byte("hello\nworld\n"))
	fs.WriteFile("/doc1", []byte("Hello wrld, hello!\n"))
	src := `DICT=/usr/dict
FILES="/doc1"
cat $FILES | tr A-Z a-z | tr -cs A-Za-z '\n' | sort -u | comm -13 $DICT -`
	out, errs, status := runScript(t, fs, src)
	if status != 0 {
		t.Fatalf("status=%d stderr=%q", status, errs)
	}
	if out != "wrld\n" {
		t.Errorf("spell out=%q", out)
	}
}

func TestTemperaturePipelineEndToEnd(t *testing.T) {
	// The paper's §2.1 pipeline: max temperature from fixed-width records.
	fs := vfs.New()
	pad := strings.Repeat("0", 88)
	records := pad + "0031\n" + pad + "0047\n" + pad + "9999\n" + pad + "0012\n"
	fs.WriteFile("/ncdc", []byte(records))
	out, _, status := runScript(t, fs, "cat /ncdc | cut -c 89-92 | grep -v 999 | sort -rn | head -n1")
	if status != 0 || out != "0047\n" {
		t.Errorf("out=%q status=%d", out, status)
	}
}

func TestXTrace(t *testing.T) {
	_, errs, _ := runScript(t, nil, "set -x; echo traced")
	if !strings.Contains(errs, "+ echo traced") {
		t.Errorf("xtrace stderr=%q", errs)
	}
}

func TestDeepPipelineLargeData(t *testing.T) {
	fs := vfs.New()
	var b strings.Builder
	words := []string{"apple", "banana", "cherry", "apple", "banana", "apple"}
	for i := 0; i < 300; i++ {
		b.WriteString(words[i%len(words)])
		b.WriteByte('\n')
	}
	fs.WriteFile("/words", []byte(b.String()))
	out, _, status := runScript(t, fs, "cat /words | sort | uniq -c | sort -rn | head -n1 | awk '{print $2}'")
	if status != 0 || strings.TrimSpace(out) != "apple" {
		t.Errorf("out=%q status=%d", out, status)
	}
}

func TestNoUnset(t *testing.T) {
	out, errs, status := runScript(t, nil, "set -u; echo $MISSING; echo unreachable")
	if status == 0 || out != "" {
		t.Errorf("set -u: out=%q status=%d errs=%q", out, status, errs)
	}
	if !strings.Contains(errs, "MISSING") {
		t.Errorf("stderr=%q", errs)
	}
	// An unset word in a redirection target is the same error whichever
	// redirection it is, <& included.
	for _, redir := range []string{"<$MISSING", ">$MISSING", ">&$MISSING", "<&$MISSING"} {
		out, errs, status := runScript(t, nil, "set -u; echo hi "+redir+"; echo unreachable")
		if status == 0 || out != "" || !strings.Contains(errs, "MISSING") {
			t.Errorf("set -u with %s: out=%q status=%d errs=%q", redir, out, status, errs)
		}
	}
	// Defaults still work under -u.
	wantOut(t, "set -u; echo ${MISSING:-ok}", "ok\n")
	// Set variables are fine.
	wantOut(t, "set -u; X=1; echo $X", "1\n")
}

func TestRedirClobberAndInOut(t *testing.T) {
	fs := vfs.New()
	wantOutFS(t, fs, "echo one >|/f; cat /f", "one\n")
	// <> opens read-write without truncation.
	fs.WriteFile("/rw", []byte("keep\n"))
	wantOutFS(t, fs, "cat <>/rw", "keep\n")
}

func TestCaseNoFallthroughAndFirstMatchWins(t *testing.T) {
	wantOut(t, "case ab in a*) echo first ;; *b) echo second ;; esac", "first\n")
}

func TestNestedFunctions(t *testing.T) {
	wantOut(t, `outer() { inner() { echo deep; }; inner; }
outer`, "deep\n")
}

func TestCmdSubstInsidePipelineWord(t *testing.T) {
	wantOut(t, `echo $(echo a | tr a b)$(echo c)`, "bc\n")
}

func TestUntilWithBreak(t *testing.T) {
	wantOut(t, "i=0; until false; do i=$((i+1)); if test $i -ge 3; then break; fi; done; echo $i", "3\n")
}

func TestIFSCustomSplitting(t *testing.T) {
	wantOut(t, `IFS=:; V="a:b:c"; for x in $V; do echo [$x]; done`, "[a]\n[b]\n[c]\n")
}

func TestExecBuiltinReplacesShell(t *testing.T) {
	out, _, status := runScript(t, nil, "echo before; exec echo replaced; echo never")
	if out != "before\nreplaced\n" || status != 0 {
		t.Errorf("out=%q status=%d", out, status)
	}
}

func TestEvalBuildsPipelines(t *testing.T) {
	wantOut(t, `P="tr a-z A-Z"; echo hi | eval $P`, "HI\n")
}

func TestReadonlyEnforced(t *testing.T) {
	_, errs, status := runScript(t, nil, "readonly R=1; R=2; echo $R")
	if status == 0 || !strings.Contains(errs, "readonly") {
		t.Errorf("status=%d errs=%q", status, errs)
	}
}

// TestPrintedScriptBehavesIdentically: unparsing a script and running the
// printed form must produce the same output and status — the semantic
// counterpart of the syntax package's AST round-trip tests, and the
// property Jash relies on when it rewrites and re-emits commands.
func TestPrintedScriptBehavesIdentically(t *testing.T) {
	scripts := []string{
		"echo hello world",
		"X=5; echo $X ${X:-d} ${#X}",
		"if test 1 -lt 2; then echo yes; else echo no; fi",
		"for x in a 'b c' d; do echo [$x]; done",
		"i=0; while test $i -lt 3; do echo $i; i=$((i+1)); done",
		"case foo.txt in *.txt) echo t ;; *) echo o ;; esac",
		"f() { echo fn $1; }; f arg",
		"echo start && false || echo rescued",
		"printf '%s\\n' one two | sort -r | head -n1",
		"(X=sub; echo $X); echo ${X:-unset}",
		"cat <<EOF\nheredoc $((1+1))\nEOF",
		"echo a; echo b & echo c",
	}
	for _, src := range scripts {
		script, err := syntax.Parse(src)
		if err != nil {
			t.Fatalf("parse %q: %v", src, err)
		}
		printed := syntax.Print(script)
		out1, _, st1 := runScript(t, nil, src)
		out2, _, st2 := runScript(t, nil, printed)
		if out1 != out2 || st1 != st2 {
			t.Errorf("printed form diverges for %q:\nprinted: %q\n out1=%q st1=%d\n out2=%q st2=%d",
				src, printed, out1, st1, out2, st2)
		}
	}
}

func TestCdDash(t *testing.T) {
	fs := vfs.New()
	fs.MkdirAll("/a")
	fs.MkdirAll("/b")
	wantOutFS(t, fs, "cd /a; cd /b; cd - >/dev/null; pwd", "/a\n")
	_, errs, st := runScript(t, fs, "cd -")
	if st == 0 || !strings.Contains(errs, "OLDPWD") {
		t.Errorf("cd - without OLDPWD: st=%d errs=%q", st, errs)
	}
}

func TestExportPrint(t *testing.T) {
	out, _, _ := runScript(t, nil, "export A=1 B=2; export -p")
	if !strings.Contains(out, "export A=1") || !strings.Contains(out, "export B=2") {
		t.Errorf("export -p out=%q", out)
	}
}

func TestSetPrintsVariables(t *testing.T) {
	out, _, _ := runScript(t, nil, "zvar=last; avar=first; set | grep var")
	if !strings.Contains(out, "avar=first") || !strings.Contains(out, "zvar=last") {
		t.Errorf("set out=%q", out)
	}
}

func TestTypeNotFound(t *testing.T) {
	_, errs, st := runScript(t, nil, "type no-such-thing")
	if st != 1 || !strings.Contains(errs, "not found") {
		t.Errorf("st=%d errs=%q", st, errs)
	}
}

func TestShiftOutOfRange(t *testing.T) {
	_, errs, st := runScript(t, nil, "set -- a; shift 5")
	if st == 0 || !strings.Contains(errs, "shift") {
		t.Errorf("st=%d errs=%q", st, errs)
	}
}

func TestDupInClose(t *testing.T) {
	// <&- closes stdin: read hits EOF immediately.
	_, _, st := runScript(t, nil, "read x <&-")
	if st == 0 {
		t.Errorf("read from closed stdin should fail, st=%d", st)
	}
}

func TestStderrToDiscard(t *testing.T) {
	out, errs, _ := runScript(t, nil, "ls /nope 2>&-; echo after")
	if out != "after\n" || errs != "" {
		t.Errorf("out=%q errs=%q", out, errs)
	}
}

func TestEvalParseError(t *testing.T) {
	_, errs, st := runScript(t, nil, `eval "echo 'unterminated"`)
	if st != 2 || !strings.Contains(errs, "eval") {
		t.Errorf("st=%d errs=%q", st, errs)
	}
}

func TestWaitNoops(t *testing.T) {
	wantOut(t, "wait; echo ok", "ok\n")
}

func TestUnsetReadonlyFails(t *testing.T) {
	_, errs, st := runScript(t, nil, "readonly R=1; unset R")
	if st == 0 || !strings.Contains(errs, "readonly") {
		t.Errorf("st=%d errs=%q", st, errs)
	}
}

func TestReadEOFStatus(t *testing.T) {
	fs := vfs.New()
	fs.WriteFile("/empty", nil)
	_, _, st := runScript(t, fs, "read x </empty")
	if st != 1 {
		t.Errorf("read at EOF st=%d, want 1", st)
	}
}

func TestCmdNameFromVariable(t *testing.T) {
	wantOut(t, "C=echo; $C dynamic", "dynamic\n")
}

func TestDevNullConvention(t *testing.T) {
	// /dev/null is just a VFS file here; output lands there harmlessly.
	fs := vfs.New()
	wantOutFS(t, fs, "echo discarded >/dev/null; echo visible", "visible\n")
}

func TestLocalBuiltin(t *testing.T) {
	wantOut(t, "f() { local v=inner; echo $v; }; f", "inner\n")
}

func TestLocalRestoresShadowedVariable(t *testing.T) {
	// A local that shadows an outer variable must restore it on return.
	wantOut(t, "v=outer; f() { local v=inner; echo $v; }; f; echo $v",
		"inner\nouter\n")
	// A local with no outer binding must be unset again after return.
	wantOut(t, "f() { local v=inner; }; f; echo end${v}end", "endend\n")
	// `local x` with no value declares a fresh empty local even when an
	// outer value exists.
	wantOut(t, "v=outer; f() { local v; echo in=$v; }; f; echo out=$v",
		"in=\nout=outer\n")
	// Restoration survives nested calls and early `return`.
	wantOut(t, `v=1
g() { local v=3; return; }
f() { local v=2; g; echo f=$v; }
f
echo top=$v
`, "f=2\ntop=1\n")
}

func TestPWDSetAtStartup(t *testing.T) {
	wantOut(t, "echo $PWD", "/\n")
	// cd keeps it in sync (already covered elsewhere, but PWD must start
	// exported so child utilities see it).
	out, _, _ := runScript(t, nil, "env | grep '^PWD='")
	if !strings.Contains(out, "PWD=/") {
		t.Errorf("PWD not exported at startup: %q", out)
	}
}

func TestBadFdDup(t *testing.T) {
	_, errs, st := runScript(t, nil, "echo x 2>&9")
	if st == 0 || !strings.Contains(errs, "bad fd") {
		t.Errorf("st=%d errs=%q", st, errs)
	}
}
