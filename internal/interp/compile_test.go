package interp

import (
	"bytes"
	"errors"
	"os"
	osexec "os/exec"
	"path"
	"strings"
	"testing"

	"jash/internal/expand"
	"jash/internal/syntax"
	"jash/internal/vfs"
)

// diffCase is one script with the stdout and exit status it must produce,
// recorded from the commit that still had a second (tree-walking)
// implementation of control flow to agree with.
type diffCase struct {
	src    string
	stdout string
	status int
}

// runBoth executes src twice over identical fresh filesystems — once with
// the evaluator's fast paths on, once with them off (NoCompile: every word
// through the full expander, every command through the run-time dispatch
// chain) — and returns (stdout, stderr, status) for each. The plain run is
// the reference; any divergence is a bug in a word plan or in
// compileDispatch.
func runBoth(t *testing.T, src string, seed func(fs *vfs.FS)) (cOut, cErr string, cStatus int, pOut, pErr string, pStatus int) {
	t.Helper()
	run := func(noCompile bool) (string, string, int) {
		fs := vfs.New()
		if seed != nil {
			seed(fs)
		}
		in := New(fs)
		in.NoCompile = noCompile
		var out, errb bytes.Buffer
		in.Stdout = &out
		in.Stderr = &errb
		status, err := in.RunScript(src)
		if err != nil {
			// Parse or fatal errors must also agree; encode them in stderr.
			return out.String(), errb.String() + "FATAL: " + err.Error(), status
		}
		return out.String(), errb.String(), status
	}
	cOut, cErr, cStatus = run(false)
	pOut, pErr, pStatus = run(true)
	return
}

// assertAgree checks the two runs match byte for byte on stdout, stderr
// and exit status, and — the two share their control flow, so agreement
// alone would let both be wrong together — that stdout and status are the
// literal expectation.
func assertAgree(t *testing.T, c diffCase, seed func(fs *vfs.FS)) {
	t.Helper()
	cOut, cErr, cStatus, pOut, pErr, pStatus := runBoth(t, c.src, seed)
	if cOut != pOut {
		t.Errorf("%q stdout diverges:\nfast:  %q\nplain: %q", c.src, cOut, pOut)
	}
	if cErr != pErr {
		t.Errorf("%q stderr diverges:\nfast:  %q\nplain: %q", c.src, cErr, pErr)
	}
	if cStatus != pStatus {
		t.Errorf("%q status diverges: fast %d, plain %d", c.src, cStatus, pStatus)
	}
	if cOut != c.stdout || cStatus != c.status {
		t.Errorf("%q = %q, status %d; want %q, status %d", c.src, cOut, cStatus, c.stdout, c.status)
	}
}

func TestCompiledDifferentialBasics(t *testing.T) {
	scripts := []diffCase{
		{"echo hello world", "hello world\n", 0},
		{"X=1; echo $X", "1\n", 0},
		{"X=a Y=b; echo $X$Y", "ab\n", 0},
		{`X="two words"; echo "$X"`, "two words\n", 0},
		{"echo ${UNSET:-default}", "default\n", 0},
		{"true && echo yes || echo no", "yes\n", 0},
		{"false && echo yes || echo no", "no\n", 0},
		{"! true; echo $?", "1\n", 0},
		{"! false; echo $?", "0\n", 0},
		{"true | false; echo $?", "1\n", 0},
		{"echo a; echo b & echo c", "a\nb\nc\n", 0},
		{"exit 3", "", 3},
		{"(exit 5); echo $?", "5\n", 0},
		{"echo one; exit 7; echo two", "one\n", 7},
	}
	for _, c := range scripts {
		assertAgree(t, c, nil)
	}
}

func TestCompiledDifferentialControlFlow(t *testing.T) {
	scripts := []diffCase{
		{"i=0; while [ $i -lt 5 ]; do echo $i; i=$((i+1)); done", "0\n1\n2\n3\n4\n", 0},
		{"i=0; until [ $i -ge 3 ]; do echo $i; i=$((i+1)); done", "0\n1\n2\n", 0},
		{"for x in a b c; do echo $x; done", "a\nb\nc\n", 0},
		{"for x in; do echo $x; done; echo status=$?", "status=0\n", 0},
		{"i=0; while [ $i -lt 10 ]; do i=$((i+1)); if [ $i -eq 4 ]; then break; fi; echo $i; done", "1\n2\n3\n", 0},
		{"i=0; while [ $i -lt 6 ]; do i=$((i+1)); if [ $i -eq 3 ]; then continue; fi; echo $i; done", "1\n2\n4\n5\n6\n", 0},
		{"for a in 1 2; do for b in x y; do if [ $b = y ]; then break 2; fi; echo $a$b; done; done", "1x\n", 0},
		{"for a in 1 2; do for b in x y; do if [ $b = y ]; then continue 2; fi; echo $a$b; done; done", "1x\n2x\n", 0},
		{"if true; then echo t; else echo f; fi", "t\n", 0},
		{"if false; then echo t; else echo f; fi", "f\n", 0},
		{"if false; then echo t; fi; echo $?", "0\n", 0},
		{"case hello in h*) echo starts-h;; *) echo other;; esac", "starts-h\n", 0},
		{"case zebra in h*) echo starts-h;; *) echo other;; esac", "other\n", 0},
		{"x=abc; case $x in a?c) echo matched;; esac", "matched\n", 0},
		{"f() { echo in-f $1; return 4; }; f arg; echo $?", "in-f arg\n4\n", 0},
		{"f() { for x in 1 2 3; do echo $x; done; }; f; f", "1\n2\n3\n1\n2\n3\n", 0},
		{"g() { return 1; }; g || echo failed", "failed\n", 0},
		{"n=0; while [ $n -lt 3 ]; do n=$((n+1)); done; echo $n", "3\n", 0},
	}
	for _, c := range scripts {
		assertAgree(t, c, nil)
	}
}

func TestCompiledDifferentialExpansionEdges(t *testing.T) {
	scripts := []diffCase{
		// IFS manipulation invalidates the static-word fast path.
		{`IFS=c; echo echoed`, "", 127},
		{`IFS=c; X=abcd; echo $X`, "", 127},
		{`IFS=" 	"; echo a b`, "a b\n", 0},
		{`IFS=; X="a b"; echo $X`, "a b\n", 0},
		// Glob metacharacters in literal words.
		{"echo *.nomatch", "*.nomatch\n", 0},
		{"echo 'lit*eral'", "lit*eral\n", 0},
		{`echo "quoted*glob"`, "quoted*glob\n", 0},
		// Escapes and quoting.
		{`echo a\ b`, "a b\n", 0},
		{`echo "a\$b"`, "a$b\n", 0},
		{`echo 'a$b'`, "a$b\n", 0},
		{`echo ""`, "\n", 0},
		{"echo", "\n", 0},
		// Dynamic command names.
		{"c=echo; $c dynamic", "dynamic\n", 0},
		{"e=ech; o=o; $e$o split-name", "split-name\n", 0},
		// $? capture order across assignments and words.
		{"false; a=$?; echo $a", "1\n", 0},
		{"a=$(false)$?; echo $a", "0\n", 0},
		{"false; echo $? $?", "1 1\n", 0},
		// Arithmetic (only the taken ternary arm runs; assignment operators).
		{"echo $((2+3*4))", "14\n", 0},
		{"echo $((1 ? 10 : 20))", "10\n", 0},
		{"echo $((0 ? 10 : 20))", "20\n", 0},
		{"x=0; echo $((1 ? x+=5 : (x+=7) )) $x", "5 5\n", 0},
		{"x=1; echo $(( x && 0 || 2 ))", "1\n", 0},
		{"echo $(( 1 << 5, 0 ))2>/dev/null || echo arith-err", "", 1},
		{"echo $((x=7)) $x", "7 7\n", 0},
		{"echo $((10/3)) $((10%3))", "3 1\n", 0},
		{"echo $((0x1f)) $((010))", "31 8\n", 0},
		// Readonly violation inside compiled assignment.
		{"readonly R=1; R=2; echo unreached", "", 1},
		// ... and inside the expansions that assign, the for variable and read.
		{"readonly r=1; : $((r=2)); echo $r", "", 1},
		{"readonly r=1; echo $((r+=0)); echo unreached", "", 1},
		{"readonly r; : ${r:=2}; echo $r", "", 1},
		{"readonly r=1; echo $((0 && (r=2))) ${r:=3}", "0 1\n", 0},
		{"readonly r=1; for r in a b; do echo $r; done; echo unreached", "", 1},
		{"readonly r=1; echo x | read r || echo refused; echo $r", "refused\n1\n", 0},
		// ... and in the temporary environment, export, readonly and local.
		{"readonly r=1; r=2 true; echo unreached", "", 1},
		{"readonly r=1; export r=3; echo unreached", "", 1},
		{"readonly r=1; readonly r=5; echo unreached", "", 1},
		{"f() { local r=4; echo in; }; readonly r=1; f; echo unreached", "", 1},
		// Tilde.
		{"HOME=/home/u; echo ~", "/home/u\n", 0},
		{"HOME=/home/u; echo ~/sub", "/home/u/sub\n", 0},
	}
	for _, c := range scripts {
		assertAgree(t, c, nil)
	}
}

func TestCompiledDifferentialRedirsAndPipes(t *testing.T) {
	seed := func(fs *vfs.FS) {
		fs.WriteFile("/data.txt", []byte("alpha\nbeta\ngamma\n"))
	}
	scripts := []diffCase{
		{"cat </data.txt", "alpha\nbeta\ngamma\n", 0},
		{"grep a </data.txt | wc -l", "3\n", 0},
		{"cat /data.txt | grep -v beta | sort -r", "gamma\nalpha\n", 0},
		{"echo first >/out; echo second >>/out; cat /out", "first\nsecond\n", 0},
		{"while read line; do echo got:$line; done </data.txt", "got:alpha\ngot:beta\ngot:gamma\n", 0},
		{"for f in 1 2; do echo $f; done >/loop.out; cat /loop.out", "1\n2\n", 0},
		{"{ echo a; echo b; } >/grp.out; cat /grp.out", "a\nb\n", 0},
		{"if true; then echo ok; fi >/if.out; cat /if.out", "ok\n", 0},
		{"cat <<EOF\nline $((1+1))\nEOF", "line 2\n", 0},
		{"echo errline >&2", "", 0},
		{"echo both; echo err >&2", "both\n", 0},
	}
	for _, c := range scripts {
		assertAgree(t, c, seed)
	}
}

func TestCompiledDifferentialOptionsAndTraps(t *testing.T) {
	scripts := []diffCase{
		{"set -e; false; echo unreached", "", 1},
		{"set -e; false || echo guarded; echo after", "guarded\nafter\n", 0},
		{"set -e; if false; then echo t; fi; echo survived", "survived\n", 0},
		{"set -e; while false; do echo body; done; echo survived", "survived\n", 0},
		{"set -x; echo traced", "traced\n", 0},
		{"set -u; echo ${MISSING}; echo unreached", "", 1},
		{"trap 'echo exiting' EXIT; echo body", "body\nexiting\n", 0},
		{"trap 'echo exiting' EXIT; exit 2", "exiting\n", 2},
		{"set -f; echo *.raw", "*.raw\n", 0},
	}
	for _, c := range scripts {
		assertAgree(t, c, nil)
	}
}

func TestCompiledDifferentialSubshells(t *testing.T) {
	scripts := []diffCase{
		// A background list is a subshell that has finished by the next
		// statement: what it assigns, its cd and its exit stay inside it.
		{`echo $((x=5)) & wait; echo "x=$x"`, "5\nx=\n", 0},
		{`x=1 & echo "[$x]"`, "[]\n", 0},
		{"mkdir /t; cd /t & pwd", "/\n", 0},
		{"exit 3 & echo alive $?", "alive 0\n", 0},
		{"false & echo $?; true && false & echo $?", "0\n0\n", 0},
		// Runaway recursion is a script error at a fixed depth, counted
		// through the subshells of $( ) and pipelines too.
		{"f() { eval f; }; f; echo unreached", "", 2},
		{"f() { echo $(f); }; f >/dev/null; echo after", "after\n", 0},
		{"f() { if [ $1 -gt 0 ]; then f $(($1-1)); else echo bottom; fi; }; f 900", "bottom\n", 0},
		{"trap 'echo parent' EXIT; { trap 'echo child' EXIT; echo job; } & echo next", "job\nchild\nnext\nparent\n", 0},
		{"X=outer; (X=inner; echo $X); echo $X", "inner\nouter\n", 0},
		{"(cd /tmp 2>/dev/null; pwd); pwd", "/\n/\n", 0},
		{"echo $(echo nested $(echo deep))", "nested deep\n", 0},
		{"X=$(echo from-subst); echo $X", "from-subst\n", 0},
		{"(exit 9); echo $?", "9\n", 0},
		{"out=$(i=0; while [ $i -lt 3 ]; do echo $i; i=$((i+1)); done); echo \"$out\"", "0\n1\n2\n", 0},
	}
	for _, c := range scripts {
		assertAgree(t, c, nil)
	}
}

// TestCompiledDifferentialLocalGetoptsInLoops audits the compiled-closure
// cache on the two builtins whose correctness depends on per-call shell
// state rather than the cached body: `local` must save and restore its
// shadowed bindings on every function return even when the body closure
// is reused across loop iterations, and `getopts` must advance (and
// rescan after an external OPTIND write) identically whether the loop
// driving it runs with the fast paths on or off.
func TestCompiledDifferentialLocalGetoptsInLoops(t *testing.T) {
	scripts := []diffCase{
		// local restore across repeated calls from a for loop: the cached
		// closure must not leak one call's local into the next.
		{"x=outer; f() { local x; x=$1; echo in:$x; }; for v in a b c; do f $v; done; echo out:$x", "in:a\nin:b\nin:c\nout:outer\n", 0},
		// local with assignment form, called from a while loop.
		{"n=global; g() { local n=inner; echo $n; }; i=0; while [ $i -lt 3 ]; do g; i=$((i+1)); done; echo $n", "inner\ninner\ninner\nglobal\n", 0},
		// local of an unset variable must restore to unset, not empty.
		{"h() { local u=set; echo call:$u; }; for v in 1 2; do h; done; echo after:${u:-unset}", "call:set\ncall:set\nafter:unset\n", 0},
		// Nested functions: inner local shadows outer local, both restore.
		{"f() { local x=f; g; echo f:$x; }; g() { local x=g; echo g:$x; }; x=top; for v in 1 2; do f; done; echo top:$x", "g:g\nf:f\ng:g\nf:f\ntop:top\n", 0},
		// getopts driven by a while loop over positional parameters.
		{`set -- -a -b val -c rest
while getopts ab:c o; do echo "o=$o arg=$OPTARG"; done
shift $((OPTIND - 1)); echo "rest=$* ind=$OPTIND"`, "o=a arg=\no=b arg=val\no=c arg=\nrest=rest ind=5\n", 0},
		// External OPTIND write mid-stream restarts the scan; the compiled
		// loop body must observe the reset on every pass.
		{`set -- -a -b
getopts ab o; echo "first=$o"
OPTIND=1
while getopts ab o; do echo "again=$o"; done`, "first=a\nagain=a\nagain=b\n", 0},
		// getopts inside a function with local OPTIND-adjacent state.
		{`parse() { local o; while getopts xy o; do echo "saw=$o"; done; }
set -- -x -y
for pass in 1 2; do OPTIND=1; parse -x -y; done`, "saw=x\nsaw=y\nsaw=x\nsaw=y\n", 0},
		// Unknown option and missing argument paths must diagnose alike.
		{`set -- -z
while getopts a o; do echo "o=$o"; done; echo "st=$?"`, "o=?\nst=0\n", 0},
		{`set -- -b
while getopts b: o; do echo "o=$o arg=$OPTARG"; done; echo "st=$?"`, "o=? arg=\nst=0\n", 0},
	}
	for _, c := range scripts {
		assertAgree(t, c, nil)
	}
}

// TestCompiledCacheSharedAcrossClones runs a function in a pipeline twice
// to exercise cached closures on subshell clones (races here would be
// caught by -race).
func TestCompiledCacheSharedAcrossClones(t *testing.T) {
	src := "f() { while read l; do echo f:$l; done; }; echo a | f; echo b | f"
	assertAgree(t, diffCase{src, "f:a\nf:b\n", 0}, nil)
}

// TestCompiledLoopReusesClosures is a smoke test that the compiled path
// produces correct output over many iterations (the cache returns the
// same closure each pass).
func TestCompiledLoopReusesClosures(t *testing.T) {
	fs := vfs.New()
	in := New(fs)
	var out bytes.Buffer
	in.Stdout = &out
	status, err := in.RunScript("i=0; s=0; while [ $i -lt 100 ]; do i=$((i+1)); s=$((s+i)); done; echo $s")
	if err != nil || status != 0 {
		t.Fatalf("status=%d err=%v", status, err)
	}
	if got := out.String(); got != "5050\n" {
		t.Errorf("sum = %q, want 5050", got)
	}
}

// TestNoCompileStillBypassesWhatChangesAtRunTime pins the three things a
// cached closure must re-examine on every run, with the fast paths on or
// off: IFS, the function table, and set -u.
func TestNoCompileStillBypassesWhatChangesAtRunTime(t *testing.T) {
	scripts := []diffCase{
		// IFS changes after the statement's first execution: the precomputed
		// field list and the bare-$name shortcut are valid only under the
		// default IFS (this expander splits unquoted literal text too).
		{"x=1:2; f() { echo a:b $x; }; f; IFS=:; f", "a:b 1:2\na b 1 2\n", 0},
		{"f() { y=$((6*7)); echo $((6*7)) \"$y\"; }; f; IFS=4; f", "42 42\n 2 42\n", 0},
		// A function defined later shadows a utility name this statement
		// has already dispatched once.
		{"for i in 1 2; do basename /x/y; basename() { echo shadow $1; }; done", "y\nshadow /x/y\n", 0},
		{"for i in 1 2; do echo $i; echo() { :; }; done", "1\n", 0},
		// set -u turned on between two runs of the same bare-$name words,
		// in argument and in assignment position.
		{"f() { echo got:$v; }; v=1; f; unset v; f; set -u; f; echo unreached", "got:1\ngot:\n", 1},
		{"f() { echo $v; }; f; set -u; f; echo unreached", "\n", 1},
		{"f() { y=$v; echo y=$y; }; f; set -u; f; echo unreached", "y=\n", 1},
	}
	for _, c := range scripts {
		assertAgree(t, c, nil)
	}
}

// TestNoCompileUsesNoPrecomputedResult poisons everything a plan
// precomputes — static fields, the variable a bare $name resolves, the
// compiled arithmetic, the resolved builtin — and checks the poison shows
// with the fast paths on (so it sits where they read) and never under
// NoCompile, which must derive every result from the words themselves.
func TestNoCompileUsesNoPrecomputedResult(t *testing.T) {
	simple := func(src string) *syntax.SimpleCommand {
		t.Helper()
		script, err := syntax.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		return script.Stmts[0].AndOr.First.Cmds[0].(*syntax.SimpleCommand)
	}
	newInterp := func(noCompile bool) *Interp {
		in := New(vfs.New())
		in.NoCompile = noCompile
		in.Setenv("v", "real")
		in.Setenv("other", "POISON")
		return in
	}
	pick := func(noCompile bool, fast, plain string) string {
		if noCompile {
			return plain
		}
		return fast
	}
	poisonArith, err := expand.CompileArithExpr("666")
	if err != nil {
		t.Fatal(err)
	}

	static := compileWordList(simple("echo a 'b c'").Args)
	static.fields = []string{"POISON"}
	mixed := compileWordList(simple("echo lit $v $((1+2))").Args)
	mixed.plans[1].field = "POISON"
	mixed.plans[2].varName = "other"
	mixed.plans[3].arith = poisonArith
	for _, tc := range []struct {
		plan        *wordListPlan
		fast, plain string
	}{
		{static, "POISON", "echo|a|b c"},
		{mixed, "echo|POISON|POISON|666", "echo|lit|real|3"},
	} {
		for _, noCompile := range []bool{false, true} {
			var x *expand.Expander
			fields, err := tc.plan.expand(newInterp(noCompile), &x)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := strings.Join(fields, "|"), pick(noCompile, tc.fast, tc.plain); got != want {
				t.Errorf("NoCompile=%v: fields %q, want %q", noCompile, got, want)
			}
		}
	}

	assigns := simple("a=lit b=$v c=$((1+2))").Assigns
	plans := []stringPlan{compileStringWord(assigns[0].Value), compileStringWord(assigns[1].Value), compileStringWord(assigns[2].Value)}
	plans[0].value = "POISON"
	plans[1].varName = "other"
	plans[2].arith = poisonArith
	for i, want := range []struct{ fast, plain string }{{"POISON", "lit"}, {"POISON", "real"}, {"666", "3"}} {
		for _, noCompile := range []bool{false, true} {
			var x *expand.Expander
			got, err := plans[i].expand(newInterp(noCompile), &x)
			if err != nil {
				t.Fatal(err)
			}
			if w := pick(noCompile, want.fast, want.plain); got != w {
				t.Errorf("NoCompile=%v: %s=%q, want %q", noCompile, assigns[i].Name, got, w)
			}
		}
	}

	// A builtin present when the command compiles and gone when it runs:
	// the resolved pointer still calls it, the run-time chain cannot.
	builtins["zzpinned"] = func(*Interp, []string) int { return 42 }
	dispatch := compileDispatch(simple("zzpinned"))
	delete(builtins, "zzpinned")
	for noCompile, want := range map[bool]int{false: 42, true: 127} {
		in := newInterp(noCompile)
		dispatch(in, []string{"zzpinned"})
		if in.Status != want {
			t.Errorf("NoCompile=%v: status %d, want %d", noCompile, in.Status, want)
		}
	}
}

// dashDeviations lists the scripts of TestControlFlowAgreesWithDash on
// which jash and dash are known to differ, each with the reason; a script
// not listed here must match dash exactly.
var dashDeviations = map[string]string{
	// (none today)
}

// TestControlFlowAgreesWithDash is the independent reference for the one
// implementation of control flow: the builtin-only scripts — nothing that
// touches the VFS — run through /bin/sh when that is dash, and stdout plus
// zero/non-zero status must match.
func TestControlFlowAgreesWithDash(t *testing.T) {
	if target, err := os.Readlink("/bin/sh"); err != nil || path.Base(target) != "dash" {
		t.Skip("/bin/sh is not dash")
	}
	scripts := []string{
		"echo hello world",
		"X=1; echo $X",
		"X=a Y=b; echo $X$Y",
		`X="two words"; echo "$X"`,
		"echo ${UNSET:-default}",
		"true && echo yes || echo no",
		"false && echo yes || echo no",
		"! true; echo $?",
		"! false; echo $?",
		"true | false; echo $?",
		"exit 3",
		"(exit 5); echo $?",
		"echo one; exit 7; echo two",
		"i=0; while [ $i -lt 5 ]; do echo $i; i=$((i+1)); done",
		"i=0; until [ $i -ge 3 ]; do echo $i; i=$((i+1)); done",
		"for x in a b c; do echo $x; done",
		"for x in; do echo $x; done; echo status=$?",
		"i=0; while [ $i -lt 10 ]; do i=$((i+1)); if [ $i -eq 4 ]; then break; fi; echo $i; done",
		"i=0; while [ $i -lt 6 ]; do i=$((i+1)); if [ $i -eq 3 ]; then continue; fi; echo $i; done",
		"for a in 1 2; do for b in x y; do if [ $b = y ]; then break 2; fi; echo $a$b; done; done",
		"for a in 1 2; do for b in x y; do if [ $b = y ]; then continue 2; fi; echo $a$b; done; done",
		"if true; then echo t; else echo f; fi",
		"if false; then echo t; else echo f; fi",
		"if false; then echo t; fi; echo $?",
		"if false; then echo a; elif true; then echo b; else echo c; fi",
		"case hello in h*) echo starts-h;; *) echo other;; esac",
		"case zebra in h*) echo starts-h;; *) echo other;; esac",
		"x=abc; case $x in a?c) echo matched;; esac",
		"case x in y) echo y;; esac; echo $?",
		"f() { echo in-f $1; return 4; }; f arg; echo $?",
		"f() { for x in 1 2 3; do echo $x; done; }; f; f",
		"g() { return 1; }; g || echo failed",
		"f() { while :; do return 3; done; }; f; echo $?",
		"n=0; while [ $n -lt 3 ]; do n=$((n+1)); done; echo $n",
		"{ echo a; false; }; echo $?",
		"while false; do :; done; echo $?",
		"echo $((2+3*4)) $((10/3)) $((10%3)) $((1 ? 10 : 20))",
		"x=0; echo $((0 && (x=5))) $x",
		"x=0; echo $((1 || (x=5))) $x",
		"x=0; echo $((1 ? x+=5 : (x+=7))) $x",
		"x=1; : $((x && (y=2))) $((x || (z=3))); echo ${y-unset} ${z-unset}",
		"echo $((1 || 1/0)) $((0 && 1/0)) $((0 ? 1/0 : 3))",
		"echo $((1/0)); echo unreached",
		"i=0; while [ $((i+=1)) -lt 4 ]; do echo $i; done",
		"i=8; while [ $((i>>=1)) -gt 0 ]; do echo $i; done; echo $i",
		"x=6; echo $((x<<=2)) $((x|=1)) $((x&=12)) $((x^=5)) $((x>>=1)) $x",
		"readonly r=1; : $((r=2)); echo $r",
		"readonly r; : ${r:=2}; echo $r",
		"readonly r=1; echo $((0 && (r=2))) ${r:=3}",
		"readonly r=1; for r in a b; do echo $r; done; echo unreached",
		"readonly r=1; echo x | read r || echo refused; echo $r",
		"readonly r=1; r=2 true; echo unreached",
		"readonly r=1; export r=3; echo unreached",
		"readonly r=1; readonly r=5; echo unreached",
		"f() { local r=4; echo in; }; readonly r=1; f; echo unreached",
		// (`cd /t & pwd` needs a directory both sides have: see
		// TestCompiledDifferentialSubshells.)
		`echo $((x=5)) & wait; echo "x=$x"`,
		`x=1 & echo "[$x]"`,
		"exit 3 & echo alive $?",
		"set -e; false; echo unreached",
		"set -e; false || echo guarded; echo after",
		"set -e; if false; then echo t; fi; echo survived",
		"set -e; while false; do echo body; done; echo survived",
		"set -e; ! false; echo survived",
		"set -e; f() { false; echo in-f; }; f; echo unreached",
		"set -e; (false; echo in-sub); echo unreached",
	}
	for _, src := range scripts {
		cOut, _, cStatus, _, _, _ := runBoth(t, src, nil)
		cmd := osexec.Command("/bin/sh", "-c", src)
		cmd.Env = []string{"LC_ALL=C", "PATH=/nonexistent"}
		var out bytes.Buffer
		cmd.Stdout = &out
		err := cmd.Run()
		var exit *osexec.ExitError
		if err != nil && !errors.As(err, &exit) {
			t.Fatalf("%q: dash did not run: %v", src, err)
		}
		if why, ok := dashDeviations[src]; ok {
			t.Logf("%q: accepted deviation: %s", src, why)
			continue
		}
		if cOut != out.String() || (cStatus == 0) != (err == nil) {
			t.Errorf("%q: jash %q status %d; dash %q err %v", src, cOut, cStatus, out.String(), err)
		}
	}
}
