package interp

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	osexec "os/exec"
	"path"
	"path/filepath"
	"runtime"
	"slices"
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
		// The arm sees the $? from before the case (dash's reading where
		// bash lets the word's substitution set it); no match sets 0.
		{"false; case x in x) echo $? ;; esac", "1\n", 0},
		{`false; case $(exit 3) in "") echo $? ;; esac`, "1\n", 0},
		{"false; case x in y) ;; esac; echo $?", "0\n", 0},
		{"false; case x in x) ;; esac; echo $?", "0\n", 0},
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
		// IFS splits expansions, never literal text (as dash).
		{`IFS=c; echo echoed`, "echoed\n", 0},
		{`IFS=c; X=abcd; echo $X`, "ab d\n", 0},
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
		// return inside a subshell ends the subshell, never the function
		// around it: ( ), &, $( ) and a pipeline stage.
		{`f() { (return 3); echo "after-sub $?"; true & wait; echo end; }; f; echo "status $?"`, "after-sub 3\nend\nstatus 0\n", 0},
		{`g() { return 4; }; f() { ( g; echo "in-sub $?"; return 5 ); echo "after $?"; }; f`, "in-sub 4\nafter 5\n", 0},
		{`f() { { return 8; } & wait; echo "bg $?"; }; f; echo "st $?"`, "bg 0\nst 0\n", 0},
		{`f() { echo $(return 6; echo no) "cs $?"; }; f; echo "st $?"`, "cs 0\nst 0\n", 0},
		{`f() { true | return 7; echo "pipe $?"; }; f; echo "st $?"`, "pipe 7\nst 0\n", 0},
		{"(return 3); echo top $?", "top 3\n", 0},
		// return in a trap action ends the action; the status the shell
		// leaves with is the one it had before the trap.
		{`trap 'echo t; return 3; echo no' EXIT; echo hi`, "hi\nt\n", 0},
		{`trap 'return 3' EXIT; false`, "", 1},
		{`trap 'echo t; return 3' EXIT; echo hi; exit 5`, "hi\nt\n", 5},
		{`f() { trap 'echo t; return 3; echo no' EXIT; exit 5; }; f; echo after $?`, "t\n", 5},
		{`f() { trap 'echo t; return 3' EXIT; }; f; echo after $?`, "after 0\nt\n", 0},
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

// planFallbackCases has one row for each place a word plan once handed
// the word back to the expander, or must not: an unset name under set -u
// (in every plan kind, trims and lengths included), a changed IFS, a
// backslash in an unquoted value (data, as in dash), glob characters in a
// literal, quoted and escaped case patterns, and trims whose pattern is
// partly quoted.
var planFallbackCases = []diffCase{
	{`set -u; f() { echo "$u"; }; f; echo unreached`, "", 1},
	{`set -- a; set -u; echo "$1"; echo "$2"; echo unreached`, "a\n", 1},
	{`set -u; t=${u##*/}; echo unreached`, "", 1},
	{`set -u; q=/api/$u; echo unreached`, "", 1},
	{`set -u; case "$u" in *) echo unreached ;; esac`, "", 1},
	{`set -u; echo ${#u}; echo unreached`, "", 1},
	{`set -u; u=; t=${u%x}; echo "[$t]" ${#u}`, "[] 0\n", 0},
	{`x=a:b; IFS=:; echo "$x" $x; y=/p/$x; echo "$y"; set -- "a b:c"; echo "$1" $1`, "a:b a b\n/p/a:b\na b:c a b c\n", 0},
	{`x='a\b'; y=$x; z="$x"; w=/p/$x; t=${x#a}; printf '%s|' "$y" "$z" "$w" "$t" $x; echo`, "a\\b|a\\b|/p/a\\b|\\b|a\\b|\n", 0},
	{`echo [ab]* [ "[" '[ab]*'; x='[ab]*'; echo "$x" $x`, "a1 b2 [ [ [ab]*\n[ab]* a1 b2\n", 0},
	{`for w in x '*'; do case $w in "*") echo dq;; esac; case $w in '*') echo sq;; esac; case $w in \*) echo bs;; esac; case $w in *) echo any;; esac; done`, "any\ndq\nsq\nbs\nany\n", 0},
	{`x='*'; y='a*.c'; for w in abc '*' a.c 'a*'; do case $w in "$x") echo "$w:q";; "${y%.c}") echo "$w:t";; $x) echo "$w:u";; esac; done`, "abc:u\n*:q\na.c:u\na*:t\n", 0},
	{`x=; set -- $x"" ""$x; echo $#; set -- $x; echo $#; [ $1"" = "" ] && echo empty`, "2\n0\nempty\n", 0},
	{`set -u; echo ${u%x}; echo unreached`, "", 1},
	{`f=/d/a.b; IFS=.; echo ${f##*/} "${f##*/}"; IFS=' '; x='a\b c'; echo ${x%c} "${x%c}"`, "a b a.b\na\\b a\\b \n", 0},
	{`f=/d/a.b.txt; a=${f%".txt"}; b=${f%'.'*}; c="${f##*"/"}"; d=${f%%"*"}; e=${f%\*}; g=${f#*[/]}; echo $a $b $c $d $e $g`, "/d/a.b /d/a.b a.b.txt /d/a.b.txt /d/a.b.txt d/a.b.txt\n", 0},
	// A lone quoted read ("$x", "${x}", "$1") is its value, one field,
	// read off the plan: unset, unset under set -u, empty, holding IFS
	// characters, `*` and `\`; "$@" is not one, and as a case pattern
	// "$x" still matches only itself.
	{`unset x; set -- "$x" "${x}"; echo $# "[$1]"`, "2 []\n", 0},
	{`set -u; unset x; echo "$x"; echo unreached`, "", 1},
	{`set -u; set -- a; echo "${1}"; echo "${2}"; echo unreached`, "a\n", 1},
	{`x=; set -- "$x" "${x}" "$x"; echo $# "[$1$2$3]"`, "3 []\n", 0},
	{`x='a b*  c\d'; IFS=' *'; printf '[%s]' "$x" "${x}"; set -- "$x"; echo $#`, "[a b*  c\\d][a b*  c\\d]1\n", 0},
	{`set -- 'p q' '*'; x='[ab]*'; printf '[%s]' "$1" "${2}" "$x" "${x}"; echo`, "[p q][*][[ab]*][[ab]*]\n", 0},
	{`set -- 'a b' '' c; printf '[%s]' "$@"; echo; set --; printf '[%s]' "$@" "$*"; echo`, "[a b][][c]\n[]\n", 0},
	{`x='*'; case '*' in "$x") echo lit;; esac; case abc in "$x") echo m;; "${x}") echo m;; *) echo n;; esac`, "lit\nn\n", 0},
}

// TestCompiledDifferentialPlanFallbacks runs planFallbackCases with plans
// cached and compiled afresh.
func TestCompiledDifferentialPlanFallbacks(t *testing.T) {
	seed := func(fs *vfs.FS) {
		for _, f := range []string{"/a1", "/b2", "/c3"} {
			fs.WriteFile(f, nil)
		}
	}
	for _, c := range planFallbackCases {
		assertAgree(t, c, seed)
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
		// IFS changes after the statement's first execution: the bare-$name
		// shortcut is valid only under the default IFS (literal text is
		// never split).
		{"x=1:2; f() { echo a:b $x; }; f; IFS=:; f", "a:b 1:2\na:b 1 2\n", 0},
		{"f() { y=$((6*7)); echo $((6*7)) \"$y\"; }; f; IFS=4; f", "42 42\n 2 42\n", 0},
		// A function defined later shadows a utility name this statement
		// has already dispatched once.
		{"for i in 1 2; do basename /x/y; basename() { echo shadow $1; }; done", "y\nshadow /x/y\n", 0},
		{"for i in 1 2; do echo $i; echo() { :; }; done", "1\n", 0},
		// ... and unset -f uncovers it again; unset without -f is the
		// variable's, never the function's.
		{"basename() { echo shadow $1; }; for i in 1 2; do basename /x/y; unset -f basename; done", "shadow /x/y\ny\n", 0},
		{"f() { echo hi; }; unset -f f; f; echo $?", "127\n", 0},
		{`x=1; x() { :; }; unset -f x; echo "[$x]"; x; echo $?`, "[1]\n127\n", 0},
		{`f() { echo hi; }; f=3; unset f; f; echo "[$f]"`, "hi\n[]\n", 0},
		{"f() { echo hi; }; unset -v f; f", "hi\n", 0},
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

// TestNoCompileUsesNoPrecomputedResult poisons everything compiling
// precomputes — a static list's fields, each word's cached *expand.Plan
// (replaced by the plan of another word: static text, a lone `[`, $name,
// "$name", $1, arithmetic, a joined word, a trim, a case pattern), the
// resolved builtin — and checks the poison shows with caching on (so it
// sits where the run reads) and never under NoCompile, which must derive
// every result from the words themselves.
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
		in.Params = []string{"p1"}
		return in
	}
	pick := func(noCompile bool, fast, plain string) string {
		if noCompile {
			return plain
		}
		return fast
	}
	// poison caches, in place of each word's plan, the plan of the word
	// of the same index in src.
	poison := func(plans []expand.Plan, src string) {
		for i, w := range simple(src).Args {
			if i > 0 {
				plans[i] = expand.Compile(w)
			}
		}
	}

	static := compileWordList(simple("echo a 'b c'").Args)
	static.fixed = []string{"POISON"}
	mixed := compileWordList(simple(`echo lit $v $((1+2)) "$v" "$1" [`).Args)
	poison(mixed.plans, `echo POISON $other 666 "$other" "$other" POISON`)
	for _, tc := range []struct {
		list        wordList
		fast, plain string
	}{
		{static, "POISON", "echo|a|b c"},
		{mixed, "echo|POISON|POISON|666|POISON|POISON|POISON", "echo|lit|real|3|real|p1|["},
	} {
		for _, noCompile := range []bool{false, true} {
			in := newInterp(noCompile)
			fields, err := tc.list.expand(in, in.expander())
			if err != nil {
				t.Fatal(err)
			}
			if got, want := strings.Join(fields, "|"), pick(noCompile, tc.fast, tc.plain); got != want {
				t.Errorf("NoCompile=%v: fields %q, want %q", noCompile, got, want)
			}
		}
	}

	// Each assignment value's plan is the plan of the poisoned word of the
	// same index, and the case pattern a*'s that of P*.
	assigns := simple(`a=lit b=$v c=$((1+2)) d=/api/$v e=${v##r} f="$1"`).Assigns
	poisoned := simple(`: POISON $other 666 /api/$other ${v##re} "$other"`).Args
	pattern := simple(": a* P*").Args
	for i, want := range []struct{ fast, plain string }{
		{"POISON", "lit"}, {"POISON", "real"}, {"666", "3"}, {"/api/POISON", "/api/real"}, {"al", "eal"}, {"POISON", "p1"}, {"P*", "a*"},
	} {
		w, plan, mode := pattern[1], expand.Compile(pattern[2]), expand.Pattern
		if i < len(assigns) {
			w, plan, mode = assigns[i].Value, expand.Compile(poisoned[i+1]), expand.String
		}
		for _, noCompile := range []bool{false, true} {
			in := newInterp(noCompile)
			got, err := in.str(in.expander(), &plan, w, mode)
			if err != nil {
				t.Fatal(err)
			}
			if want := pick(noCompile, want.fast, want.plain); got != want {
				t.Errorf("NoCompile=%v: %s expands to %q, want %q", noCompile, syntax.PrintWord(w), got, want)
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

// TestPerCommandFloorAllocates pins what the commands of a tight loop cost
// the allocator once they are compiled and the arithmetic cache is warm:
// the interpreter's one expander is refreshed, not rebuilt; an assignment
// with no redirections builds no cleanup; and a $((...)) whose text has
// expansions is never parsed again — the bound for those rows is what
// evaluating and formatting the number costs. The script_mix loop's own
// commands follow, with the fast paths on (fast) and off (plain): a
// command's field list is the one allocation a compiled `[` or function
// call makes, a joined word's string the one a compiled `q=/api/$t` makes,
// and a redirection costs the one writer it opens.
// cloneSink keeps the clones TestPerCommandFloorAllocates makes, so that
// they are allocated as the interpreter allocates them.
var cloneSink *Interp

func TestPerCommandFloorAllocates(t *testing.T) {
	for _, noCompile := range []bool{false, true} {
		in := New(vfs.New())
		in.NoCompile = noCompile
		in.Setenv("x", "/a/b")
		in.Setenv("kind", "static")
		in.Setenv("f", "/logs/f01")
		in.expander()
		if n := testing.AllocsPerRun(100, func() { in.expander() }); n != 0 {
			t.Errorf("NoCompile=%v: expander() allocates %v times", noCompile, n)
		}
		classify, err := syntax.Parse(`classify() { case "$1" in /api/*) kind=api ;; /static/*) kind=static ;; *) kind=page ;; esac; }`)
		if err != nil {
			t.Fatal(err)
		}
		in.compiledStmt(classify.Stmts[0])(in)
		for _, c := range []struct {
			src         string
			fast, plain float64
		}{
			{"i=5", 0, 0},
			{"t=$x", 0, 0},
			{`t="$x"`, 0, 0},
			{"i=$((i + 1))", 1, 1},
			{"total=$((total + ${#kind}))", 2, 2},
			{`[ "$i" -lt 100 ]`, 0, 7},
			{`t=${f##*/}`, 0, 1},
			{`q=/api/$t`, 1, 1},
			{"case $((i % 3)) in 0) q=/api/$t ;; 1) q=/static/$t ;; *) q=/$t ;; esac", 1, 4},
			{`classify "$q"`, 0, 6},
			// A redirection costs the writer it opens, and nothing else.
			{": >/dev/null", 1, 2},
			{`echo $q $t "$kind"`, 2, 5},
			{`echo $q $t "$kind" >/dev/null`, 3, 6},
		} {
			script, err := syntax.Parse(c.src)
			if err != nil {
				t.Fatal(err)
			}
			fn := in.compiledStmt(script.Stmts[0])
			bound := c.fast
			if noCompile {
				bound = c.plain
			}
			if n := testing.AllocsPerRun(100, func() { fn(in) }); n > bound {
				t.Errorf("NoCompile=%v: %q allocates %v times, want at most %v", noCompile, c.src, n, bound)
			}
		}
	}

	// A clone shares the tables it does not write: it costs the same with
	// 10 variables and functions as with 1,000.
	cloneCost := func(n int) (allocs float64, bytes uint64) {
		in := New(vfs.New())
		for i := 0; i < n; i++ {
			in.Setenv(fmt.Sprintf("v%d", i), "value")
			in.defineFunc(fmt.Sprintf("f%d", i), &syntax.BraceGroup{})
		}
		allocs = testing.AllocsPerRun(100, func() { cloneSink = in.subshell() })
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < 100; i++ {
			cloneSink = in.subshell()
		}
		runtime.ReadMemStats(&after)
		return allocs, (after.TotalAlloc - before.TotalAlloc) / 100
	}
	smallAllocs, smallBytes := cloneCost(10)
	bigAllocs, bigBytes := cloneCost(1000)
	if bigAllocs > smallAllocs || bigBytes > smallBytes+64 {
		t.Errorf("subshell() costs %v allocations, %d bytes with 1,000 variables and functions; %v, %d with 10",
			bigAllocs, bigBytes, smallAllocs, smallBytes)
	}

	// Every command pops its fields off the argv stack, however it ends:
	// 10,000 breaks, continues, returns and exits leave it empty.
	for _, src := range []string{
		`i=0; while [ "$i" -lt 10000 ]; do i=$((i + 1)); while :; do break $one; done; done`,
		`i=0; while [ "$i" -lt 10000 ]; do i=$((i + 1)); for w in a "$i"; do break $one; done; done`,
		`i=0; while [ "$i" -lt 10000 ]; do i=$((i + 1)); continue $one; done`,
		`f() { return "$zero"; }; i=0; while [ "$i" -lt 10000 ]; do i=$((i + 1)); f "$i"; done`,
		`f() { for w in a "$1"; do return $zero; done; }; i=0; while [ "$i" -lt 10000 ]; do i=$((i + 1)); f "$i"; done`,
	} {
		in := New(vfs.New())
		in.Setenv("one", "1")
		in.Setenv("zero", "0")
		if _, err := in.RunScript(src); err != nil {
			t.Fatalf("%q: %v", src, err)
		}
		if len(in.argv) != 0 || cap(in.argv) > 16 {
			t.Errorf("%q leaves the argv stack at %d fields (capacity %d), want 0", src, len(in.argv), cap(in.argv))
		}
	}
	in := New(vfs.New())
	in.Setenv("s", "3")
	exit, err := syntax.Parse(`echo $s; exit $s`)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10000; i++ {
		if status, err := in.RunStmts(exit.Stmts); status != 3 || err != nil {
			t.Fatalf("exit: status %d, %v", status, err)
		}
	}
	if len(in.argv) != 0 || cap(in.argv) > 16 {
		t.Errorf("10,000 exits leave the argv stack at %d fields (capacity %d), want 0", len(in.argv), cap(in.argv))
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
		`x='*'; y=a.c; case abc in "$x") echo m;; *) echo n;; esac; case a in "${y%.c}") echo t;; esac`,
		`HOME=/h; unset u; echo ~ ~/a ~x "~" ${u-~} ${u:-~/x} "${u-~}" ${u=~/b} $u; HOME=; echo ~`,
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
		"false; case x in x) echo $? ;; esac",
		`false; case $(exit 3) in "") echo $? ;; esac`,
		"false; case x in y) ;; esac; echo $?",
		"false; case x in x) ;; esac; echo $?",
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
		`f() { (return 3); echo "after-sub $?"; true & wait; echo end; }; f; echo "status $?"`,
		`g() { return 4; }; f() { ( g; echo "in-sub $?"; return 5 ); echo "after $?"; }; f`,
		`f() { { return 8; } & wait; echo "bg $?"; }; f; echo "st $?"`,
		`f() { echo $(return 6; echo no) "cs $?"; }; f; echo "st $?"`,
		`f() { true | return 7; echo "pipe $?"; }; f; echo "st $?"`,
		"(return 3); echo top $?",
		`trap 'echo t; return 3; echo no' EXIT; echo hi`,
		`trap 'return 3' EXIT; false`,
		`trap 'echo t; return 3' EXIT; echo hi; exit 5`,
		`f() { trap 'echo t; return 3; echo no' EXIT; exit 5; }; f; echo after $?`,
		`f() { trap 'echo t; return 3' EXIT; }; f; echo after $?`,
		"f() { echo hi; }; unset -f f; f; echo $?",
		`x=1; x() { :; }; unset -f x; echo "[$x]"; x; echo $?`,
		`f() { echo hi; }; f=3; unset f; f; echo "[$f]"`,
		"f() { echo hi; }; unset -v f; f",
		"set -e; false; echo unreached",
		"set -e; false || echo guarded; echo after",
		"set -e; if false; then echo t; fi; echo survived",
		"set -e; while false; do echo body; done; echo survived",
		"set -e; ! false; echo survived",
		"set -e; f() { false; echo in-f; }; f; echo unreached",
		"set -e; (false; echo in-sub); echo unreached",
		// set -u covers every form that does not provide for unset.
		"set -u; echo ${x#a}; echo unreached",
		"set -u; t=${x##*/}; echo unreached",
		"set -u; echo ${x%b}${x%%b}; echo unreached",
		"set -u; echo ${#x}; echo unreached",
		"set -u; case ${x%%a} in *) echo unreached ;; esac",
		`set -u; x=; echo "[${x%a}]" ${#x} ${y-d} ${y+a}`,
		// "" is a field of its own next to an empty expansion.
		`x=; set -- $x"" ""$x "$x"; echo $#; [ $1"" = "" ] && echo empty`,
		`set -- a b; set --; echo $# "[$1]"; set -- a; set -e --; echo $#`,
		// Quoting is resolved by the parser: only an expansion's unquoted
		// result is split, and a backslash in it is data, an escape only
		// in a pattern.
		`x='a\b'; y=$x; printf '%s|' "$y" $x`,
		`x='a\ b'; printf '%s|' $x`,
		`IFS=:; x=1; printf '%s|' a:b$x`,
		`x='a\b'; case $x in 'a\b') echo match;; *) echo nomatch;; esac`,
		`printf '%s|' a\ b "a\$b" 'c\d' \\ "\\" "\q"`,
		`x='a\\b'; case 'a\b' in $x) echo match;; *) echo nomatch;; esac`,
		`x='a\'; printf '%s|' $x`,
		// A lone quoted read is its value, one field.
		`unset x; set -- "$x" "${x}"; echo $# "[$1]"`,
		`set -u; unset x; echo "$x"; echo unreached`,
		`set -u; set -- a; echo "${1}"; echo "${2}"; echo unreached`,
		`x=; set -- "$x" "${x}" "$x"; echo $# "[$1$2$3]"`,
		`x='a b*  c\d'; IFS=' *'; printf '[%s]' "$x" "${x}"; set -- "$x"; echo $#`,
		`set -- 'p q' '*'; x='[ab]*'; printf '[%s]' "$1" "${2}" "$x" "${x}"; echo`,
		`set -- 'a b' '' c; printf '[%s]' "$@"; echo; set --; printf '[%s]' "$@" "$*"; echo`,
		`x='*'; case '*' in "$x") echo lit;; esac; case abc in "$x") echo m;; "${x}") echo m;; *) echo n;; esac`,
		// break and continue in a loop's condition act on that loop.
		"while break; do :; done; echo after $?",
		"false; until break; do :; done; echo $?",
		"for i in 1 2; do while echo c$i; break 2; do :; done; done; echo $?",
		"i=0; while i=$((i+1)); [ $i = 2 ] && continue; [ $i -lt 4 ]; do echo b$i; done; echo end $i",
		"set -e; for i in 1 2; do while break; do :; done; done; false; echo unreached",
	}
	// A closed pipe stops its writer: dash's stage dies at the first write
	// after its reader has gone (SIGPIPE), so its loop never reaches the
	// "ended" line. Both shells must stop there and say nothing.
	closedReader := []string{
		`{ i=0; while [ $i -lt 300000 ]; do echo x || break; i=$((i+1)); done; echo "ended i=$i" >&2; } | { read l; echo "got $l"; }`,
		`{ i=0; while [ $i -lt 300000 ]; do printf 'x\n' || break; i=$((i+1)); done; echo "ended i=$i" >&2; } | { read l; echo "got $l"; }`,
	}
	// Pathname expansion names each match as the pattern spells it. These
	// run where d holds a file f and directories s1 and s2, on both sides.
	globbed := []string{
		"cd d; echo ./*",
		"cd d; echo */..",
		"cd d; echo s1/../f*",
	}
	tree := t.TempDir()
	for _, p := range []string{"d/s1", "d/s2"} {
		if err := os.MkdirAll(filepath.Join(tree, p), 0o755); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(filepath.Join(tree, "d/f"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	seedTree := func(fs *vfs.FS) {
		fs.MkdirAll("/d/s1")
		fs.MkdirAll("/d/s2")
		fs.WriteFile("/d/f", nil)
	}
	for _, src := range slices.Concat(scripts, closedReader, globbed) {
		var seed func(*vfs.FS)
		cmd := osexec.Command("/bin/sh", "-c", src)
		if slices.Contains(globbed, src) {
			seed, cmd.Dir = seedTree, tree
		}
		cOut, cErr, cStatus, _, pErr, _ := runBoth(t, src, seed)
		cmd.Env = []string{"LC_ALL=C", "PATH=/nonexistent"}
		var out, errs bytes.Buffer
		cmd.Stdout, cmd.Stderr = &out, &errs
		err := cmd.Run()
		if slices.Contains(closedReader, src) && (cErr != "" || pErr != "" || errs.Len() > 0) {
			t.Errorf("%q: stderr jash %q (plain %q), dash %q; want nothing", src, cErr, pErr, errs.String())
		}
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
