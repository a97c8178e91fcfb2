package lint

import (
	"strings"
	"testing"
)

// --- JSH401: use before assign ---

func TestUseBeforeAssignFlagged(t *testing.T) {
	fs := findings(t, "echo $X\nX=1\necho $X\n")
	if !hasCode(fs, "JSH401") {
		t.Errorf("use-before-assign not flagged: %s", codesOf(fs))
	}
	for _, f := range fs {
		if f.Code == "JSH401" && f.Pos.Line != 1 {
			t.Errorf("JSH401 at line %d, want 1", f.Pos.Line)
		}
	}
}

func TestUseBeforeAssignQuietCases(t *testing.T) {
	for _, src := range []string{
		"X=1\necho $X\n",                         // correct order
		"echo $NEVER_ASSIGNED\n",                 // environment variable
		"echo ${X:-fallback}\nX=1\n",             // guarded use
		"PATH=$PATH:/opt/bin\n",                  // self-reference
		"echo $HOME\nHOME=/tmp\n",                // ambient allowlist
		"n=$((n+1))\necho $n\n",                  // arithmetic counter
		"while read l; do\n  t=\"$t$l\"\ndone\n", // loop-carried
	} {
		if fs := findings(t, src); hasCode(fs, "JSH401") {
			t.Errorf("JSH401 false positive on %q: %s", src, codesOf(fs))
		}
	}
}

// --- JSH402: dead assignment ---

func TestDeadAssignmentFlagged(t *testing.T) {
	for _, src := range []string{
		"X=1\nX=2\necho $X\n",
		"X=1\nsh -c 'echo $X'\nX=2\necho $X\n", // X is not exported: sh cannot see it
		"set -e\nX=1\nenv\nX=2\necho $X\n",     // -e exports nothing
	} {
		if fs := findings(t, src); !hasCode(fs, "JSH402") {
			t.Errorf("dead assignment not flagged on %q: %s", src, codesOf(fs))
		}
	}
}

func TestDeadAssignmentQuietCases(t *testing.T) {
	for _, src := range []string{
		"X=1\necho $X\nX=2\necho $X\n",                             // both used
		"X=1\nif true; then\n  X=2\nfi\necho $X\n",                 // conditional overwrite
		"X=$(date)\nX=2\necho $X\n",                                // value ran a command
		"f() {\n  local x\n  x=1\n  echo $x\n}\nf\n",               // local-then-assign idiom
		"f() { echo \"$X\"; }\nX=1\nf\nX=2\nf\n",                   // a call reads it
		"f() { g; }\ng() { echo \"$X\"; }\nX=1\nf\nX=2\nf\n",       // through a second function
		"IFS=:\nread a b <<EOF\nx:y\nEOF\nIFS=\" \"\necho $a $b\n", // read splits on IFS
		"PATH=/opt/bin\nmytool\nPATH=/usr/bin\n",                   // the command search reads PATH
		"HOME=/a\ncd\nHOME=/b\n",                                   // cd reads HOME
		"export X=0\nX=1\nenv\nX=2\n",                              // env reads the exported X
		"export X=0\nX=1\nexec env\nX=2\n",                         // so does a utility exec runs
		"set -a\nX=1\nenv\nX=2\n",                                  // set -a exports every name
		"LC_ALL=C\nsort f\nLC_ALL=en_US.UTF-8\n",                   // sort reads the inherited LC_ALL
	} {
		if fs := findings(t, src); hasCode(fs, "JSH402") {
			t.Errorf("JSH402 false positive on %q: %s", src, codesOf(fs))
		}
	}
}

// --- JSH403: subshell assignment lost with a later use ---

func TestSubshellAssignmentLostFlagged(t *testing.T) {
	fs := findings(t, "(X=1)\necho $X\n")
	if !hasCode(fs, "JSH403") {
		t.Errorf("subshell loss not flagged: %s", codesOf(fs))
	}
	fs = findings(t, "echo value | read X\necho $X\n")
	if !hasCode(fs, "JSH403") {
		t.Errorf("pipeline-stage loss not flagged: %s", codesOf(fs))
	}
}

func TestSubshellAssignmentQuietCases(t *testing.T) {
	for _, src := range []string{
		"(X=1)\necho done\n",        // no later use
		"(X=1)\nX=2\necho $X\n",     // parent redefines first
		"X=1\n(echo $X)\necho $X\n", // parent def used in subshell
	} {
		if fs := findings(t, src); hasCode(fs, "JSH403") {
			t.Errorf("JSH403 false positive on %q: %s", src, codesOf(fs))
		}
	}
	// The piped-while shape belongs to JSH302, not JSH403.
	fs := findings(t, "cat /f | while read x; do\n  n=$x\ndone\necho $n\n")
	if hasCode(fs, "JSH403") {
		t.Errorf("JSH403 double-reports the JSH302 shape: %s", codesOf(fs))
	}
	if !hasCode(fs, "JSH302") {
		t.Errorf("JSH302 missing on piped while: %s", codesOf(fs))
	}
}

// --- JSH404: cd invalidates relative paths ---

func TestCdInvalidatesRelativePath(t *testing.T) {
	fs := findings(t, "set -e\nwc -l data.txt\ncd /tmp\nwc -l data.txt\n")
	if !hasCode(fs, "JSH404") {
		t.Errorf("relative path across cd not flagged: %s", codesOf(fs))
	}
}

func TestCdRelativeQuietCases(t *testing.T) {
	for _, src := range []string{
		"set -e\nwc -l /abs/data.txt\ncd /tmp\nwc -l /abs/data.txt\n", // absolute
		"set -e\nwc -l a.txt\ncd /tmp\nwc -l b.txt\n",                 // different names
		"set -e\nwc -l data.txt\nwc -l data.txt\n",                    // no cd
		"set -e\ncd /tmp\nwc -l data.txt\nwc -l data.txt\n",           // both after cd
	} {
		if fs := findings(t, src); hasCode(fs, "JSH404") {
			t.Errorf("JSH404 false positive on %q: %s", src, codesOf(fs))
		}
	}
}

// --- suppression directives ---

func TestSuppressionSilencesFollowingLine(t *testing.T) {
	src := "F=\"a.txt b.txt\"\n# jashlint:disable=JSH202\ncat $F\n"
	if fs := findings(t, src); hasCode(fs, "JSH202") {
		t.Errorf("suppressed JSH202 still reported: %s", codesOf(fs))
	}
	// Without the directive the finding is there.
	if fs := findings(t, "F=\"a.txt b.txt\"\ncat $F\n"); !hasCode(fs, "JSH202") {
		t.Errorf("JSH202 baseline missing: %s", codesOf(fs))
	}
}

func TestSuppressionScopedToOneLineAndCode(t *testing.T) {
	// The directive covers only the next line...
	src := "F=\"a b\"\n# jashlint:disable=JSH202\ncat $F\ncat $F\n"
	fs := findings(t, src)
	count := 0
	for _, f := range fs {
		if f.Code == "JSH202" {
			count++
		}
	}
	if count != 1 {
		t.Errorf("JSH202 count = %d, want 1 (only line 4 unsuppressed): %v", count, fs)
	}
	// ...and only the named code.
	src = "# jashlint:disable=JSH206\nrm $DIR\n"
	if fs := findings(t, src); !hasCode(fs, "JSH201") {
		t.Errorf("unrelated code suppressed: %s", codesOf(fs))
	}
}

func TestSuppressionMultipleCodes(t *testing.T) {
	src := "F=\"a b\"\n# jashlint:disable=JSH202,JSH301\ncat $F | wc -l\n"
	fs := findings(t, src)
	if hasCode(fs, "JSH202") || hasCode(fs, "JSH301") {
		t.Errorf("multi-code suppression failed: %s", codesOf(fs))
	}
}

func TestUnknownSuppressionCodeReported(t *testing.T) {
	fs := findings(t, "# jashlint:disable=JSH999\necho fine\n")
	if !hasCode(fs, "JSH001") {
		t.Errorf("unknown suppression code not reported: %s", codesOf(fs))
	}
	for _, f := range fs {
		if f.Code == "JSH001" && f.Pos.Line != 1 {
			t.Errorf("JSH001 at line %d, want the directive line 1", f.Pos.Line)
		}
	}
}

func TestKnownCodesCoverEmittedCodes(t *testing.T) {
	for _, code := range []string{"JSH000", "JSH101", "JSH201", "JSH202", "JSH203",
		"JSH204", "JSH205", "JSH206", "JSH207", "JSH301", "JSH302", "JSH303",
		"JSH304", "JSH401", "JSH402", "JSH403", "JSH404", "JSH405", "JSH406",
		"JSH407"} {
		if !KnownCodes[code] {
			t.Errorf("KnownCodes missing %s", code)
		}
	}
}

// --- JSH405: cd-blocked parallel list ---

func TestCdBlockedParallelListFlagged(t *testing.T) {
	for _, src := range []string{
		"grep -c a /w0 >/o0; cd /tmp; grep -c b /w1 >/o1; cd /var; wc -l </w2 >/o2\n",
		// A call to a function is summarized, as the shell's planner does.
		"f() { echo hi; }\nf >/o0; cd /tmp; grep -c b /w1 >/o1; cd /var; wc -l </w2 >/o2\n",
	} {
		if fs := findings(t, src); !hasCode(fs, "JSH405") {
			t.Errorf("cd-blocked list %q not flagged: %s", src, codesOf(fs))
		}
	}
}

func TestCdBlockedParallelListQuietCases(t *testing.T) {
	for _, src := range []string{
		// The cd is load-bearing: a relative path follows it.
		"grep -c a /w0 >/o0; cd /tmp; grep -c b w1 >/o1; cd /var; wc -l </w2 >/o2\n",
		// No cd at all; the list is simply parallel (no diagnostic needed).
		"grep -c a /w0 >/o0; grep -c b /w1 >/o1\n",
		// Blocked by more than the cd (eval is an unconditional blocker).
		"grep -c a /w0 >/o0; cd /tmp; eval x; cd /var; grep -c b /w1 >/o1\n",
		// Statements on separate lines never form a runtime list.
		"grep -c a /w0 >/o0\ncd /tmp\ngrep -c b /w1 >/o1\ncd /var\nwc -l </w2 >/o2\n",
		// A statement calls a script-defined function that evals: pinned.
		"f() { eval hi; }\nf >/o0; cd /tmp; grep -c b /w1 >/o1; cd /var; wc -l </w2 >/o2\n",
	} {
		if fs := findings(t, src); hasCode(fs, "JSH405") {
			t.Errorf("JSH405 false positive on %q: %s", src, codesOf(fs))
		}
	}
}

// --- JSH406: proven word split ---

func TestProvenSplitFlagged(t *testing.T) {
	fs := findings(t, "F=\"a.txt b.txt\"\ncat $F\n")
	if !hasCode(fs, "JSH406") {
		t.Errorf("proven split not flagged: %s", codesOf(fs))
	}
	for _, f := range fs {
		if f.Code == "JSH406" && f.Pos.Line != 2 {
			t.Errorf("JSH406 at line %d, want 2", f.Pos.Line)
		}
	}
}

func TestProvenSplitVanishingArg(t *testing.T) {
	fs := findings(t, "F=\"\"\nls $F\n")
	if !hasCode(fs, "JSH406") {
		t.Errorf("vanishing argument not flagged: %s", codesOf(fs))
	}
}

func TestProvenSplitFiresWhereJSH202IsExempt(t *testing.T) {
	// `test` operands are out of JSH202's scope, but a proven split is a
	// definite arity break there.
	fs := findings(t, "V=\"x y\"\ntest $V = ok\n")
	if !hasCode(fs, "JSH406") {
		t.Errorf("proven split in test not flagged: %s", codesOf(fs))
	}
}

func TestProvenSplitQuietCases(t *testing.T) {
	for _, src := range []string{
		"F=\"a b\"\ncat \"$F\"\n",            // quoted: no split
		"F=single\ncat $F\n",                 // proven single word
		"cat $UNKNOWN\n",                     // ⊤ value: JSH202's territory
		"IFS=:\nF=\"a b\"\ncat $F\n",         // non-default IFS: model off
		"for f in $FILES; do cat $f; done\n", // for-words split by design
	} {
		if fs := findings(t, src); hasCode(fs, "JSH406") {
			t.Errorf("JSH406 false positive on %q: %s", src, codesOf(fs))
		}
	}
}

// --- JSH407: provably constant condition ---

func TestConstantConditionFlagged(t *testing.T) {
	for _, src := range []string{
		"x=no\nif [ \"$x\" = yes ]; then echo hi; fi\n",          // false equality
		"if false; then echo hi; fi\n",                           // literal false
		"n=3\nif [ $n -lt 2 ]; then echo hi; fi\n",               // numeric false
		"x=a\nif [ \"$x\" = a ]; then echo t; else echo f; fi\n", // true, dead else
		"while false; do echo hi; done\n",                        // dead while body
		"until true; do echo hi; done\n",                         // dead until body
		"if ! [ -z \"\" ]; then echo t; fi\n",                    // negated
		"if test yes != yes; then echo t; fi\n",                  // test spelling
	} {
		if fs := findings(t, src); !hasCode(fs, "JSH407") {
			t.Errorf("JSH407 missing on %q: %s", src, codesOf(fs))
		}
	}
}

// `==` is no operator of test: the expression is malformed, its status 2,
// and the else-branch is the one that runs, in dash as here.
func TestConstantConditionIsTestsVerdict(t *testing.T) {
	src := "if [ a == a ]; then echo t; else echo f; fi\n"
	fs := findings(t, src)
	if len(fs) != 1 || fs[0].Code != "JSH407" || !strings.Contains(fs[0].Message, "provably false") {
		t.Errorf("%q: %v, want one JSH407 saying the condition is provably false", src, fs)
	}
}

func TestConstantConditionQuietCases(t *testing.T) {
	for _, src := range []string{
		"if [ \"$1\" = yes ]; then echo hi; fi\n",                             // unknown positional
		"if [ -f /etc/passwd ]; then echo t; fi\n",                            // file test: not modeled
		"while true; do break; done\n",                                        // intentional forever-loop
		"if [ \"$x\" = yes ]; then echo hi; fi\n",                             // ⊤ variable
		"if grep -q a /f; then echo t; fi\n",                                  // command outcome unknown
		"x=yes\nif [ \"$x\" = yes ]; then echo t; fi\n",                       // true cond, no else: nothing dead
		"read x\nif [ \"$x\" = a ]; then echo t; fi\n",                        // read makes it ⊤
		"if [ -L /x ]; then echo t; fi\n",                                     // a primary test does not decide
		"if [ a -nt b ]; then echo t; fi\n",                                   // likewise, binary
		"test() { return 1; }\nif test a = a; then echo t; else echo f; fi\n", // a function runs
		"true() { return 1; }\nwhile true; do echo t; done\n",                 // likewise
	} {
		if fs := findings(t, src); hasCode(fs, "JSH407") {
			t.Errorf("JSH407 false positive on %q: %s", src, codesOf(fs))
		}
	}
}

// --- suppression status surfaced by LintSourceAll ---

func TestLintSourceAllMarksSuppressed(t *testing.T) {
	src := "F=\"a b\"\n# jashlint:disable=JSH202,JSH406\ncat $F\n"
	var saw202, saw406 bool
	for _, f := range New().LintSourceAll(src) {
		switch f.Code {
		case "JSH202":
			saw202 = true
		case "JSH406":
			saw406 = true
		default:
			continue
		}
		if !f.Suppressed {
			t.Errorf("%s not marked Suppressed", f.Code)
		}
	}
	if !saw202 || !saw406 {
		t.Errorf("LintSourceAll dropped suppressed findings (202=%v 406=%v)", saw202, saw406)
	}
	// LintSource still filters them.
	if fs := New().LintSource(src); hasCode(fs, "JSH202") || hasCode(fs, "JSH406") {
		t.Errorf("LintSource leaked suppressed findings: %s", codesOf(fs))
	}
}
