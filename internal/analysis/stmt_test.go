package analysis

import (
	"strings"
	"testing"

	"jash/internal/syntax"
)

func stmtOf(t *testing.T, src string) *syntax.Stmt {
	t.Helper()
	s := mustParse(t, src)
	if len(s.Stmts) != 1 {
		t.Fatalf("%q parsed to %d statements, want 1", src, len(s.Stmts))
	}
	return s.Stmts[0]
}

func summarize(t *testing.T, src string) *StmtSummary {
	t.Helper()
	return SummarizeStmt(stmtOf(t, src), lib())
}

func TestSummarizeStmtEligible(t *testing.T) {
	for _, src := range []string{
		"grep -c alpha /w0 >/o0",
		"cat /w1 | tr a-z A-Z | wc -l >/o1",
		"x=5",
		"echo done >>/log",
		"sort </in >/out",
	} {
		ss := summarize(t, src)
		if !ss.Eligible() {
			t.Errorf("%q blocked: %v", src, ss.Blockers)
		}
	}
}

func TestSummarizeStmtBlockers(t *testing.T) {
	cases := map[string]string{
		"cd /tmp":                "cd",
		"grep x /a && echo ok":   "&&",
		"x=$(date)":              "substitution",
		"echo $?":                "$?",
		"echo $$":                "$$",
		"read line </in; echo":   "", // parsed as two stmts; see below
		"wc -l":                  "stdin",
		"frobnicate /a":          "⊤",
		"if true; then echo; fi": "compound",
		"echo ${x?unset}":        "abort",
		"export PATH=/bin":       "export",
		"eval \"$cmd\"":          "eval",
		"grep x /a & ":           "background",
		"trap 'echo' EXIT":       "trap",
		"getopts ab opt":         "getopts",
		"local v=1":              "local",
	}
	for src, want := range cases {
		if want == "" {
			continue
		}
		s := mustParse(t, src)
		ss := SummarizeStmt(s.Stmts[0], lib())
		if ss.Eligible() {
			t.Errorf("%q unexpectedly eligible", src)
			continue
		}
		found := false
		for _, b := range ss.Blockers {
			if strings.Contains(b, want) {
				found = true
			}
		}
		if !found {
			t.Errorf("%q blockers %v missing %q", src, ss.Blockers, want)
		}
	}
}

func TestSummarizeStmtStdinRedirectionUnblocks(t *testing.T) {
	if ss := summarize(t, "wc -l </in >/out"); !ss.Eligible() {
		t.Fatalf("redirected wc blocked: %v", ss.Blockers)
	}
}

func TestSummarizeStmtDefsAndUses(t *testing.T) {
	ss := summarize(t, "x=$y")
	if !ss.Defs["x"] || !ss.Uses["y"] {
		t.Fatalf("x=$y: defs=%v uses=%v", ss.Defs, ss.Uses)
	}
	ss = summarize(t, "echo $a ${b-default} >/o")
	if len(ss.Defs) != 0 || !ss.Uses["a"] || !ss.Uses["b"] {
		t.Fatalf("echo: defs=%v uses=%v", ss.Defs, ss.Uses)
	}
	// Temp-env assignment scopes to the command: no persistent def.
	ss = summarize(t, "FOO=$bar env >/o")
	if ss.Defs["FOO"] || !ss.Uses["bar"] {
		t.Fatalf("temp-env: defs=%v uses=%v", ss.Defs, ss.Uses)
	}
	// Arithmetic reads what it names and defines only what it assigns.
	ss = summarize(t, "echo $((n+1)) >/o")
	if ss.Defs["n"] || !ss.Uses["n"] || len(ss.Blockers) != 0 {
		t.Fatalf("arith read: defs=%v uses=%v blockers=%v", ss.Defs, ss.Uses, ss.Blockers)
	}
	ss = summarize(t, "echo $((n+=m)) >/o")
	if !ss.Defs["n"] || ss.Defs["m"] || !ss.Uses["n"] || !ss.Uses["m"] {
		t.Fatalf("arith assign: defs=%v uses=%v", ss.Defs, ss.Uses)
	}
	// Text that is not an expression until expanded could assign anything.
	ss = summarize(t, "echo $((${n}+1)) >/o")
	if len(ss.Blockers) == 0 {
		t.Fatalf("unexpanded arith: no blocker (defs=%v uses=%v)", ss.Defs, ss.Uses)
	}
	// ${x=w} assigns persistently.
	ss = summarize(t, "echo ${x=5} >/o")
	if !ss.Defs["x"] {
		t.Fatalf("${x=5}: defs=%v", ss.Defs)
	}
}

func TestSummarizeStmtCdOnly(t *testing.T) {
	if ss := summarize(t, "cd /build"); !ss.CdOnly {
		t.Fatal("bare cd not marked CdOnly")
	}
	if ss := summarize(t, "cd /build >/log"); ss.CdOnly {
		t.Fatal("cd with redirection marked CdOnly")
	}
}

func TestInterferesVariables(t *testing.T) {
	a := summarize(t, "x=1")
	b := summarize(t, "echo $x >/o")
	if hz := Interferes(a, b, "a", "b", "/"); len(hz) == 0 {
		t.Fatal("def-use overlap on x not reported")
	}
	c := summarize(t, "x=2")
	if hz := Interferes(a, c, "a", "c", "/"); len(hz) == 0 {
		t.Fatal("def-def overlap on x not reported")
	}
	d := summarize(t, "echo $y >/p")
	if hz := Interferes(a, d, "a", "d", "/"); len(hz) != 0 {
		t.Fatalf("disjoint variables reported: %v", hz)
	}
}

func TestInterferesFilesystem(t *testing.T) {
	a := summarize(t, "grep x /in >/shared")
	b := summarize(t, "grep y /in >/shared")
	if hz := Interferes(a, b, "a", "b", "/"); len(hz) == 0 {
		t.Fatal("write-write on /shared not reported")
	}
	c := summarize(t, "wc -l /shared >/other")
	if hz := Interferes(a, c, "a", "c", "/"); len(hz) == 0 {
		t.Fatal("read-after-write on /shared not reported")
	}
	// Disjoint reads of a common input are fine.
	d := summarize(t, "grep z /in >/third")
	if hz := Interferes(b, d, "b", "d", "/"); len(hz) != 0 {
		t.Fatalf("read-read sharing reported: %v", hz)
	}
}

func TestInterferesRelativePathsNormalize(t *testing.T) {
	a := summarize(t, "grep x in.txt >/o1")
	b := summarize(t, "sort -o /work/in.txt /seed")
	if hz := Interferes(a, b, "a", "b", "/work"); len(hz) == 0 {
		t.Fatal("relative in.txt vs absolute /work/in.txt not reported after Normalize")
	}
}
