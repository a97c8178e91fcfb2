package rewrite

import (
	"strings"
	"testing"

	"jash/internal/syntax"
)

func parseStmts(t *testing.T, src string) []*syntax.Stmt {
	t.Helper()
	s, err := syntax.Parse(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	return s.Stmts
}

func planList(t *testing.T, src string) (*ListPlan, ListDecision) {
	t.Helper()
	return ParallelizeList(parseStmts(t, src), ListOptions{Lib: lib, Dir: "/", Cores: 8})
}

func TestParallelizeListIndependentStatements(t *testing.T) {
	plan, dec := planList(t, "grep alpha /w0 >/o0\ngrep beta /w1 >/o1\nwc -l /w2 >/o2\nsort /w3 >/o3\n")
	if !dec.Parallel {
		t.Fatalf("independent list not parallelized: %s", dec.Reason)
	}
	if dec.Statements != 4 {
		t.Fatalf("parallel statements = %d, want 4 (reason: %s)", dec.Statements, dec.Reason)
	}
	if got := plan.ParallelStatements(); got != 4 {
		t.Fatalf("plan parallel statements = %d, want 4", got)
	}
	if len(plan.Groups) != 1 || !plan.Groups[0].Parallel {
		t.Fatalf("want a single parallel group, got %+v", plan.Groups)
	}
	if w := plan.Groups[0].Width; w < 2 || w > 4 {
		t.Fatalf("region width %d out of range [2,4]", w)
	}
}

func TestParallelizeListFilesystemHazardSplits(t *testing.T) {
	// Statement 2 reads what statement 1 writes: must stay ordered.
	_, dec := planList(t, "sort /in >/mid\ngrep x /mid >/out\n")
	if dec.Parallel {
		t.Fatal("read-after-write list parallelized")
	}
	if !strings.Contains(dec.Reason, "/mid") {
		t.Fatalf("reason %q does not name the hazard path", dec.Reason)
	}
}

func TestParallelizeListVariableHazard(t *testing.T) {
	_, dec := planList(t, "x=5\necho $x >/o\n")
	if dec.Parallel {
		t.Fatal("def-use list parallelized")
	}
}

func TestParallelizeListMixedRegions(t *testing.T) {
	// Two independent greps, then a blocker, then two more independents.
	src := "grep a /w0 >/o0\ngrep b /w1 >/o1\ncd /tmp\ngrep c /w2 >/o2\ngrep d /w3 >/o3\n"
	plan, dec := planList(t, src)
	if !dec.Parallel || dec.Statements != 4 {
		t.Fatalf("mixed list: parallel=%v statements=%d reason=%s", dec.Parallel, dec.Statements, dec.Reason)
	}
	// Groups: [par(2), seq(cd), par(2)].
	if len(plan.Groups) != 3 || !plan.Groups[0].Parallel || plan.Groups[1].Parallel || !plan.Groups[2].Parallel {
		t.Fatalf("unexpected grouping: %+v", plan.Groups)
	}
	// The proof trail names exactly the statement that was pinned, with
	// the blocker that pinned it.
	if len(dec.Pinned) != 5 || !strings.Contains(dec.Pinned[2], "cd") {
		t.Fatalf("Pinned = %q, want 5 entries with statement 3 blocked by cd", dec.Pinned)
	}
	for i, blocker := range dec.Pinned {
		if i != 2 && blocker != "" {
			t.Errorf("statement %d pinned (%s), want proven commutative", i+1, blocker)
		}
	}
}

func TestParallelizeListSingletonDemotes(t *testing.T) {
	// One eligible statement between blockers never forms a region of 1.
	_, dec := planList(t, "cd /a\ngrep x /w >/o\ncd /b\n")
	if dec.Parallel {
		t.Fatal("singleton run parallelized")
	}
}

func TestParallelizeListTopEffectBlocks(t *testing.T) {
	_, dec := planList(t, "frobnicate /a\ngrep x /w >/o\nwc -l /v >/p\n")
	if dec.Parallel && dec.Statements > 2 {
		t.Fatal("⊤ statement entered a region")
	}
}

func TestParallelizeListShellFunctionBlocks(t *testing.T) {
	opts := ListOptions{Lib: lib, Dir: "/", Cores: 8,
		IsFunc: func(name string) bool { return name == "grep" }}
	_, dec := ParallelizeList(parseStmts(t, "grep a /w0 >/o0\ngrep b /w1 >/o1\n"), opts)
	if dec.Parallel {
		t.Fatal("shell-function shadowed command parallelized")
	}
	if !strings.Contains(dec.Reason, "function") {
		t.Fatalf("reason %q does not mention the function", dec.Reason)
	}
}

func TestParallelizeListReadonlyBlocks(t *testing.T) {
	opts := ListOptions{Lib: lib, Dir: "/", Cores: 8,
		IsReadonly: func(name string) bool { return name == "x" }}
	_, dec := ParallelizeList(parseStmts(t, "x=1\ny=2\nz=3\n"), opts)
	if dec.Statements == 3 {
		t.Fatal("readonly assignment entered a region")
	}
}

func TestParallelizeListCdBlockedOnly(t *testing.T) {
	// cds interleaved between absolute-path statements leave only singleton
	// runs (demoted), yet removing the cds yields a provable region.
	_, dec := planList(t, "cd /build\ngrep a /w0 >/o0\ncd /build\ngrep b /w1 >/o1\n")
	if dec.Parallel {
		t.Fatalf("cd list parallelized: %s", dec.Reason)
	}
	if !dec.CdBlockedOnly {
		t.Fatalf("cd-blocked list not flagged; reason: %s", dec.Reason)
	}
	// A relative path makes the cd load-bearing: no flag.
	_, dec = planList(t, "cd /build\ngrep a w0 >/o0\ncd /build\ngrep b /w1 >/o1\n")
	if dec.CdBlockedOnly {
		t.Fatal("load-bearing cd flagged as removable")
	}
	// A non-cd blocker present: no flag.
	_, dec = planList(t, "cd /build\neval \"$x\"\ncd /build\ngrep a /w0 >/o0\ngrep b /w1 >/o1\n")
	if dec.CdBlockedOnly {
		t.Fatal("eval-blocked list flagged as cd-only")
	}
}

func TestUnrollForDisjointFiles(t *testing.T) {
	stmts := parseStmts(t, "for f in /a /b /c; do grep x $f >$f.out; done")
	un, name, last, ok := UnrollFor(stmts[0], nil)
	if !ok {
		t.Fatal("static literal loop refused")
	}
	if name != "f" || last != "/c" {
		t.Fatalf("variable %q, last item %q, want f and /c", name, last)
	}
	if len(un) != 3 {
		t.Fatalf("unrolled to %d statements, want 3", len(un))
	}
	// The unrolled statements must now be provably independent.
	_, dec := ParallelizeList(un, ListOptions{Lib: lib, Dir: "/", Cores: 8})
	if !dec.Parallel || dec.Statements != 3 {
		t.Fatalf("unrolled loop not parallelized: %s", dec.Reason)
	}
}

func TestUnrollForRefusals(t *testing.T) {
	cases := []string{
		"for f in $files; do grep x $f; done",          // dynamic list
		"for f in /a /b; do echo ${f%.txt}; done",      // non-plain expansion
		"for f in /a /b; do f=/other; grep x $f; done", // rebinds the variable
		"for f in /a /b; do echo $(cat $f); done",      // command substitution
		"for f in /a /b; do read f </x; done",          // hostile builtin
		"for f in 'a b' /c; do grep x $f; done",        // splittable item
		"for f in /a /*; do grep x $f; done",           // glob item
		"for f in /a /b; do echo $((f+1)); done",       // arithmetic reference
	}
	for _, src := range cases {
		stmts := parseStmts(t, src)
		if _, ok := stmts[0].AndOr.First.Cmds[0].(*syntax.ForClause); !ok {
			t.Fatalf("%q did not parse to a for clause", src)
		}
		if _, _, _, ok := UnrollFor(stmts[0], nil); ok {
			t.Errorf("%q unexpectedly unrolled", src)
		}
	}
}

func TestFlattenBrace(t *testing.T) {
	stmts := parseStmts(t, "{ grep a /w0 >/o0; grep b /w1 >/o1; }")
	body, ok := FlattenBrace(stmts[0])
	if !ok || len(body) != 2 {
		t.Fatalf("brace group not flattened: ok=%v len=%d", ok, len(body))
	}
	// Redirected groups keep their shape: the redirection scopes the body.
	stmts = parseStmts(t, "{ grep a /w0; } >/all")
	if _, ok := FlattenBrace(stmts[0]); ok {
		t.Fatal("redirected brace group flattened")
	}
}
