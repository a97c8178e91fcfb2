package rewrite

import (
	"errors"
	"fmt"
	"runtime"
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
	if len(plan.Groups) != 1 || !plan.Groups[0].Parallel || len(plan.Groups[0].Stmts) != 4 {
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

// planLoop plans the loop src is, over the items its words expand to.
func planLoop(t *testing.T, src string, opts ListOptions, items ...string) (*ListPlan, ListDecision) {
	t.Helper()
	fc := ForLoop(parseStmts(t, src)[0])
	if fc == nil {
		t.Fatalf("%q is not a lone for loop", src)
	}
	if opts.Lib == nil {
		opts.Lib, opts.Dir, opts.Cores = lib, "/", 8
	}
	return ParallelizeLoop(fc, func() ([]string, error) { return items, nil }, opts)
}

func TestParallelizeLoopDisjointFiles(t *testing.T) {
	plan, dec := planLoop(t, "for f in /a /b /c; do grep x $f >$f.out; done", ListOptions{}, "/a", "/b", "/c")
	if !dec.Parallel || dec.Statements != 3 {
		t.Fatalf("per-file loop not parallelized: %s", dec.Reason)
	}
	g := plan.Groups[0]
	if len(g.Binds) != 3 || g.Binds[0] != (Binding{"f", "/a"}) || g.Binds[2] != (Binding{"f", "/c"}) {
		t.Fatalf("iterations carry bindings %+v", g.Binds)
	}
	if g.Stmts[0] != g.Stmts[2] {
		t.Fatal("an iteration's statement is a copy, not the body's own")
	}
}

// TestParallelizeLoopRefusals: each loop keeps program order, and the
// decision names why.
func TestParallelizeLoopRefusals(t *testing.T) {
	readonly := ListOptions{IsReadonly: func(name string) bool { return name == "f" }}
	for _, c := range []struct {
		src, reason string
		opts        ListOptions
	}{
		{"for f in /a /b; do f=/other; grep x $f; done", "may assign $f", ListOptions{}},
		{"for f in /a /b; do read f </x; done", "may assign $f", ListOptions{}},
		{"for f in /a /b; do eval \"$x\"; grep x $f; done", "may assign any variable", ListOptions{}},
		{"for f in /a /b; do grep x $f >$f.n; done", "readonly", readonly},
		{"for f in /a ${g=/b}; do grep x $f >$f.n; done", "not safe to expand early", ListOptions{}},
		{"for f in /a /b; do echo $(cat $f); done", "command substitution", ListOptions{}},
		{"for f in /a /b; do grep x $f >$f.n; break; done", "break", ListOptions{}},
		{"for f in /a /b; do grep x $f >$f.n; continue; done", "continue", ListOptions{}},
		// Iteration-local assignment is out of reach: b is written by
		// every iteration and read by the next statement.
		{"for f in /d/a /d/b; do b=${f##*/}; tr a-z A-Z <$f >/d/$b.up; done", "$b", ListOptions{}},
		// A loop-carried variable, and an iteration reading what an
		// earlier one wrote.
		{"for f in /a /b; do n=\"$n $f\"; done", "$n", ListOptions{}},
		{"for f in /d/a /d/b; do tr a-z A-Z <$f >/d/b; done", "/d/b", ListOptions{}},
	} {
		_, dec := planLoop(t, c.src, c.opts, "/a", "/b")
		if strings.HasPrefix(c.src, "for f in /d/") {
			_, dec = planLoop(t, c.src, c.opts, "/d/a", "/d/b")
		}
		if dec.Parallel || !strings.Contains(dec.Reason, c.reason) {
			t.Errorf("%q: parallel=%v reason %q, want a refusal naming %q", c.src, dec.Parallel, dec.Reason, c.reason)
		}
	}
	fc := ForLoop(parseStmts(t, "for f in $((1/0)); do grep x $f >$f.n; done")[0])
	_, dec := ParallelizeLoop(fc, func() ([]string, error) { return nil, errors.New("division by zero") },
		ListOptions{Lib: lib, Dir: "/", Cores: 8})
	if dec.Parallel || !strings.Contains(dec.Reason, "division by zero") {
		t.Errorf("failed expansion: parallel=%v reason %q", dec.Parallel, dec.Reason)
	}
}

// TestParallelizeLoopBindsWhatPasteRefused: the shapes a literal paste of
// the item could not reproduce plan once each iteration is a binding.
func TestParallelizeLoopBindsWhatPasteRefused(t *testing.T) {
	for _, c := range []struct {
		src   string
		items []string
	}{
		{"for f in $files; do grep x $f >$f.n; done", []string{"/a", "/b"}},                       // dynamic list
		{"for f in /a /*; do grep x $f >$f.n; done", []string{"/a", "/b", "/c"}},                  // glob item
		{"for f in /d/a /d/b; do tr a-z A-Z <$f >/d/${f##*/}.up; done", []string{"/d/a", "/d/b"}}, // non-plain expansion
		{"for f in 'a b' /c; do grep x $f; done", []string{"a b", "/c"}},                          // splittable item
		{"for f in /a /b; do grep x \"$f\" >\"$f.n\"; done", []string{"/a b", "/c"}},              // item with a space, quoted
		{"for f in /a /b; do echo ${f%.txt}; done", []string{"/a.txt", "/b.txt"}},                 // trim
	} {
		_, dec := planLoop(t, c.src, ListOptions{}, c.items...)
		if !dec.Parallel || dec.Statements != len(c.items) {
			t.Errorf("%q: parallel=%v statements %d reason %q", c.src, dec.Parallel, dec.Statements, dec.Reason)
		}
	}
}

// TestParallelizeLoopRefusesCheaply: a statement the first iteration pins
// refuses the loop before the other iterations are planned.
func TestParallelizeLoopRefusesCheaply(t *testing.T) {
	items := make([]string, 64)
	for i := range items {
		items[i] = fmt.Sprintf("/f%02d", i)
	}
	_, dec := planLoop(t, "for f in /f*; do grep x $f >$f.n; echo $(wc -l <$f); done", ListOptions{}, items...)
	if dec.Parallel || len(dec.Pinned) != 2 || dec.Pinned[1] == "" ||
		!strings.Contains(dec.Reason, "statement 2 of the first iteration") {
		t.Fatalf("parallel=%v pinned %q reason %q", dec.Parallel, dec.Pinned, dec.Reason)
	}
}

// TestListPlanningIsLinear: each statement is checked against one index of
// its run, not against every earlier member, so planning N independent
// statements allocates in proportion to N (checking every pair made 1,024
// statements allocate 248 times what 64 do).
func TestListPlanningIsLinear(t *testing.T) {
	alloc := func(n int) uint64 {
		var b strings.Builder
		for i := 0; i < n; i++ {
			fmt.Fprintf(&b, "tr a-z A-Z </d/f%d >/d/f%d.up\n", i, i)
		}
		stmts := parseStmts(t, b.String())
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, dec := ParallelizeList(stmts, ListOptions{Lib: lib, Dir: "/", Cores: 8})
		runtime.ReadMemStats(&after)
		if !dec.Parallel || dec.Statements != n {
			t.Fatalf("%d statements: %s", n, dec.Reason)
		}
		return after.TotalAlloc - before.TotalAlloc
	}
	small, large := alloc(64), alloc(1024)
	t.Logf("64 statements: %d bytes; 1024: %d bytes (%.1fx)", small, large, float64(large)/float64(small))
	if large > 24*small {
		t.Errorf("planning 1024 statements allocates %d bytes, %.0fx the %d of 64; want at most 24x",
			large, float64(large)/float64(small), small)
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
