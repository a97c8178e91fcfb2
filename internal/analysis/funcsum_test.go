package analysis

import (
	"strings"
	"testing"

	"jash/internal/spec"
	"jash/internal/syntax"
)

// summarizer parses src, collects its function declarations, and returns
// a FuncSummarizer over that table — the same shape lint and the rewrite
// planner build from FuncDecls.
func summarizer(t *testing.T, src string) *FuncSummarizer {
	t.Helper()
	script, err := syntax.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	table := map[string]syntax.Command{}
	for _, st := range script.Stmts {
		if st.AndOr == nil || st.AndOr.First == nil {
			continue
		}
		for _, cmd := range st.AndOr.First.Cmds {
			if fd, ok := cmd.(*syntax.FuncDecl); ok {
				table[fd.Name] = fd.Body
			}
		}
	}
	return NewFuncSummarizer(spec.Builtin(), func(name string) syntax.Command {
		return table[name]
	})
}

func hasBlocker(ss *StmtSummary, substr string) bool {
	for _, b := range ss.Blockers {
		if strings.Contains(b, substr) {
			return true
		}
	}
	return false
}

func TestCallConcreteArgs(t *testing.T) {
	fs := summarizer(t, "count() { grep -c alpha \"$1\" > \"$1.n\"; }\n")
	if fs.Body("count") == nil || fs.Body("absent") != nil {
		t.Fatal("Body disagrees with the function table")
	}
	ss := fs.Call("count", []AbsVal{Const("/w0")}, true, nil)
	if len(ss.Blockers) != 0 {
		t.Fatalf("unexpected blockers: %v", ss.Blockers)
	}
	if ss.FS.Paths["/w0"]&OpRead == 0 {
		t.Errorf("$1 not concretized to a read of /w0: %v", ss.FS.Paths)
	}
	if ss.FS.Paths["/w0.n"]&(OpWrite|OpCreate) == 0 {
		t.Errorf("\"$1.n\" redirect not concretized: %v", ss.FS.Paths)
	}
	if ss.FS.Unknown != 0 {
		t.Errorf("summary fell to ⊤ despite concrete args: %v", ss.FS.Unknown)
	}
	// Two calls with distinct constants must summarize independently.
	other := fs.Call("count", []AbsVal{Const("/w1")}, true, nil)
	if other.FS.Paths["/w1"]&OpRead == 0 || other.FS.Paths["/w0"] != 0 {
		t.Errorf("second arg vector reused the first summary: %v", other.FS.Paths)
	}
}

func TestCallUnknownArgsFallToTop(t *testing.T) {
	fs := summarizer(t, "count() { grep -c alpha \"$1\"; }\n")
	ss := fs.Call("count", nil, false, nil)
	if ss.FS.Unknown&OpRead == 0 {
		t.Errorf("⊤ positional should produce a ⊤ read: %v / %v", ss.FS.Paths, ss.FS.Unknown)
	}
}

func TestCallCaching(t *testing.T) {
	fs := summarizer(t, "f() { grep -c x \"$1\"; }\n")
	a := fs.Call("f", []AbsVal{Const("/a")}, true, nil)
	if fs.Call("f", []AbsVal{Const("/a")}, true, nil) != a {
		t.Error("same (name, args) must return the cached pointer")
	}
	if fs.Call("f", []AbsVal{Const("/b")}, true, nil) == a {
		t.Error("different args must not share a cache entry")
	}
	if fs.Call("f", nil, false, nil) == a {
		t.Error("argsKnown=false must key separately from concrete args")
	}
}

func TestRecursionBlocked(t *testing.T) {
	fs := summarizer(t, "f() { f; }\n")
	if !hasBlocker(fs.Call("f", nil, true, nil), "recursive call") {
		t.Error("direct recursion must block")
	}
	fs = summarizer(t, "a() { b; }\nb() { a; }\n")
	if !hasBlocker(fs.Call("a", nil, true, nil), "recursive call") {
		t.Error("mutual recursion must block")
	}
}

func TestUnknownFunctionBlocked(t *testing.T) {
	fs := summarizer(t, "f() { :; }\n")
	if !hasBlocker(fs.Call("nope", nil, true, nil), "unknown function") {
		t.Error("missing function must block")
	}
}

func TestLocalsFilteredFromSummary(t *testing.T) {
	fs := summarizer(t, "f() { local t\nt=/scratch\ncp \"$t\" /out\ng=1\n}\n")
	ss := fs.Call("f", nil, true, nil)
	if len(ss.Blockers) != 0 {
		t.Fatalf("unexpected blockers: %v", ss.Blockers)
	}
	if ss.Defs["t"] || ss.Uses["t"] {
		t.Errorf("local t leaked into the summary: defs=%v uses=%v", ss.Defs, ss.Uses)
	}
	if !ss.Defs["g"] {
		t.Errorf("global assignment missing from Defs: %v", ss.Defs)
	}
	// The local's constant value still concretizes the path effects.
	if ss.FS.Paths["/scratch"]&OpRead == 0 {
		t.Errorf("local-held path not concretized: %v", ss.FS.Paths)
	}
}

func TestStatefulBuiltinsBlock(t *testing.T) {
	cases := []struct{ src, why string }{
		{"f() { cd /tmp; }\n", "cd"},
		{"f() { trap : EXIT; }\n", "trap"},
		{"f() { exit 1; }\n", "exit"},
		{"f() { eval x=1; }\n", "eval"},
		// Every utility started later reads the exported environment.
		{"f() { export XQ=1; }\n", "export"},
		{"f() { grep x /in & }\n", "background job"},
		{"f() { if c; then :; fi; }\n", "compound command"},
	}
	for _, c := range cases {
		fs := summarizer(t, c.src)
		if ss := fs.Call("f", nil, true, nil); !hasBlocker(ss, c.why) {
			t.Errorf("%q: want blocker containing %q, got %v", c.src, c.why, ss.Blockers)
		}
	}
}

func TestBodyRedirectSuppressesStdin(t *testing.T) {
	fs := summarizer(t, "f() { sort; } < /in\n")
	ss := fs.Call("f", nil, true, nil)
	if ss.FS.ReadsStdin {
		t.Error("body-group stdin redirect must clear ReadsStdin")
	}
	if ss.FS.Paths["/in"]&OpRead == 0 {
		t.Errorf("redirect source not read: %v", ss.FS.Paths)
	}
	fs = summarizer(t, "f() { sort; }\n")
	if !fs.Call("f", nil, true, nil).FS.ReadsStdin {
		t.Error("unredirected sort must keep ReadsStdin")
	}
}

// TestBodyRedirectReadsTheCallersValue: a body group's redirection is
// expanded before the body runs, with the caller's x, which the summary
// must list among the variables the call reads.
func TestBodyRedirectReadsTheCallersValue(t *testing.T) {
	fs := summarizer(t, "f() { x=/b; sort /big; } >$x\n")
	caller := NewEnv(nil)
	caller.Bind("x", Const("/a"))
	ss := fs.Call("f", nil, true, caller)
	if !ss.Uses["x"] || ss.FS.Paths["/a"]&OpWrite == 0 || ss.FS.Paths["/b"] != 0 {
		t.Errorf("uses %v, effects %v: want a read of x and a write of /a, not /b", ss.Uses, ss.FS)
	}
}

func TestNestedCallFoldsCalleeEffects(t *testing.T) {
	fs := summarizer(t, "inner() { grep -c x \"$1\" > \"$1.n\"; }\nouter() { inner /w7; }\n")
	ss := fs.Call("outer", nil, true, nil)
	if len(ss.Blockers) != 0 {
		t.Fatalf("unexpected blockers: %v", ss.Blockers)
	}
	if ss.FS.Paths["/w7"]&OpRead == 0 || ss.FS.Paths["/w7.n"]&(OpWrite|OpCreate) == 0 {
		t.Errorf("callee effects not folded through the call site: %v", ss.FS.Paths)
	}
}

func TestAbsCallArgs(t *testing.T) {
	env := NewEnv(nil)
	env.Bind("X", Const("/logs/a"))
	parse := func(src string) *syntax.SimpleCommand {
		script, err := syntax.Parse(src + "\n")
		if err != nil {
			t.Fatalf("parse %q: %v", src, err)
		}
		return script.Stmts[0].AndOr.First.Cmds[0].(*syntax.SimpleCommand)
	}
	args, ok := AbsCallArgs(parse(`count /w0 "$X"`), env)
	if !ok || len(args) != 2 || args[0] != Const("/w0") || args[1] != Const("/logs/a") {
		t.Errorf("concrete call site: ok=%v args=%v", ok, args)
	}
	// Unquoted ⊤ expansion: arity itself is unknown.
	if _, ok = AbsCallArgs(parse("count $UNKNOWN"), env); ok {
		t.Error("unquoted ⊤ argument cannot resolve an arity")
	}
	// Glob metacharacters: the field may multiply at runtime.
	if _, ok = AbsCallArgs(parse("count /w*"), env); ok {
		t.Error("globbable argument cannot resolve an arity")
	}
	// Quoted ⊤ is a single field with a ⊤ value — arity is still known.
	args, ok = AbsCallArgs(parse(`count "$UNKNOWN"`), env)
	if !ok || len(args) != 1 || !args[0].IsTop() {
		t.Errorf(`quoted ⊤: ok=%v args=%v`, ok, args)
	}
	if _, ok = AbsCallArgs(parse("count /w0"), nil); ok {
		t.Error("nil env must refuse")
	}
}

// TestCallSeesArithmeticAssignment: `: $((p=7))` rebinds p, so the cat
// that follows reads a path the summary cannot name — not /data/a.txt.
func TestCallSeesArithmeticAssignment(t *testing.T) {
	fs := summarizer(t, "f() { p=/data/a.txt; : $((p=7)); cat $p > /o; }\n")
	ss := fs.Call("f", nil, true, nil)
	if ss.FS.Unknown&OpRead == 0 || ss.FS.Paths["/data/a.txt"] != 0 {
		t.Errorf("summary = %v, want a ⊤ read and no /data/a.txt", ss.FS)
	}
	if !ss.Defs["p"] {
		t.Errorf("p not among the defs: %v", ss.Defs)
	}
}
