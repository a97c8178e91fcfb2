package analysis

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"jash/internal/syntax"
)

var update = flag.Bool("update", false, "rewrite golden env dumps")

// --- domain ---

func TestJoin(t *testing.T) {
	cases := []struct {
		a, b, want AbsVal
	}{
		{Const("/tmp/a"), Const("/tmp/a"), Const("/tmp/a")},
		{Const("/tmp/a"), Const("/tmp/b"), Prefix("/tmp/")},
		{Const("abc"), Const("xyz"), Top()}, // no common prefix
		{Const("/tmp"), Top(), Top()},
		{Prefix("/tmp/"), Const("/tmp/a"), Prefix("/tmp/")},
		{Prefix("/a"), Prefix("/b"), Prefix("/")},
	}
	for _, c := range cases {
		if got := Join(c.a, c.b); got != c.want {
			t.Errorf("Join(%v, %v) = %v, want %v", c.a, c.b, got, c.want)
		}
		// Join is commutative on this lattice.
		if got := Join(c.b, c.a); got != c.want {
			t.Errorf("Join(%v, %v) = %v, want %v", c.b, c.a, got, c.want)
		}
	}
}

func TestConcat(t *testing.T) {
	cases := []struct {
		a, b, want AbsVal
	}{
		{Const("/tmp/"), Const("f"), Const("/tmp/f")},
		{Const("/tmp/"), Prefix("ab"), Prefix("/tmp/ab")},
		{Const("/tmp/"), Top(), Prefix("/tmp/")},
		{Prefix("/tmp/"), Const("f"), Prefix("/tmp/")}, // suffix unknown
		{Top(), Const("x"), Top()},
		{Const(""), Top(), Top()}, // Prefix("") collapses to ⊤
	}
	for _, c := range cases {
		if got := Concat(c.a, c.b); got != c.want {
			t.Errorf("Concat(%v, %v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

// --- abstract walk: final-state checks ---

// finalEnv runs the abstract interpreter over src from the static (no
// interpreter state) environment.
func finalEnv(t *testing.T, src string) *Env {
	t.Helper()
	script, err := syntax.Parse(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	env, _ := WalkValues(script, nil, nil)
	return env
}

func TestWalkValuesStates(t *testing.T) {
	cases := []struct {
		name, src, v string
		want         AbsVal
	}{
		{"assign", "x=/tmp/a\n", "x", Const("/tmp/a")},
		{"concat", "a=/tmp\nb=$a/f.txt\n", "b", Const("/tmp/f.txt")},
		{"quote-removal", "x='a b'\ny=\"$x\"\n", "y", Const("a b")},
		{"overwrite", "x=1\nx=2\n", "x", Const("2")},
		{"subshell-copy", "x=1\n(x=2)\n", "x", Const("1")},
		{"background-copy", "x=1\nx=2 &\nwait\n", "x", Const("1")},
		{"pipeline-stage-copy", "x=1\n{ x=2; } | cat\n", "x", Const("1")},
		{"branch-join", "if c; then x=a; else x=b; fi\n", "x", Top()},
		{"branch-join-prefix", "x=/d/a\nif c; then x=/d/b; fi\n", "x", Prefix("/d/")},
		{"loop-carried-widen", "x=1\nwhile c; do x=2; done\n", "x", Top()},
		{"for-last-item", "for f in /d/a /d/b; do :; done\n", "f", Prefix("/d/")},
		{"for-single-item", "for f in /only; do :; done\n", "f", Const("/only")},
		{"unset", "x=abc\nunset x\n", "x", Const("")},
		{"read-widens", "x=1\nread x\n", "x", Top()},
		{"cmdsubst-top", "x=$(date)\n", "x", Top()},
		{"cmdsubst-prefix", "x=/tmp/$(date)\n", "x", Prefix("/tmp/")},
		{"eval-widens", "x=1\neval y=2\n", "x", Top()},
		{"function-call-widens", "f() { x=2; }\nx=1\nf\n", "x", Top()},
		{"local-default", "x=${HOME:-/root}\n", "x", Top()}, // HOME unknown statically
		{"trim-suffix", "f=a.tmp\ng=${f%.tmp}\n", "g", Const("a")},
		{"arith-assign-widens", "x=/a\n: $((x=5))\ncat $x\n", "x", Top()},
		{"arith-compound-widens", "y=1\n: $((y+=1))\n", "y", Top()},
		{"arith-read-keeps", "x=/a\necho $((x+1))\n", "x", Const("/a")},
		{"arith-unexpanded-widens-all", "x=/a\n: $((${z}))\n", "x", Top()},
		{"arith-loop-carried-widen", "x=/a\nwhile c; do : $((x+=1)); done\n", "x", Top()},
		// Assignments no name set shows: a branch or loop that ran eval (or
		// unset and re-assigned through ${f=w}) leaves f unknown on the way
		// out, as does a call whose body hides the assignment in a compound,
		// a $name pasted into arithmetic, and a here-document body.
		{"eval-in-if", "f=/a\nif true; then eval 'f=/b'; fi\n", "f", Top()},
		{"eval-in-for", "f=/a\nfor i in 1; do eval 'f=/b'; done\n", "f", Top()},
		{"unset-reassign-in-while", "f=/a\nn=1\nwhile [ $n = 1 ]; do n=2; unset f; : ${f=/b}; done\n", "f", Top()},
		{"eval-after-and", "f=/a\ntrue && eval 'f=/b'\n", "f", Top()},
		{"eval-in-case", "f=/a\ncase x in x) eval 'f=/b';; esac\n", "f", Top()},
		{"call-with-compound-body", "g() { if true; then f=/b; fi; }\nf=/a\ng\n", "f", Top()},
		{"call-through-call", "h() { f=/b; }\ng() { h; }\nf=/a\ng\n", "f", Top()},
		{"arith-spliced-text", "f=a\nn='f=1'\n: $(($n))\n", "f", Top()},
		{"arith-spliced-integer-keeps", "f=a\nn=41\nm=$(($n+1))\n", "f", Const("a")},
		{"heredoc-assigns", "f=/a\ncat <<E\n${f:=/b}\nE\n", "f", Top()},
		{"heredoc-quoted-is-text", "f=/a\ncat <<'E'\n${f:=/b}\nE\n", "f", Const("/a")},
		{"dynamic-command-word", "f=/a\nc=eval\n$c 'f=/b'\n", "f", Top()},
		{"quoted-builtin-name", "f=/a\n\"eval\" 'f=/b'\n", "f", Top()},
		{"branch-widen-joins-unbound-names", "if c; then eval x; fi\ny=1\n", "HOME", Top()},
		{"export-value-binds", "d=/tmp\nexport OUT=\"$d/x\"\n", "OUT", Const("/tmp/x")},
		{"read-dynamic-name-widens", "f=/a\nread $v\n", "f", Top()},
		{"getopts-binds-its-names", "o=x\nOPTIND=9\ngetopts ab o\n", "OPTIND", Top()},
		{"for-body-assigns-its-variable", "for v in a b; do : $((v = 5)); done\n", "v", Top()},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			env := finalEnv(t, c.src)
			if got := env.Resolve(c.v); got != c.want {
				t.Errorf("%s: $%s = %v, want %v\nenv:\n%s", c.src, c.v, got, c.want, env.Dump())
			}
		})
	}
}

// TestJoinWithIsARealJoin: a name only the receiver binds joins with what
// the branch resolves it to, and a branch that forgot everything takes the
// receiver's lookup with it.
func TestJoinWithIsARealJoin(t *testing.T) {
	live := func(name string) (string, bool) { return "live", name == "v" }
	e := NewEnv(live)
	e.Bind("x", Const("/a"))
	br := e.Clone()
	br.WidenAll()
	e.JoinWith(br)
	for _, name := range []string{"x", "v", "unbound"} {
		if got := e.Resolve(name); got != Top() {
			t.Errorf("after joining a widened branch $%s = %v, want ⊤", name, got)
		}
	}
	e = NewEnv(live)
	e.Bind("x", Const("/d/a"))
	br = e.Clone()
	br.Bind("x", Const("/d/b"))
	br.Bind("y", Const("1"))
	e.JoinWith(br)
	if got := e.Resolve("x"); got != Prefix("/d/") {
		t.Errorf("$x = %v, want /d/*", got)
	}
	if got := e.Resolve("y"); got != Top() { // unset here, 1 there
		t.Errorf("$y = %v, want ⊤", got)
	}
	if got := e.Resolve("v"); got != Const("live") {
		t.Errorf("$v = %v: an ordinary join must keep the live lookup", got)
	}
}

func TestAssignedBy(t *testing.T) {
	funcs := map[string]syntax.Command{}
	decls := mustParseScript(t, "g() { if c; then p=1; fi; h; }\nh() { q=2; g; }\n")
	for _, st := range decls.Stmts {
		fd := st.AndOr.First.Cmds[0].(*syntax.FuncDecl)
		funcs[fd.Name] = fd.Body
	}
	body := func(name string) syntax.Command { return funcs[name] }
	cases := []struct {
		src   string
		names string
		any   bool
	}{
		{"x=1; y=2 cmd; for z in a; do :; done", "x y z", false},
		{": ${a=1} ${b:=2} ${c:-3} $((d=4)) $((e+=1)) $((f+1))", "a b d e", false},
		{"read -r l m; export E=1 F; readonly R; local L=2; unset -v U; getopts ab o", "E F L OPTARG OPTIND R U l m o", false},
		{"cat <<E\n${hd=1}\nE", "hd", false},
		{"echo $(inner=1)", "", false},
		{"g", "p q", false}, // g calls h calls g: each body once
		{"eval \"$x\"", "", true},
		{". /lib.sh", "", true},
		{"$cmd a", "", true},
		{"read \"$name\"", "", true},
		{"export \"$kv\"", "", true},
		{"export K=$v", "", true}, // may split into more operands
		{"read", "REPLY", false},
		{": $(($n + 1))", "", true},
		{": $((${n}))", "", true},
		{"set -- a b; shift; cd /; trap : EXIT", "OLDPWD PWD", false},
		{"unset -f F G; unset -v -f H; unset -f -v V", "V", false},
		{"unset $opt x", "x", true},
	}
	for _, c := range cases {
		names, any := AssignedBy(mustParseScript(t, c.src+"\n"), body)
		if got := strings.Join(SortedNames(names), " "); got != c.names || any != c.any {
			t.Errorf("%q: assigns %q any=%v, want %q any=%v", c.src, got, any, c.names, c.any)
		}
	}
}

// TestFuncTableChangedBy: declarations, unset -f (directly, through a
// call, or behind an option word only run time knows) and eval change the
// function table; unset of a variable and a re-declaration of the body the
// table already holds do not.
func TestFuncTableChangedBy(t *testing.T) {
	decls := mustParseScript(t, "k() { :; }\ndrop() { unset -f k; }\n")
	funcs := map[string]syntax.Command{}
	for _, st := range decls.Stmts {
		fd := st.AndOr.First.Cmds[0].(*syntax.FuncDecl)
		funcs[fd.Name] = fd.Body
	}
	body := func(name string) syntax.Command { return funcs[name] }
	for _, c := range []struct {
		src  string
		want bool
	}{
		{"echo hi; unset x; unset -v k", false},
		{"unset -f k", true},
		{"unset -v -f k", true},
		{"unset $opt k", true},
		{"drop", true},
		{"if c; then n() { :; }; fi", true},
		{"eval \"$s\"", true},
	} {
		if got := FuncTableChangedBy(mustParseScript(t, c.src+"\n"), body); got != c.want {
			t.Errorf("%q: FuncTableChangedBy = %v, want %v", c.src, got, c.want)
		}
	}
	if FuncTableChangedBy(decls, body) {
		t.Errorf("re-declaring the table's own bodies changes nothing")
	}
}

func mustParseScript(t *testing.T, src string) *syntax.Script {
	t.Helper()
	script, err := syntax.Parse(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	return script
}

func TestUnsetResetsIFS(t *testing.T) {
	env := finalEnv(t, "IFS=:\nunset IFS\n")
	if !env.ifsDefault {
		t.Error("unset IFS should restore default splitting")
	}
	if env = finalEnv(t, "IFS=:\n"); env.ifsDefault {
		t.Error("IFS=: must disable the abstract splitter")
	}
}

func TestFieldsOfSplitting(t *testing.T) {
	env := NewEnv(nil)
	env.Bind("F", Const("a b"))
	env.Bind("G", Const("/tmp/x"))
	parse := func(src string) *syntax.Word {
		script, err := syntax.Parse("cmd " + src + "\n")
		if err != nil {
			t.Fatalf("parse %q: %v", src, err)
		}
		sc := script.Stmts[0].AndOr.First.Cmds[0].(*syntax.SimpleCommand)
		return sc.Args[1]
	}
	fields, exact := FieldsOf(parse("$F"), env)
	if !exact || len(fields) != 2 || fields[0].Val != Const("a") || fields[1].Val != Const("b") {
		t.Errorf("unquoted $F: exact=%v fields=%v", exact, fields)
	}
	fields, exact = FieldsOf(parse(`"$F"`), env)
	if !exact || len(fields) != 1 || fields[0].Val != Const("a b") {
		t.Errorf("quoted $F: exact=%v fields=%v", exact, fields)
	}
	fields, exact = FieldsOf(parse(`"$G".bak`), env)
	if !exact || len(fields) != 1 || fields[0].Val != Const("/tmp/x.bak") {
		t.Errorf("concat: exact=%v fields=%v", exact, fields)
	}
	if fields, exact = FieldsOf(parse("$G*"), env); !exact || !fields[0].Globbable {
		t.Errorf("glob metachar must mark the field globbable: %v %v", exact, fields)
	}
	if _, exact = FieldsOf(parse("$UNKNOWN"), env); exact {
		t.Error("unquoted ⊤ expansion cannot be exact")
	}
	if _, exact = FieldsOf(parse(`"$@"`), env); exact {
		t.Error(`"$@" structure depends on $#`)
	}
	env.Bind("IFS", Const(":"))
	if _, exact = FieldsOf(parse("$F"), env); exact {
		t.Error("non-default IFS must disable the splitter")
	}
}

// --- golden env dumps over the example scripts ---

// TestExampleEnvDumpsGolden locks the abstract final state of every
// example script: the exact constants the value-flow layer proves are
// part of the analysis contract (regenerate with -update).
func TestExampleEnvDumpsGolden(t *testing.T) {
	for dir, src := range exampleScripts(t) {
		t.Run(dir, func(t *testing.T) {
			script, err := syntax.Parse(src)
			if err != nil {
				t.Fatal(err)
			}
			env, _ := WalkValues(script, nil, nil)
			dump := env.Dump()
			golden := filepath.Join("testdata", "envdump", dir+".golden")
			if *update {
				if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(golden, []byte(dump), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("missing golden (run go test -run EnvDumps -update): %v", err)
			}
			if dump != string(want) {
				t.Errorf("env dump drifted:\ngot:\n%s\nwant:\n%s", dump, want)
			}
		})
	}
}

// TestTrimByPatternIsExact: a trim whose pattern is static text is
// evaluated as the expander evaluates it, glob characters included; one
// whose pattern needs expanding stays ⊤.
func TestTrimByPatternIsExact(t *testing.T) {
	env := NewEnv(nil)
	env.Bind("f", Const("/d/a.b.txt"))
	for _, c := range []struct {
		src  string
		want AbsVal
	}{
		{"${f##*/}", Const("a.b.txt")},
		{"${f#*/}", Const("d/a.b.txt")},
		{"${f%.*}", Const("/d/a.b")},
		{"${f%%.*}", Const("/d/a")},
		{"${f%[.]txt}", Const("/d/a.b")},
		{`${f%".txt"}`, Const("/d/a.b")},
		{`${f%"*"}`, Const("/d/a.b.txt")}, // a quoted metacharacter matches itself
		{`${f%'.'txt}`, Const("/d/a.b")},
		{`${f%\.*}`, Const("/d/a.b")},
		{"${f#$g}", Top()},
	} {
		s, err := syntax.Parse("echo " + c.src)
		if err != nil {
			t.Fatal(err)
		}
		w := s.Stmts[0].AndOr.First.Cmds[0].(*syntax.SimpleCommand).Args[1]
		if got := EvalWordAbs(w, env); got != c.want {
			t.Errorf("%s = %v, want %v", c.src, got, c.want)
		}
	}
}
