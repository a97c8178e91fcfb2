package expand

import (
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"jash/internal/syntax"
	"jash/internal/vfs"
)

// testExpander builds an expander over the given variables and params.
func testExpander(vars map[string]string, params ...string) *Expander {
	return &Expander{
		Lookup: func(name string) (string, bool) {
			v, ok := vars[name]
			return v, ok
		},
		Set: func(name, value string) error {
			vars[name] = value
			return nil
		},
		Params: params,
		Name0:  "jash",
		Status: 0,
		PID:    42,
	}
}

// wordOf parses `echo <src>` and returns the second word.
func wordOf(t *testing.T, src string) *syntax.Word {
	t.Helper()
	s, err := syntax.Parse("echo " + src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	sc := s.Stmts[0].AndOr.First.Cmds[0].(*syntax.SimpleCommand)
	if len(sc.Args) < 2 {
		t.Fatalf("no word in %q", src)
	}
	return sc.Args[1]
}

func expandOne(t *testing.T, x *Expander, src string) []string {
	t.Helper()
	fields, err := x.ExpandWord(wordOf(t, src))
	if err != nil {
		t.Fatalf("expand %q: %v", src, err)
	}
	if len(fields) == 0 {
		return nil // normalize for DeepEqual against nil expectations
	}
	return fields
}

func TestExpandLiteralAndQuotes(t *testing.T) {
	x := testExpander(map[string]string{})
	cases := []struct {
		src  string
		want []string
	}{
		{`plain`, []string{"plain"}},
		{`'single quoted'`, []string{"single quoted"}},
		{`"double quoted"`, []string{"double quoted"}},
		{`""`, []string{""}},
		{`''`, []string{""}},
		{`mix'ed 'word`, []string{"mixed word"}},
		{`esc\ aped`, []string{"esc aped"}},
	}
	for _, c := range cases {
		if got := expandOne(t, x, c.src); !reflect.DeepEqual(got, c.want) {
			t.Errorf("%q -> %q, want %q", c.src, got, c.want)
		}
	}
}

func TestExpandVariables(t *testing.T) {
	x := testExpander(map[string]string{"FOO": "hello", "EMPTY": "", "SP": "a b"})
	cases := []struct {
		src  string
		want []string
	}{
		{`$FOO`, []string{"hello"}},
		{`${FOO}`, []string{"hello"}},
		{`"$FOO"`, []string{"hello"}},
		{`pre${FOO}post`, []string{"prehellopost"}},
		{`$UNSET`, nil},
		{`"$UNSET"`, []string{""}},
		{`$SP`, []string{"a", "b"}},
		{`"$SP"`, []string{"a b"}},
		{`$EMPTY`, nil},
	}
	for _, c := range cases {
		if got := expandOne(t, x, c.src); !reflect.DeepEqual(got, c.want) {
			t.Errorf("%q -> %#v, want %#v", c.src, got, c.want)
		}
	}
}

func TestExpandParamOps(t *testing.T) {
	vars := map[string]string{"SET": "val", "EMPTY": ""}
	x := testExpander(vars)
	cases := []struct {
		src  string
		want []string
	}{
		{`${SET:-def}`, []string{"val"}},
		{`${UNSET:-def}`, []string{"def"}},
		{`${EMPTY:-def}`, []string{"def"}},
		{`${EMPTY-def}`, nil}, // set-but-null without colon: use value ""
		{`${SET:+alt}`, []string{"alt"}},
		{`${UNSET:+alt}`, nil},
		{`${#SET}`, []string{"3"}},
		{`${UNSET:-$SET}`, []string{"val"}},
	}
	for _, c := range cases {
		if got := expandOne(t, x, c.src); !reflect.DeepEqual(got, c.want) {
			t.Errorf("%q -> %#v, want %#v", c.src, got, c.want)
		}
	}
}

func TestExpandAssignOp(t *testing.T) {
	vars := map[string]string{}
	x := testExpander(vars)
	got := expandOne(t, x, `${NEW:=assigned}`)
	if !reflect.DeepEqual(got, []string{"assigned"}) {
		t.Errorf("got %#v", got)
	}
	if vars["NEW"] != "assigned" {
		t.Errorf("variable not assigned: %q", vars["NEW"])
	}
}

func TestExpandErrorOp(t *testing.T) {
	x := testExpander(map[string]string{})
	_, err := x.ExpandWord(wordOf(t, `${MISSING:?custom message}`))
	if err == nil {
		t.Fatal("expected error")
	}
	ee, ok := err.(*ExpandError)
	if !ok || !ee.Fatal || !strings.Contains(ee.Msg, "custom message") {
		t.Errorf("err = %#v", err)
	}
}

func TestExpandTrims(t *testing.T) {
	x := testExpander(map[string]string{
		"FILE": "dir/sub/name.tar.gz",
	})
	cases := []struct {
		src  string
		want string
	}{
		{`${FILE%.gz}`, "dir/sub/name.tar"},
		{`${FILE%.*}`, "dir/sub/name.tar"},
		{`${FILE%%.*}`, "dir/sub/name"},
		{`${FILE#dir/}`, "sub/name.tar.gz"},
		{`${FILE#*/}`, "sub/name.tar.gz"},
		{`${FILE##*/}`, "name.tar.gz"},
		{`${FILE%nomatch}`, "dir/sub/name.tar.gz"},
	}
	for _, c := range cases {
		got := expandOne(t, x, c.src)
		if len(got) != 1 || got[0] != c.want {
			t.Errorf("%q -> %#v, want %q", c.src, got, c.want)
		}
	}
}

func TestExpandSpecialParams(t *testing.T) {
	x := testExpander(map[string]string{}, "one", "two three")
	x.Status = 7
	cases := []struct {
		src  string
		want []string
	}{
		{`$1`, []string{"one"}},
		{`$2`, []string{"two", "three"}},
		{`"$2"`, []string{"two three"}},
		{`$3`, nil},
		{`$#`, []string{"2"}},
		{`$?`, []string{"7"}},
		{`$$`, []string{"42"}},
		{`$0`, []string{"jash"}},
	}
	for _, c := range cases {
		if got := expandOne(t, x, c.src); !reflect.DeepEqual(got, c.want) {
			t.Errorf("%q -> %#v, want %#v", c.src, got, c.want)
		}
	}
}

func TestExpandAtStar(t *testing.T) {
	x := testExpander(map[string]string{}, "a b", "c")
	got := expandOne(t, x, `"$@"`)
	if !reflect.DeepEqual(got, []string{"a b", "c"}) {
		t.Errorf(`"$@" -> %#v`, got)
	}
	got = expandOne(t, x, `$@`)
	if !reflect.DeepEqual(got, []string{"a", "b", "c"}) {
		t.Errorf(`$@ -> %#v`, got)
	}
	got = expandOne(t, x, `"$*"`)
	if !reflect.DeepEqual(got, []string{"a b c"}) {
		t.Errorf(`"$*" -> %#v`, got)
	}
	got = expandOne(t, x, `pre"$@"`)
	if !reflect.DeepEqual(got, []string{"prea b", "c"}) {
		t.Errorf(`pre"$@" -> %#v`, got)
	}
	// Zero params: "$@" produces zero fields.
	x0 := testExpander(map[string]string{})
	got = expandOne(t, x0, `"$@"`)
	if len(got) != 0 {
		t.Errorf(`empty "$@" -> %#v, want none`, got)
	}
}

func TestExpandFieldSplitting(t *testing.T) {
	x := testExpander(map[string]string{
		"V":   "  a   b  ",
		"CSV": "x:y::z",
		"IFS": ":",
	})
	got := expandOne(t, x, `$CSV`)
	if !reflect.DeepEqual(got, []string{"x", "y", "", "z"}) {
		t.Errorf("IFS=: split -> %#v", got)
	}
	delete := x
	_ = delete
	// Default IFS splits on whitespace runs.
	x2 := testExpander(map[string]string{"V": "  a   b  "})
	got = expandOne(t, x2, `$V`)
	if !reflect.DeepEqual(got, []string{"a", "b"}) {
		t.Errorf("default split -> %#v", got)
	}
}

func TestExpandCmdSubst(t *testing.T) {
	x := testExpander(map[string]string{})
	x.CmdSubst = func(stmts []*syntax.Stmt) (string, error) {
		return "sub out\n", nil
	}
	got := expandOne(t, x, `$(anything)`)
	if !reflect.DeepEqual(got, []string{"sub", "out"}) {
		t.Errorf("cmd subst -> %#v", got)
	}
	got = expandOne(t, x, `"$(anything)"`)
	if !reflect.DeepEqual(got, []string{"sub out"}) {
		t.Errorf("quoted cmd subst -> %#v", got)
	}
	// Without a CmdSubst hook it must fail, not silently expand.
	x2 := testExpander(map[string]string{})
	if _, err := x2.ExpandWord(wordOf(t, `$(oops)`)); err == nil {
		t.Error("expected error without CmdSubst hook")
	}
}

func TestExpandArith(t *testing.T) {
	x := testExpander(map[string]string{"N": "5"})
	cases := []struct {
		src  string
		want string
	}{
		{`$((1 + 2))`, "3"},
		{`$((2 * 3 + 4))`, "10"},
		{`$((2 + 3 * 4))`, "14"},
		{`$(( (2+3) * 4 ))`, "20"},
		{`$((N * 2))`, "10"},
		{`$(($N * 2))`, "10"},
		{`$((10 / 3))`, "3"},
		{`$((10 % 3))`, "1"},
		{`$((1 << 4))`, "16"},
		{`$((5 > 3))`, "1"},
		{`$((5 < 3))`, "0"},
		{`$((5 == 5 && 2 > 1))`, "1"},
		{`$((0 || 0))`, "0"},
		{`$((1 ? 10 : 20))`, "10"},
		{`$((0 ? 10 : 20))`, "20"},
		{`$((-3 + 1))`, "-2"},
		{`$((!0))`, "1"},
		{`$((~0))`, "-1"},
		{`$((0x10))`, "16"},
		{`$((010))`, "8"},
		{`$((UNSET + 1))`, "1"},
	}
	for _, c := range cases {
		got := expandOne(t, x, c.src)
		if len(got) != 1 || got[0] != c.want {
			t.Errorf("%q -> %#v, want %q", c.src, got, c.want)
		}
	}
}

func TestExpandArithAssign(t *testing.T) {
	vars := map[string]string{"I": "3"}
	x := testExpander(vars)
	got := expandOne(t, x, `$((I = I + 1))`)
	if len(got) != 1 || got[0] != "4" || vars["I"] != "4" {
		t.Errorf("assign -> %#v, I=%q", got, vars["I"])
	}
	expandOne(t, x, `$((I += 10))`)
	if vars["I"] != "14" {
		t.Errorf("+= gave %q", vars["I"])
	}
}

func TestExpandArithDivZero(t *testing.T) {
	x := testExpander(map[string]string{})
	if _, err := x.ExpandWord(wordOf(t, `$((1/0))`)); err == nil {
		t.Error("division by zero should error")
	}
}

func TestExpandGlob(t *testing.T) {
	fs := vfs.New()
	for _, p := range []string{"/w/a.txt", "/w/b.txt", "/w/c.log"} {
		fs.WriteFile(p, nil)
	}
	x := testExpander(map[string]string{})
	x.FS = fs
	x.Dir = "/w"
	got := expandOne(t, x, `*.txt`)
	if !reflect.DeepEqual(got, []string{"a.txt", "b.txt"}) {
		t.Errorf("glob -> %#v", got)
	}
	// Quoted pattern must not glob.
	got = expandOne(t, x, `'*.txt'`)
	if !reflect.DeepEqual(got, []string{"*.txt"}) {
		t.Errorf("quoted glob -> %#v", got)
	}
	got = expandOne(t, x, `\*.txt`)
	if !reflect.DeepEqual(got, []string{"*.txt"}) {
		t.Errorf("escaped glob -> %#v", got)
	}
	// No match: pattern stays literal.
	got = expandOne(t, x, `*.pdf`)
	if !reflect.DeepEqual(got, []string{"*.pdf"}) {
		t.Errorf("no-match glob -> %#v", got)
	}
	// NoGlob (set -f).
	x.NoGlob = true
	got = expandOne(t, x, `*.txt`)
	if !reflect.DeepEqual(got, []string{"*.txt"}) {
		t.Errorf("noglob -> %#v", got)
	}
}

func TestExpandGlobFromVariable(t *testing.T) {
	// Unquoted variable values undergo pathname expansion: the dynamism
	// the paper's spell example leans on ($FILES may contain globs).
	fs := vfs.New()
	fs.WriteFile("/data/f1.txt", nil)
	fs.WriteFile("/data/f2.txt", nil)
	x := testExpander(map[string]string{"FILES": "*.txt"})
	x.FS = fs
	x.Dir = "/data"
	got := expandOne(t, x, `$FILES`)
	if !reflect.DeepEqual(got, []string{"f1.txt", "f2.txt"}) {
		t.Errorf("$FILES glob -> %#v", got)
	}
}

func TestExpandTilde(t *testing.T) {
	x := testExpander(map[string]string{"HOME": "/home/me"})
	got := expandOne(t, x, `~`)
	if !reflect.DeepEqual(got, []string{"/home/me"}) {
		t.Errorf("~ -> %#v", got)
	}
	got = expandOne(t, x, `~/sub`)
	if !reflect.DeepEqual(got, []string{"/home/me/sub"}) {
		t.Errorf("~/sub -> %#v", got)
	}
	got = expandOne(t, x, `'~'`)
	if !reflect.DeepEqual(got, []string{"~"}) {
		t.Errorf("quoted ~ -> %#v", got)
	}
	got = expandOne(t, x, `~otheruser`)
	if !reflect.DeepEqual(got, []string{"~otheruser"}) {
		t.Errorf("~user -> %#v", got)
	}
}

func TestExpandString(t *testing.T) {
	x := testExpander(map[string]string{"A": "x y"})
	got, err := x.ExpandString(wordOf(t, `$A-"b c"`))
	if err != nil || got != "x y-b c" {
		t.Errorf("ExpandString = %q, %v", got, err)
	}
}

func TestAnalyzeWord(t *testing.T) {
	cases := []struct {
		src  string
		vars []string
		safe bool
	}{
		{`plain`, nil, true},
		{`$FOO`, []string{"FOO", "IFS"}, true},
		{`"$FOO"`, []string{"FOO"}, true},
		{`${A:-$B}`, []string{"A", "B", "IFS"}, true},
		{`$(ls)`, nil, false},
		{"`ls`", nil, false},
		{`${X=1}`, []string{"IFS", "X"}, false},
		{`${X?die}`, []string{"IFS", "X"}, false},
		{`$((a + b))`, []string{"a", "b"}, true},
		{`$((a = 1))`, []string{"a"}, false},
		{`*.txt`, nil, true},
		{`~/x`, []string{"HOME"}, true},
		{`$(echo $INNER)`, []string{"INNER"}, false},
	}
	for _, c := range cases {
		d := AnalyzeWord(wordOf(t, c.src))
		if c.vars != nil && !reflect.DeepEqual(d.Vars, c.vars) {
			t.Errorf("%q vars = %#v, want %#v", c.src, d.Vars, c.vars)
		}
		if got := d.SafeToExpandEarly(); got != c.safe {
			t.Errorf("%q safe = %v, want %v", c.src, got, c.safe)
		}
	}
}

func TestAnalyzeGlobDetection(t *testing.T) {
	if d := AnalyzeWord(wordOf(t, `*.go`)); !d.HasGlob {
		t.Error("*.go should report HasGlob")
	}
	if d := AnalyzeWord(wordOf(t, `'*.go'`)); d.HasGlob {
		t.Error("quoted pattern should not report HasGlob")
	}
	if d := AnalyzeWord(wordOf(t, `$(x)`)); !d.HasCmdSubst {
		t.Error("$(x) should report HasCmdSubst")
	}
}

// Property: a double-quoted variable always expands to exactly its value.
func TestQuickQuotedExpansionIdentity(t *testing.T) {
	f := func(val string) bool {
		if strings.ContainsAny(val, "\x00") {
			return true
		}
		x := testExpander(map[string]string{"V": val})
		fields, err := x.ExpandWord(wordOf2(`"$V"`))
		if err != nil {
			return false
		}
		return len(fields) == 1 && fields[0] == val
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: unquoted expansion then rejoin loses only IFS structure —
// every output field is a substring of the value, in order.
func TestQuickUnquotedFieldsAreOrderedSubstrings(t *testing.T) {
	f := func(val string) bool {
		if strings.ContainsAny(val, "\\*?[") {
			return true // globbing/escapes change the text by design
		}
		x := testExpander(map[string]string{"V": val})
		fields, err := x.ExpandWord(wordOf2(`$V`))
		if err != nil {
			return false
		}
		rest := val
		for _, fld := range fields {
			idx := strings.Index(rest, fld)
			if idx < 0 {
				return false
			}
			rest = rest[idx+len(fld):]
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// wordOf2 is wordOf without a *testing.T, for quick.Check functions.
func wordOf2(src string) *syntax.Word {
	s, err := syntax.Parse("echo " + src)
	if err != nil {
		panic(err)
	}
	return s.Stmts[0].AndOr.First.Cmds[0].(*syntax.SimpleCommand).Args[1]
}

func TestNoUnsetExpander(t *testing.T) {
	x := testExpander(map[string]string{})
	x.NoUnset = true
	if _, err := x.ExpandWord(wordOf2(`$NOPE`)); err == nil {
		t.Error("set -u: unset reference should error")
	}
	if got, err := x.ExpandString(wordOf2(`${NOPE:-fallback}`)); err != nil || got != "fallback" {
		t.Errorf("default under -u: %q, %v", got, err)
	}
}

func TestArithParameterPreExpansion(t *testing.T) {
	x := testExpander(map[string]string{"N": "5"})
	cases := []struct{ src, want string }{
		{`$(( ${N} * 2 ))`, "10"},
		{`$(( ${MISSING:-3} + 1 ))`, "4"},
		{`$(( ${N:+2} + 1 ))`, "3"},
	}
	for _, c := range cases {
		got := expandOne(t, x, c.src)
		if len(got) != 1 || got[0] != c.want {
			t.Errorf("%s -> %v, want %s", c.src, got, c.want)
		}
	}
}

func TestArithCmdSubst(t *testing.T) {
	x := testExpander(map[string]string{})
	x.CmdSubst = func([]*syntax.Stmt) (string, error) { return "7\n", nil }
	got := expandOne(t, x, `$(( $(anything) + 1 ))`)
	if len(got) != 1 || got[0] != "8" {
		t.Errorf("got %v", got)
	}
	// Without a hook, it must fail — and the analysis must flag it.
	x2 := testExpander(map[string]string{})
	if _, err := x2.ExpandWord(wordOf2(`$(( $(cmd) ))`)); err == nil {
		t.Error("expected error without CmdSubst hook")
	}
	d := AnalyzeWord(wordOf2(`$(( $(cmd) + 1 ))`))
	if !d.HasCmdSubst || d.SafeToExpandEarly() {
		t.Errorf("arith cmd-subst analysis: %+v", d)
	}
}
