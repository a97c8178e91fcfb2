package expand

import (
	"bytes"
	"fmt"
	"os"
	osexec "os/exec"
	"path"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// arithTable is the reference for the one arithmetic parser: every row
// states the value and the variables afterwards (or that the expression is
// an error) literally, and TestArithAgreesWithDash checks the same rows
// against an implementation this codebase did not write. Each row starts
// from x=4 y=10, a and b unset, and r=1 readonly; after lists only the
// variables that end up different.
var arithTable = []struct {
	expr  string
	want  int64
	after string
	err   bool
}{
	// precedence and associativity
	{expr: "1+2*3", want: 7},
	{expr: "(1+2)*3", want: 9},
	{expr: "10 - 2 - 3", want: 5},
	{expr: "100 / 5 / 2", want: 10},
	{expr: "2 * 3 % 4", want: 2},
	{expr: "1 << 2 << 1", want: 8},
	{expr: "1 + 2 << 3", want: 24},
	{expr: "1 < 2 < 3", want: 1},
	{expr: "3 < 5 == 1", want: 1},
	{expr: "6 & 3 == 3", want: 0},
	{expr: "1 | 2 ^ 3 & 4", want: 3},
	{expr: "1 || 0 && 0", want: 1},
	{expr: "5 -3", want: 2},
	{expr: "5- -3", want: 8},
	// every binary operator
	{expr: "10/3", want: 3}, {expr: "10%3", want: 1}, {expr: "7/-2", want: -3}, {expr: "-7%3", want: -1},
	{expr: "1<<5", want: 32}, {expr: "256>>4", want: 16},
	{expr: "1<2", want: 1}, {expr: "2<=2", want: 1}, {expr: "3>4", want: 0}, {expr: "4>=4", want: 1},
	{expr: "1==1", want: 1}, {expr: "1!=1", want: 0},
	{expr: "5&3", want: 1}, {expr: "5|3", want: 7}, {expr: "5^3", want: 6},
	// unary
	{expr: "~0", want: -1}, {expr: "!5", want: 0}, {expr: "!0", want: 1}, {expr: "-7", want: -7},
	{expr: "+7", want: 7}, {expr: "- -3", want: 3}, {expr: "--3", want: 3}, {expr: "++x", want: 4},
	{expr: "~x", want: -5}, {expr: "!x", want: 0}, {expr: "-x", want: -4},
	// literals
	{expr: "0x1f", want: 31}, {expr: "010", want: 8}, {expr: "0X2A", want: 42},
	{expr: "9999999999999999999999", want: 9223372036854775807},
	{expr: "9223372036854775807+1", want: -9223372036854775808},
	// variables
	{expr: "x", want: 4}, {expr: "x+1", want: 5}, {expr: "$x*2", want: 8}, {expr: "x<y", want: 1},
	{expr: "zz", want: 0},
	// && || ?: evaluate only what they need
	{expr: "1 && 2", want: 1}, {expr: "1 && 0", want: 0}, {expr: "0 || 0", want: 0}, {expr: "0 || 9", want: 1},
	{expr: "5 || 0", want: 1}, {expr: "2 && 3", want: 1},
	{expr: "0 && (a=5)", want: 0},
	{expr: "1 && (a=5)", want: 1, after: "a=5"},
	{expr: "1 || (a=5)", want: 1},
	{expr: "0 || (a=5)", want: 1, after: "a=5"},
	{expr: "1 || 1/0", want: 1},
	{expr: "0 && 1/0", want: 0},
	{expr: "1 ? 10 : 20", want: 10}, {expr: "0 ? 10 : 20", want: 20}, {expr: "1?2:3", want: 2},
	{expr: "x==4?y:0", want: 10},
	{expr: "1 ? 2 : 0 ? 3 : 4", want: 2},
	{expr: "0 ? 2 : 0 ? 3 : 4", want: 4},
	{expr: "1 ? 0 ? 5 : 6 : 7", want: 6},
	{expr: "1 ? a=1 : (b=2)", want: 1, after: "a=1"},
	{expr: "0 ? a=1 : (b=2)", want: 2, after: "b=2"},
	{expr: "1 ? x+=5 : (x+=7)", want: 9, after: "x=9"},
	{expr: "0 ? 1/0 : 3", want: 3},
	{expr: "1 ? 3 : 1/0", want: 3},
	// assignment: plain, and op= for every operator the table marks
	{expr: "y=5", want: 5, after: "y=5"},
	{expr: "x=y=3", want: 3, after: "x=3 y=3"},
	{expr: "x = 1 == 1", want: 1, after: "x=1"},
	{expr: "x = y == 10 ? 1 : 2", want: 1, after: "x=1"},
	{expr: "x = (y += 1) * 2", want: 22, after: "x=22 y=11"},
	{expr: "(x=1) + (x=2) * x", want: 5, after: "x=2"},
	{expr: "x += (x=5)", want: 10, after: "x=10"},
	{expr: "y+=2", want: 12, after: "y=12"},
	{expr: "y-=2", want: 8, after: "y=8"},
	{expr: "y*=3", want: 30, after: "y=30"},
	{expr: "y/=3", want: 3, after: "y=3"},
	{expr: "y%=3", want: 1, after: "y=1"},
	{expr: "x<<=2", want: 16, after: "x=16"},
	{expr: "x >>= 1", want: 2, after: "x=2"},
	{expr: "x&=6", want: 4, after: "x=4"},
	{expr: "x |= 3", want: 7, after: "x=7"},
	{expr: "x^=5", want: 1, after: "x=1"},
	{expr: "a+=1", want: 1, after: "a=1"},
	// readonly
	{expr: "r", want: 1}, {expr: "r+1", want: 2},
	{expr: "0 && (r=2)", want: 0},
	{expr: "r=2", err: true}, {expr: "r+=0", err: true}, {expr: "1 ? r=2 : 3", err: true},
	// errors
	{expr: "1/0", err: true}, {expr: "5%0", err: true}, {expr: "y/=0", err: true}, {expr: "y%=0", err: true},
	{expr: "1 +", err: true}, {expr: "(1", err: true}, {expr: "1 ? 2", err: true}, {expr: "@", err: true},
	{expr: "1 // 2", err: true}, {expr: "", err: true}, {expr: " ", err: true},
	{expr: "08", err: true}, {expr: "1a", err: true}, {expr: "0x", err: true}, {expr: "0b1", err: true},
	{expr: "!=5", err: true}, {expr: "x++", err: true}, {expr: "2**3", err: true}, {expr: "1 , 2", err: true},
	{expr: "1 + x = 5", err: true}, {expr: "0 ? a=1 : b=2", err: true}, {expr: "(x)=5", err: true},
	{expr: "x < = 2", err: true}, {expr: "x &&= 2", err: true}, {expr: "x ==", err: true},
}

var arithStart = map[string]string{"x": "4", "y": "10", "r": "1"}

// arithState renders the variables the table tracks.
func arithState(vars map[string]string) string {
	return fmt.Sprintf("x=%s y=%s a=%s b=%s r=%s", vars["x"], vars["y"], vars["a"], vars["b"], vars["r"])
}

// arithAfter applies a row's `after` overrides to the starting state.
func arithAfter(after string) string {
	vars := map[string]string{}
	for k, v := range arithStart {
		vars[k] = v
	}
	for _, kv := range strings.Fields(after) {
		k, v, _ := strings.Cut(kv, "=")
		vars[k] = v
	}
	return arithState(vars)
}

func TestArithTable(t *testing.T) {
	for _, c := range arithTable {
		vars := map[string]string{}
		for k, v := range arithStart {
			vars[k] = v
		}
		lookup := func(n string) string { return vars[n] }
		assign := func(n, v string) error {
			if n == "r" {
				return fmt.Errorf("%s: readonly variable", n)
			}
			vars[n] = v
			return nil
		}
		var got int64
		a, err := CompileArithExpr(c.expr)
		if err == nil {
			got, err = a.Eval(&ArithEnv{Lookup: lookup, Assign: assign})
		}
		if c.err {
			if err == nil {
				t.Errorf("%q = %d, want an error", c.expr, got)
			}
			continue
		}
		if err != nil {
			t.Errorf("%q: %v", c.expr, err)
			continue
		}
		if got != c.want {
			t.Errorf("%q = %d, want %d", c.expr, got, c.want)
		}
		if state, want := arithState(vars), arithAfter(c.after); state != want {
			t.Errorf("%q leaves %s, want %s", c.expr, state, want)
		}
	}
}

// TestArithAgreesWithDash runs arithTable through /bin/sh when that is
// dash: value, variables afterwards and error-or-not must be the table's.
func TestArithAgreesWithDash(t *testing.T) {
	if target, err := os.Readlink("/bin/sh"); err != nil || path.Base(target) != "dash" {
		t.Skip("/bin/sh is not dash")
	}
	for _, c := range arithTable {
		cmd := osexec.Command("/bin/sh", "-c",
			`x=4; y=10; readonly r=1; v=$((`+c.expr+`)); echo "$v x=$x y=$y a=$a b=$b r=$r"`)
		cmd.Env = []string{"LC_ALL=C", "PATH=/nonexistent"}
		var out bytes.Buffer
		cmd.Stdout = &out
		err := cmd.Run()
		if c.err {
			if err == nil {
				t.Errorf("%q: dash prints %q, the table wants an error", c.expr, out.String())
			}
			continue
		}
		if err != nil {
			t.Errorf("%q: dash fails (%v), the table wants %d", c.expr, err, c.want)
			continue
		}
		if want := fmt.Sprintf("%d %s\n", c.want, arithAfter(c.after)); out.String() != want {
			t.Errorf("%q: dash prints %q, the table wants %q", c.expr, out.String(), want)
		}
	}
}

// TestCompileArithReuse evaluates one compiled expression against many
// bindings, as a loop's word plan does.
func TestCompileArithReuse(t *testing.T) {
	a, err := CompileArithExpr("i+1")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		iv := strconv.Itoa(i)
		got, err := a.Eval(&ArithEnv{Lookup: func(string) string { return iv }})
		if err != nil || got != int64(i+1) {
			t.Fatalf("i=%d: got %d err %v", i, got, err)
		}
	}
}

// TestArithCacheEviction fills the cache past its bound and checks it
// still answers correctly after the epoch reset.
func TestArithCacheEviction(t *testing.T) {
	for i := 0; i < maxArithCache+10; i++ {
		expr := strconv.Itoa(i) + "+1"
		a, err := CompileArithExpr(expr)
		if err != nil {
			t.Fatal(err)
		}
		got, err := a.Eval(&ArithEnv{})
		if err != nil || got != int64(i+1) {
			t.Fatalf("%s: got %d err %v", expr, got, err)
		}
	}
}

func TestArithNames(t *testing.T) {
	cases := []struct {
		expr           string
		reads, assigns []string
	}{
		{"1+2", nil, nil},
		{"x=1", nil, []string{"x"}},
		{"x+=y", []string{"x", "y"}, []string{"x"}},
		{"x = x + 1", []string{"x"}, []string{"x"}},
		{"a = b = c", []string{"c"}, []string{"a", "b"}},
		{"0 ? (p=1) : q", []string{"q"}, []string{"p"}},
		{"1 || (p = q)", []string{"q"}, []string{"p"}},
		{"0x1f + 010", nil, nil},
		{"$n * 2", []string{"n"}, nil},
		{"n + n + m", []string{"n", "m"}, nil},
		{"x == 1", []string{"x"}, nil},
		{"x <= 1", []string{"x"}, nil},
		{"x <<= y", []string{"x", "y"}, []string{"x"}},
	}
	for _, c := range cases {
		a, err := CompileArithExpr(c.expr)
		if err != nil {
			t.Errorf("%q: %v", c.expr, err)
			continue
		}
		reads, assigns := a.Names()
		if !reflect.DeepEqual(reads, c.reads) || !reflect.DeepEqual(assigns, c.assigns) {
			t.Errorf("%q: reads %v assigns %v, want %v and %v", c.expr, reads, assigns, c.reads, c.assigns)
		}
	}
	// Text that is not an expression until it has been expanded has no
	// names to give: consumers take their conservative arm on the error.
	for _, expr := range []string{"${z}", "$(echo 1) + 1", "`echo 1`", "$1 + 1", "$? + 1", "$x = 5", "x +"} {
		if _, err := CompileArithExpr(expr); err == nil {
			t.Errorf("%q compiles; it must not before expansion", expr)
		}
	}
}
