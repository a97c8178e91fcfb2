package dfg

import (
	"errors"
	"slices"
	"strings"
	"testing"

	"jash/internal/expand"
	"jash/internal/syntax"
	"jash/internal/vfs"
)

func parseStmt(t *testing.T, src string) *syntax.Stmt {
	t.Helper()
	script, err := syntax.Parse(src)
	if err != nil || len(script.Stmts) != 1 {
		t.Fatalf("parse %q: %v (%d statements)", src, err, len(script.Stmts))
	}
	return script.Stmts[0]
}

// liveExpander is the state a running shell would hand over: variables,
// positional parameters, a filesystem holding the files they name.
func liveExpander() *expand.Expander {
	fs := vfs.New()
	for _, p := range []string{"/logs/a.log", "/logs/b.log", "/in", "/p1"} {
		fs.WriteFile(p, []byte("a\n"))
	}
	vars := map[string]string{"f": "/in", "out": "res", "empty": ""}
	return &expand.Expander{
		Lookup: func(name string) (string, bool) { v, ok := vars[name]; return v, ok },
		Params: []string{"/p1"},
		FS:     fs,
		Dir:    "/work",
	}
}

func wantRefusal(t *testing.T, src string, x *expand.Expander, aot bool, reason string) {
	t.Helper()
	g, err := FromStmt(parseStmt(t, src), lib, x, aot)
	if g != nil || !errors.Is(err, ErrNotDataflow) {
		t.Errorf("%q: graph=%v err=%v, want an ErrNotDataflow refusal", src, g != nil, err)
		return
	}
	if !strings.Contains(err.Error(), reason) {
		t.Errorf("%q: refused with %q, want the reason to contain %q", src, err, reason)
	}
	// The syntax alone decides a shape refusal; every other one read the
	// shell's state, so it must not be remembered.
	if shape := strings.Contains(reason, "safe to expand") || strings.Contains(reason, "shell state") ||
		slices.Contains(shapeReasons, reason); errors.Is(err, ErrShape) != shape {
		t.Errorf("%q: refused with %q: errors.Is(err, ErrShape) = %v, want %v", src, err, !shape, shape)
	}
}

// shapeReasons are the reasons of TestRegionShapeRules' rows.
var shapeReasons = []string{"background job", "negated pipeline", "and-or list", "compound command",
	"assignment prefix", "no command word", "a redirection other than", "not in the specification library",
	"reads the terminal"}

// TestRegionShapeRules: one row per phase-1 rule, each refused with its own
// reason although every word in it would expand.
func TestRegionShapeRules(t *testing.T) {
	for _, c := range []struct{ src, reason string }{
		{"cat /in | sort &", "background job"},
		{"! cat /in | sort", "negated pipeline"},
		{"cat /in | sort && echo ok", "and-or list"},
		{"cat /in | sort || echo no", "and-or list"},
		{"cat /in | { sort; }", "compound command"},
		{"cat /in | while read l; do echo $l; done", "compound command"},
		{"X=1 cat /in | sort", "assignment prefix"},
		{"X=1", "assignment prefix"},
		{"cat /in | >/out", "no command word"},
		{"cat /in | sort 2>/err", "a redirection other than"},
		{"cat /in | sort 2>&1", "a redirection other than"},
		{"cat /in >/mid | sort", "a redirection other than"},
		{"cat /in | sort </other", "a redirection other than"},
		{"cat 0</in | sort 1>/out <<EOF\nx\nEOF", "a redirection other than"},
		{"sort </a </b", "a redirection other than"},
		{"cat /in | sort >/a >>/b", "a redirection other than"},
		{"frobnicate /in | sort", "not in the specification library"},
		{"cat /in | myfunc", "not in the specification library"},
		{"[ -f /in ]", "not in the specification library"},
		{"tr a-z A-Z", "reads the terminal"},
		{`echo "$kind"`, "reads the terminal"},
		{"seq 1 100 | sort -n", "reads the terminal"},
	} {
		wantRefusal(t, c.src, liveExpander(), false, c.reason)
	}
}

// TestRegionWordAndCommandRefusals: statements of the right shape that
// phase 2 (words) or phase 3 (commands) turns away.
func TestRegionWordAndCommandRefusals(t *testing.T) {
	noFS := liveExpander()
	noFS.FS = nil
	strict := liveExpander()
	strict.NoUnset = true
	for _, c := range []struct {
		src    string
		x      *expand.Expander
		reason string
	}{
		{"cat ${v:=/in} | sort", liveExpander(), "not safe to expand early"},
		{"cat $(echo /in) | sort", liveExpander(), "not safe to expand early"},
		{"cat /in | head -n $((n+=1))", liveExpander(), "not safe to expand early"},
		{"cat /in | sort >${o:?unset}", liveExpander(), "not safe to expand early"},
		{"cat /in | sort >$(echo /out)", liveExpander(), "not safe to expand early"},
		{"cat /logs/*.log | sort", noFS, "no filesystem"},
		{"cat $nope /in | sort", strict, "nope: parameter not set"},
		{"cat /in | sort >$nope", strict, "nope: parameter not set"},
		{"$empty | sort", liveExpander(), "expands to no fields"},
		{"\"$f\" | sort", liveExpander(), `unknown command "/in"`},
		{"cat /in | tee /x", liveExpander(), `side-effectful stage "tee"`},
		{"tee /x </in", liveExpander(), `side-effectful stage "tee"`},
		{"sort", liveExpander(), "a source is the terminal"},
		{"cat - /in | sort", liveExpander(), "a source is the terminal"},
		{"sort -u $empty", liveExpander(), "a source is the terminal"},
		{"cat /missing | sort", liveExpander(), "source /missing does not exist"},
		{"sort <nope", liveExpander(), "source /work/nope does not exist"},
		{"cat /in | comm - nope", liveExpander(), "source nope does not exist"},
	} {
		wantRefusal(t, c.src, c.x, false, c.reason)
	}
}

// TestRegionAccepted: what passes all three phases is FromPipeline's graph of
// the words as the given expander expands them, with the redirect targets
// resolved against its directory.
func TestRegionAccepted(t *testing.T) {
	for _, c := range []struct {
		src   string
		aot   bool
		argvs [][]string
		b     Binding
	}{
		{src: "cat $f \"$1\" | tr a-z A-Z | sort >>$out",
			argvs: [][]string{{"cat", "/in", "/p1"}, {"tr", "a-z", "A-Z"}, {"sort"}},
			b:     Binding{StdoutFile: "/work/res", StdoutAppend: true}},
		{src: "sort <$f >/abs", argvs: [][]string{{"sort"}}, b: Binding{StdinFile: "/in", StdoutFile: "/abs"}},
		{src: `\cat /logs/*.log | 'sort' -r`, aot: true,
			argvs: [][]string{{"cat", "/logs/a.log", "/logs/b.log"}, {"sort", "-r"}}},
		{src: "grep -c '[a-z]*' /in", aot: true, argvs: [][]string{{"grep", "-c", "[a-z]*", "/in"}}},
	} {
		got, err := FromStmt(parseStmt(t, c.src), lib, liveExpander(), c.aot)
		if err != nil {
			t.Errorf("%q: %v", c.src, err)
			continue
		}
		if want := mustGraph(t, c.b, c.argvs...); got.Script() != want.Script() {
			t.Errorf("%q: region is\n%s\nwant\n%s", c.src, got.Script(), want.Script())
		}
	}
}

// TestRegionAheadOfTime: an ahead-of-time caller has no shell state, so a
// word that needs any — as an argument or as a redirect target — hides the
// region from it; nil is the expander of a caller with no filesystem either.
func TestRegionAheadOfTime(t *testing.T) {
	for _, src := range []string{
		"cat $f | sort",
		"cat /in | head -n $((1+1))",
		"cat /in | sort >\"$out\"",
		"sort <$f",
	} {
		wantRefusal(t, src, liveExpander(), true, "depends on shell state")
		if _, err := FromStmt(parseStmt(t, src), lib, liveExpander(), false); err != nil {
			t.Errorf("%q with the shell's state at hand: %v", src, err)
		}
	}
	wantRefusal(t, "cat $(ls) | sort", nil, true, "not safe to expand early")
	wantRefusal(t, "cat /logs/*.log | sort", nil, true, "no filesystem")
	g, err := FromStmt(parseStmt(t, "cat /in | sort >out"), lib, nil, true)
	if err != nil || g.Sink().Path != "/out" {
		t.Errorf("static pipeline with no expander: sink %v, err %v", g.Sink(), err)
	}
}

// shapeOnly are statements phase 1 rules out: almost every statement of a
// script is one of them.
var shapeOnly = []string{
	"i=$((i+1))",
	"[ \"$i\" -lt 100 ]",
	"case $x in a) echo $y;; esac",
	"myfunc \"$x\" $y",
	"grep -q $x /in && echo $y",
	"! grep -q $x /in",
	"cat $f | sort 2>$err",
	`echo "$kind"`,
	`printf '%s\n' "$x" | sort`,
}

// TestRegionShapeComesFirst: a statement the shape rules out is refused
// before a single word of it is looked at.
func TestRegionShapeComesFirst(t *testing.T) {
	x := &expand.Expander{Lookup: func(name string) (string, bool) {
		t.Errorf("expanded $%s of a statement the shape rules out", name)
		return "", false
	}}
	for _, src := range shapeOnly {
		if _, err := FromStmt(parseStmt(t, src), lib, x, false); !errors.Is(err, ErrNotDataflow) {
			t.Errorf("%q: err = %v", src, err)
		}
	}
}

func TestRegionShapeRefusalAllocatesNothing(t *testing.T) {
	x := liveExpander()
	for _, src := range shapeOnly {
		st := parseStmt(t, src)
		if n := testing.AllocsPerRun(100, func() { FromStmt(st, lib, x, false) }); n != 0 {
			t.Errorf("%q: declining allocates %v times", src, n)
		}
	}
}
