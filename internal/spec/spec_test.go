package spec

import (
	"testing"
)

func resolve(t *testing.T, args ...string) *Effective {
	t.Helper()
	return Builtin().Resolve(args)
}

func TestResolveClasses(t *testing.T) {
	cases := []struct {
		args []string
		want Class
	}{
		{[]string{"cat", "f"}, Stateless},
		{[]string{"tr", "A-Z", "a-z"}, Stateless},
		{[]string{"grep", "-v", "999"}, Stateless},
		{[]string{"grep", "-c", "x"}, Parallelizable},
		{[]string{"grep", "-q", "x"}, Blocking},
		{[]string{"grep", "-n", "x"}, Blocking},
		{[]string{"cut", "-c", "89-92"}, Stateless},
		{[]string{"sort"}, Parallelizable},
		{[]string{"sort", "-rn"}, Parallelizable},
		{[]string{"sort", "-m", "a", "b"}, Blocking},
		{[]string{"sort", "-c"}, Blocking},
		{[]string{"uniq", "-c"}, Blocking},
		{[]string{"wc", "-l"}, Parallelizable},
		// With file operands wc prints per-file rows with names, which the
		// executor's temp-file port names would corrupt: keep it out of
		// dataflow entirely.
		{[]string{"wc", "-l", "a.txt"}, SideEffectful},
		{[]string{"wc", "a.txt", "b.txt"}, SideEffectful},
		{[]string{"head", "-n1"}, Blocking},
		{[]string{"tail"}, Blocking},
		{[]string{"comm", "-13", "a", "b"}, Blocking},
		{[]string{"tee", "out"}, SideEffectful},
		{[]string{"xargs", "rm"}, SideEffectful},
		{[]string{"rm", "-rf", "/"}, SideEffectful},        // unknown -> conservative
		{[]string{"mystery-binary", "arg"}, SideEffectful}, // unknown -> conservative
		{[]string{"sed", "s/a/b/"}, Stateless},
		{[]string{"sed", "2d"}, Blocking},
		{[]string{"sed", "$p"}, Blocking},
		{[]string{"sed", "-n", "s/a/b/p"}, Stateless},
		{[]string{"awk", "{print $1}"}, Stateless},
		{[]string{"awk", "{print NR, $0}"}, Blocking},
		{[]string{"awk", "{s += $1} END {print s}"}, Blocking},
		{[]string{"awk", "-F", ":", "{print $2}"}, Stateless},
		{[]string{"awk", "$2 > 10 {print $1}"}, Stateless},
	}
	for _, c := range cases {
		e := resolve(t, c.args...)
		if e.Class != c.want {
			t.Errorf("%v -> %v, want %v", c.args, e.Class, c.want)
		}
	}
}

func TestResolveAggregators(t *testing.T) {
	if e := resolve(t, "sort", "-rn"); e.Agg != AggMergeSort {
		t.Errorf("sort agg = %v", e.Agg)
	}
	if e := resolve(t, "wc", "-l"); e.Agg != AggSum {
		t.Errorf("wc agg = %v", e.Agg)
	}
	if e := resolve(t, "grep", "-c", "x"); e.Agg != AggSum {
		t.Errorf("grep -c agg = %v", e.Agg)
	}
	if e := resolve(t, "tr", "a", "b"); e.Agg != AggConcat {
		t.Errorf("tr agg = %v", e.Agg)
	}
}

func TestResolveInputFiles(t *testing.T) {
	e := resolve(t, "cat", "a.txt", "b.txt")
	if len(e.InputFiles) != 2 || e.InputFiles[0] != "a.txt" {
		t.Errorf("cat inputs = %v", e.InputFiles)
	}
	if e.ReadsStdin {
		t.Error("cat with files should not read stdin")
	}
	e = resolve(t, "cat")
	if !e.ReadsStdin {
		t.Error("bare cat should read stdin")
	}
	e = resolve(t, "grep", "-v", "pat", "file.txt")
	// grep's first operand is the pattern, not an input file.
	if len(e.InputFiles) != 1 || e.InputFiles[0] != "file.txt" {
		t.Errorf("grep inputs = %v", e.InputFiles)
	}
	e = resolve(t, "grep", "pat")
	if len(e.InputFiles) != 0 || !e.ReadsStdin {
		t.Errorf("bare grep inputs = %v stdin=%v", e.InputFiles, e.ReadsStdin)
	}
	e = resolve(t, "comm", "-13", "dict", "-")
	if len(e.InputFiles) != 2 || !e.ReadsStdin {
		t.Errorf("comm inputs = %v stdin=%v", e.InputFiles, e.ReadsStdin)
	}
	e = resolve(t, "sort", "-k", "2", "data")
	if len(e.InputFiles) != 1 || e.InputFiles[0] != "data" {
		t.Errorf("sort -k 2 data inputs = %v (value flag mis-scanned)", e.InputFiles)
	}
}

func TestParallelizableHelper(t *testing.T) {
	if !resolve(t, "tr", "a", "b").Parallelizable() {
		t.Error("tr should be parallelizable")
	}
	if !resolve(t, "sort").Parallelizable() {
		t.Error("sort should be parallelizable")
	}
	if resolve(t, "head").Parallelizable() {
		t.Error("head should not be parallelizable")
	}
	if resolve(t, "unknowncmd").Parallelizable() {
		t.Error("unknown commands must be conservative")
	}
}

func TestLibraryJSONRoundTrip(t *testing.T) {
	lib := Builtin()
	data, err := lib.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	fresh := NewLibrary()
	if err := fresh.LoadJSON(data); err != nil {
		t.Fatal(err)
	}
	if len(fresh.Names()) != len(lib.Names()) {
		t.Errorf("round trip lost specs: %d vs %d", len(fresh.Names()), len(lib.Names()))
	}
	s, ok := fresh.Lookup("sort")
	if !ok || s.Class != Parallelizable || s.Agg != AggMergeSort {
		t.Errorf("sort after round trip = %+v", s)
	}
}

func TestLoadJSONKeepsRefineHooks(t *testing.T) {
	lib := Builtin()
	data, _ := lib.MarshalJSON()
	if err := lib.LoadJSON(data); err != nil {
		t.Fatal(err)
	}
	// The grep refine hook must survive a reload over the same library.
	if e := lib.Resolve([]string{"grep", "-c", "x"}); e.Class != Parallelizable {
		t.Errorf("grep -c after reload = %v (refine hook lost)", e.Class)
	}
}

func TestVersioning(t *testing.T) {
	s, _ := Builtin().Lookup("sort")
	if s.Version == "" {
		t.Error("specs must carry a version (paper: specs correspond to command versions)")
	}
}

// TestScanOperands pins the one argv scanner: options precede operands,
// a value flag takes the rest of its cluster or the next word, and every
// operand is reported with its argv index (First + position).
func TestScanOperands(t *testing.T) {
	type flags = []Flag
	cases := []struct {
		argv     []string
		flags    flags
		scripts  []string
		operands []string
		first    int
		err      string
	}{
		// A value flag at the end of a cluster takes the next word; the
		// operand after it is a file, not the pattern.
		{argv: []string{"grep", "-ie", "pat", "f"},
			flags: flags{{'i', "", 1}, {'e', "pat", 1}}, scripts: []string{"pat"}, operands: []string{"f"}, first: 3},
		// Without -e the first operand is the pattern.
		{argv: []string{"grep", "-i", "pat", "f"},
			flags: flags{{'i', "", 1}}, scripts: []string{"pat"}, operands: []string{"f"}, first: 3},
		{argv: []string{"grep", "foo", "foo"}, scripts: []string{"foo"}, operands: []string{"foo"}, first: 2},
		// A value flag mid-cluster takes the rest of the cluster, even when
		// that rest is itself a value-flag letter.
		{argv: []string{"head", "-nc", "f"}, flags: flags{{'n', "c", 1}}, operands: []string{"f"}, first: 2},
		{argv: []string{"sort", "-tk", "f"}, flags: flags{{'t', "k", 1}}, operands: []string{"f"}, first: 2},
		{argv: []string{"head", "-n5", "f"}, flags: flags{{'n', "5", 1}}, operands: []string{"f"}, first: 2},
		{argv: []string{"head", "-n", "5", "f"}, flags: flags{{'n', "5", 1}}, operands: []string{"f"}, first: 3},
		{argv: []string{"sort", "-rk2", "-t:", "f"},
			flags: flags{{'r', "", 1}, {'k', "2", 1}, {'t', ":", 2}}, operands: []string{"f"}, first: 3},
		{argv: []string{"cat", "--", "-f"}, operands: []string{"-f"}, first: 2},
		{argv: []string{"cat", "-"}, operands: []string{"-"}, first: 1},
		// Nothing permutes: a flag after an operand is an operand.
		{argv: []string{"cat", "a", "-n"}, operands: []string{"a", "-n"}, first: 1},
		{argv: []string{"sort", "-r", "a", "-k", "2"},
			flags: flags{{'r', "", 1}}, operands: []string{"a", "-k", "2"}, first: 2},
		{argv: []string{"sed", "-n", "-e", "p", "-e", "2d", "f"},
			flags:   flags{{'n', "", 1}, {'e', "p", 2}, {'e', "2d", 4}},
			scripts: []string{"p", "2d"}, operands: []string{"f"}, first: 6},
		{argv: []string{"awk", "-F:", "-v", "x=1", "{print $1}", "f"},
			flags:   flags{{'F', ":", 1}, {'v', "x=1", 2}},
			scripts: []string{"{print $1}"}, operands: []string{"f"}, first: 5},
		{argv: []string{"wc"}, first: 1},
		{argv: []string{"head", "-n"}, err: "option -n requires an argument"},
		{argv: []string{"sort", "-rk"}, err: "option -k requires an argument"},
		{argv: []string{"grep", "-i"}, err: "missing pattern"},
		{argv: []string{"sed", "-i", "s/a/b/"}, err: "unknown option -i"},
		{argv: []string{"awk"}, err: "missing program"},
	}
	eq := func(a, b []string) bool {
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	for _, c := range cases {
		p, err := Parse(c.argv)
		if c.err != "" {
			if err == nil || err.Error() != c.err {
				t.Errorf("Parse(%q) error = %v, want %q", c.argv, err, c.err)
			}
			continue
		}
		if err != nil {
			t.Errorf("Parse(%q): %v", c.argv, err)
			continue
		}
		if len(p.Flags) != len(c.flags) {
			t.Errorf("Parse(%q) flags = %v, want %v", c.argv, p.Flags, c.flags)
		} else {
			for i := range p.Flags {
				if p.Flags[i] != c.flags[i] {
					t.Errorf("Parse(%q) flag %d = %v, want %v", c.argv, i, p.Flags[i], c.flags[i])
				}
			}
		}
		if !eq(p.Scripts(), c.scripts) {
			t.Errorf("Parse(%q) scripts = %q, want %q", c.argv, p.Scripts(), c.scripts)
		}
		if !eq(p.Operands, c.operands) || p.First != c.first {
			t.Errorf("Parse(%q) operands = %q at %d, want %q at %d", c.argv, p.Operands, p.First, c.operands, c.first)
		}
		if !eq(c.argv[p.First:], p.Operands) {
			t.Errorf("Parse(%q): operands %q are not argv[%d:]", c.argv, p.Operands, p.First)
		}
	}
}

// TestResolveFollowsTheScanner: the planner's view of an argv is the
// scanner's. Each of these was read differently by the scanner Resolve
// used to have.
func TestResolveFollowsTheScanner(t *testing.T) {
	cases := []struct {
		argv     []string
		inputs   []string
		stdin    bool
		class    Class
		stripped []string
	}{
		{[]string{"grep", "-ie", "alpha", "/file"}, []string{"/file"}, false, Stateless, []string{"grep", "-ie", "alpha"}},
		{[]string{"grep", "foo", "foo"}, []string{"foo"}, false, Stateless, []string{"grep", "foo"}},
		{[]string{"sed", "s/a/A/", "/file"}, []string{"/file"}, false, Stateless, []string{"sed", "s/a/A/"}},
		{[]string{"awk", "{print $1}", "/file"}, []string{"/file"}, false, Stateless, []string{"awk", "{print $1}"}},
		{[]string{"awk", "-v", "x=1", "{print x}"}, nil, true, Stateless, []string{"awk", "-v", "x=1", "{print x}"}},
		{[]string{"sort", "-o", "/out", "/in"}, []string{"/in"}, false, SideEffectful, []string{"sort", "-o", "/out"}},
		{[]string{"comm", "-13", "dict", "-"}, []string{"dict", "-"}, true, Blocking, []string{"comm", "-13"}},
		{[]string{"cat", "--", "-f"}, []string{"-f"}, false, Stateless, []string{"cat", "--"}},
		{[]string{"tr", "a", "b"}, nil, true, Stateless, []string{"tr", "a", "b"}},
		// What the scanner rejects the planner leaves to the interpreter.
		{[]string{"head", "-n"}, nil, true, SideEffectful, []string{"head", "-n"}},
		{[]string{"grep", "-i"}, nil, true, SideEffectful, []string{"grep", "-i"}},
		{[]string{"sed", "-i", "s/a/b/", "f"}, nil, true, SideEffectful, []string{"sed", "-i", "s/a/b/", "f"}},
		{[]string{"cut", "-d", ","}, nil, true, SideEffectful, []string{"cut", "-d", ","}},
	}
	for _, c := range cases {
		e := resolve(t, c.argv...)
		if len(e.InputFiles) != len(c.inputs) || e.ReadsStdin != c.stdin || e.Class != c.class {
			t.Errorf("%q: inputs=%q stdin=%v class=%v, want %q %v %v",
				c.argv, e.InputFiles, e.ReadsStdin, e.Class, c.inputs, c.stdin, c.class)
		}
		for i := range c.inputs {
			if i < len(e.InputFiles) && e.InputFiles[i] != c.inputs[i] {
				t.Errorf("%q: input %d = %q, want %q", c.argv, i, e.InputFiles[i], c.inputs[i])
			}
		}
		got := e.ArgvWithoutInputs()
		if len(got) != len(c.stripped) {
			t.Errorf("%q: stripped = %q, want %q", c.argv, got, c.stripped)
			continue
		}
		for i := range got {
			if got[i] != c.stripped[i] {
				t.Errorf("%q: stripped = %q, want %q", c.argv, got, c.stripped)
			}
		}
	}
}
