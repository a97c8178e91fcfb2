package coreutils

import (
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"unicode/utf8"

	"jash/internal/pipe"
	"jash/internal/spec"
	"jash/internal/vfs"
)

// gnuOutput runs the host's tool over stdin in the C locale (its UTF-8
// variant when the case holds multibyte text, since this package's
// regexps and y sets work on UTF-8 characters) and returns its stdout.
func gnuOutput(t *testing.T, tool, stdin string, utf8 bool, args ...string) string {
	t.Helper()
	cmd := exec.Command(tool, args...)
	cmd.Env = []string{"LC_ALL=C"}
	if utf8 {
		cmd.Env = []string{"LC_ALL=C.UTF-8"}
	}
	cmd.Stdin = strings.NewReader(stdin)
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("%s %q: %v", tool, args, err)
	}
	return string(out)
}

// needsTool skips the test where the host lacks the reference tool, so
// the suite stays hermetic.
func needsTool(t *testing.T, tools ...string) {
	t.Helper()
	for _, tool := range tools {
		if _, err := os.Stat(tool); err != nil {
			t.Skipf("%s not installed", tool)
		}
	}
}

func isMultibyte(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] >= 0x80 {
			return true
		}
	}
	return false
}

// acceptedDeviations are the cases where this sed knowingly differs from
// GNU sed. Each maps GNU's output to the output this sed owes, so the
// diff itself stays exact.
var acceptedDeviations = []struct {
	name, why string
	applies   func(in string, args []string) bool
	owed      func(gnu string) string
}{
	{
		name: "final newline",
		why: "POSIX.1-2017 XBD 3.206 defines a line as ending in a <newline>, and sed's " +
			"output files are text files (XCU sed, OUTPUT FILES), so every line sed " +
			"writes ends in one; GNU sed keeps an input's missing final newline",
		applies: func(in string, _ []string) bool { return in != "" && !strings.HasSuffix(in, "\n") },
		owed: func(gnu string) string {
			if gnu != "" && !strings.HasSuffix(gnu, "\n") {
				return gnu + "\n"
			}
			return gnu
		},
	},
	{
		name: "empty match inside a character",
		why: "POSIX regular expressions match characters (XBD 9.1), so s/a*/x/g steps " +
			"past an empty match by one character; GNU sed 4.9 steps by one byte " +
			"and inserts x inside every multibyte character",
		applies: func(in string, args []string) bool {
			return isMultibyte(in) && slices.Equal(args, []string{"s/a*/x/g"})
		},
		owed: func(gnu string) string {
			var b strings.Builder
			for i := 0; i < len(gnu); i++ {
				if gnu[i] == 'x' && i+1 < len(gnu) && gnu[i+1]&0xC0 == 0x80 {
					continue // the x GNU put before a continuation byte
				}
				b.WriteByte(gnu[i])
			}
			return b.String()
		},
	},
}

// owedOutput is GNU's output with every applicable accepted deviation.
func owedOutput(in string, args []string, gnu string) string {
	for _, d := range acceptedDeviations {
		if d.applies(in, args) {
			gnu = d.owed(gnu)
		}
	}
	return gnu
}

// sedInputs reach sed's edges: empty input, a missing final newline, a
// line longer than a pipe block, multibyte text, and repeated matches.
func sedInputs() []string {
	text := "the cat sat on the mat\nfoo\n\nthe the the\naaaa baaac\nxy zz 42\nlast line\n"
	return []string{
		"",
		"\n",
		text,
		"first\nno trailing newline",
		"only line without newline",
		"a " + strings.Repeat("the ", pipe.BlockSize/4+25) + "end\nshort the\n",
		"äöü grüße the\n日本語 the\ncafé\n",
		strings.Repeat(text, 40),
		"a;b c;d\nx;y a;b\n;\n",
	}
}

// sedScripts cover line, $ and /re/ addresses; s with g, p, N and Ng; &
// and \N; y, d, p, q and -n; ;- and newline-separated scripts; and a ; inside
// an s or y command, which is text, not a separator.
func sedScripts() [][]string {
	return [][]string{
		{"p"},
		{"-n", "p"},
		{"-n", "2p"},
		{"-n", "$p"},
		{"$d"},
		{"2d"},
		{"/the/d"},
		{"-n", "/the/p"},
		{"1q"},
		{"3q"},
		{"$q"},
		{"q;s/a/b/"},
		{"s/the/THE/"},
		{"s/the/THE/g"},
		{"s/e/E/2"},
		{"s/e/E/2g"},
		{"s/a/b/3g"},
		{"s/the/[&]/g"},
		{"s/\\(t\\)\\(h\\)e/\\2\\1E/g"},
		{"s/\\B\\(o\\)/[\\1]/"},
		{"s/a*/x/g"},
		{"s/x*$/!/"},
		{"s/the/THE/p"},
		{"-n", "s/the/THE/gp"},
		{"$s/e/E/g"},
		{"/the/s/t/T/g"},
		{"2s/.*/<&>/"},
		{"y/abc/xyz/"},
		{"y/äö/ao/"},
		{"s/a/b/;s/b/c/"},
		{"s/a/b/\n$d"},
		{"s/a/b/\n3q"},
		{"-e", "s/the/X/", "-e", "/foo/d"},
		{"/q/d"},
		{"s/a;b/X/"},
		{"y/;/:/"},
		{"s/a/b/;s/b/;/"},
		{"s/a/b/ ; p"},
		{"s/the/THE/3"},
		{"s/the/<&>/2g"},
		{"/cat/d"},
		{"s/./X/"},
		{"s/a+b/X/g"},
	}
}

// TestSedMatchesGNU runs every script over every input through this sed
// and the host's GNU sed and requires the same bytes, up to the accepted
// deviations. For every script spec resolves stateless, it also requires
// that the outputs of 2–4 line-aligned lanes, concatenated, equal the
// whole run: what a parallel plan relies on.
func TestSedMatchesGNU(t *testing.T) {
	const gnuSed = "/usr/bin/sed"
	needsTool(t, gnuSed)
	lib := spec.Builtin()
	for i, in := range sedInputs() {
		for _, args := range sedScripts() {
			name := fmt.Sprintf("input%d sed %q", i, args)
			want := owedOutput(in, args, gnuOutput(t, gnuSed, in, isMultibyte(in+strings.Join(args, "")), args...))
			argv := append([]string{"sed"}, args...)
			got, errs, st := run(t, vfs.New(), in, argv...)
			if st != 0 || got != want {
				t.Errorf("%s: got %q (st=%d errs=%q), GNU sed %q", name, got, st, errs, want)
				continue
			}
			if lib.Resolve(argv).Class == spec.Stateless {
				checkLanes(t, name, in, argv, got)
			}
		}
	}
}

// checkLanes requires that the outputs of 2–4 line-aligned lanes of in,
// concatenated, equal whole, the run over all of in: what a parallel plan
// of a stateless command relies on.
func checkLanes(t *testing.T, name, in string, argv []string, whole string) {
	t.Helper()
	lines := strings.SplitAfter(in, "\n")
	for lanes := 2; lanes <= 4; lanes++ {
		var cat strings.Builder
		for l := 0; l < lanes; l++ {
			lane := strings.Join(lines[l*len(lines)/lanes:(l+1)*len(lines)/lanes], "")
			out, _, _ := run(t, vfs.New(), lane, argv...)
			cat.WriteString(out)
		}
		if cat.String() != whole {
			t.Errorf("%s: %d lanes concatenated %q, whole run %q", name, lanes, cat.String(), whole)
		}
	}
}

// grepInputs reach the edges of grep's run loop: empty input, a missing
// final newline, a line longer than the reader's block, a match that
// straddles the block boundary, matches on the first and the last byte,
// multibyte text and bytes that are not UTF-8.
func grepInputs() []string {
	text := "the cat sat on the mat\nfoo\n\nThe end\na.b [x] (y)+ the\naxb\nzzz the the\nlast line\n"
	filler := strings.Repeat(strings.Repeat("x", 99)+"\n", pipe.BlockSize/100)
	straddle := filler + strings.Repeat("y", pipe.BlockSize-len(filler)-1) + "the cat\n" + text
	return []string{
		"",
		"\n",
		text,
		"first cat\nno trailing newline the",
		"the first byte\nmid\nand the last byte is the",
		"a " + strings.Repeat("the ", pipe.BlockSize/4+25) + "end\nshort cat\nx\n",
		straddle,
		"äöü grüße the\n日本語 THE\ncafé a.b\nÄÖÜ\n",
		"ab\xffcd the\n\xfe\xff\nplain cat\n\xc3the\n",
		strings.Repeat(text, 40),
	}
}

// grepArgs run a fixed string and a regexp each with -v, -c, -q and -n,
// -F with metacharacters, -i, several patterns (-e, or a newline inside
// one) and the empty pattern.
func grepArgs() [][]string {
	var args [][]string
	for _, pat := range []string{"the", "t.e"} {
		args = append(args, []string{pat}, []string{"-v", pat}, []string{"-c", pat},
			[]string{"-q", pat}, []string{"-n", pat}, []string{"-vn", pat}, []string{"-vc", pat})
	}
	return append(args,
		[]string{"-F", "a.b"}, []string{"-F", "[x] (y)+"}, []string{"-vF", "t.e"},
		[]string{"-i", "the"}, []string{"-iF", "ThE"}, []string{"-i", "äÖ"},
		[]string{"-e", "cat", "-e", "mat"}, []string{"-e", "the", "-e", "zzz"},
		[]string{"-v", "-e", "cat", "-e", "x"}, []string{"-F", "-e", "a.b", "-e", "ä"},
		[]string{"cat\nfoo"}, []string{"-c", "-e", "cat", "-e", "the"},
		[]string{""}, []string{"-v", ""}, []string{"-c", ""}, []string{"-n", ""},
		[]string{"zzzz"}, []string{"-c", "^$"}, []string{"e$"}, []string{"-cq", "the"}, []string{"-cq", "zzzz"},
	)
}

// gnuGrep runs the host's grep over stdin in the C locale, or in its
// UTF-8 variant when the row holds multibyte text that is valid UTF-8 (GNU
// grep calls text with encoding errors binary there), and returns its
// stdout and status.
func gnuGrep(t *testing.T, stdin string, args ...string) (string, int) {
	t.Helper()
	cmd := exec.Command("/usr/bin/grep", args...)
	cmd.Env = []string{"LC_ALL=C"}
	if row := stdin + strings.Join(args, ""); isMultibyte(row) && utf8.ValidString(row) {
		cmd.Env = []string{"LC_ALL=C.UTF-8"}
	}
	cmd.Stdin = strings.NewReader(stdin)
	out, err := cmd.Output()
	var exit *exec.ExitError
	if err != nil && !errors.As(err, &exit) {
		t.Fatalf("grep %q: %v", args, err)
	}
	return string(out), cmd.ProcessState.ExitCode()
}

// TestGrepMatchesGNU runs every argument list over every input through
// this grep and the host's GNU grep and requires the same bytes and the
// same status. For every argument list spec resolves stateless, it also
// requires the lane law of checkLanes.
func TestGrepMatchesGNU(t *testing.T) {
	needsTool(t, "/usr/bin/grep")
	lib := spec.Builtin()
	for i, in := range grepInputs() {
		for _, args := range grepArgs() {
			name := fmt.Sprintf("input%d grep %q", i, args)
			want, wantSt := gnuGrep(t, in, args...)
			argv := append([]string{"grep"}, args...)
			got, errs, st := run(t, vfs.New(), in, argv...)
			if st != wantSt || got != want {
				t.Errorf("%s: got %q (st=%d errs=%q), GNU grep %q (st=%d)", name, got, st, errs, want, wantSt)
				continue
			}
			if lib.Resolve(argv).Class == spec.Stateless {
				checkLanes(t, name, in, argv, got)
			}
		}
	}
}

// awkInputs are whitespace- and colon-separated records, with numeric
// fields, an empty line and a missing final newline.
func awkInputs() []string {
	return []string{
		"",
		"alpha 5 x\nbeta 15 y\n\ngamma 20 z\na b c d\n",
		"root:x:0:0\nuser:x:1000:1000\nnobody:x:65534:65534\n",
		"first 1\nlast 30",
		"007 1.50 x\n-3 +4 1e2\n",
		strings.Repeat("the cat 12\nsat on 7 mat\nalpha a:b\n", 30),
	}
}

// awkPrograms use only what POSIX fixes the output of (%d and %s
// conversions, no regex extensions), so each row holds for mawk and gawk.
func awkPrograms() [][]string {
	return [][]string{
		{"{print $1}"},
		{"{print $2, $1}"},
		{"{print $2 + 0, $1 $2, $1 * 1}"},
		{"-v", "n=05", "{print n, n + 1}"},
		{"{print NF}"},
		{"{print}"},
		{`{print "END"}`},
		{"/a/{next} {print}"},
		{"$2 > 10 {print $1}"},
		{"!/a/"},
		{`$1 ~ /^a/ && NF > 2 {print $3 "-" $1}`},
		{`{if ($2 > 10) print "big"; else print "small"}`},
		{`{printf "%s=%d\n", $1, $2 * 2}`},
		{"{print length($1), toupper(substr($1, 1, 2))}"},
		{"-F:", "-v", "x=1", "{print $1 x}"},
		{"-F:", "{print $3 + $4}"},
		{"{print NR, $1}"},
		{"NR == 2"},
		{"{s += $2} END {print s + 0}"},
		{"BEGIN {print \"head\"} {print $1}"},
		{"{x = $1; print x}"},
	}
}

// TestAwkMatchesHost runs every program over every input through this awk
// and the host's awk and requires the same bytes. For every program spec
// resolves stateless, it also requires the lane law of checkLanes.
func TestAwkMatchesHost(t *testing.T) {
	const hostAwk = "/usr/bin/awk"
	needsTool(t, hostAwk)
	lib := spec.Builtin()
	for i, in := range awkInputs() {
		for _, args := range awkPrograms() {
			name := fmt.Sprintf("input%d awk %q", i, args)
			want := gnuOutput(t, hostAwk, in, false, args...)
			argv := append([]string{"awk"}, args...)
			got, errs, st := run(t, vfs.New(), in, argv...)
			if st != 0 || got != want {
				t.Errorf("%s: got %q (st=%d errs=%q), host awk %q", name, got, st, errs, want)
				continue
			}
			if lib.Resolve(argv).Class == spec.Stateless {
				checkLanes(t, name, in, argv, got)
			}
		}
	}
}

// TestMergeUtilsMatchGNU diffs comm, join and paste, which hold one line
// per input, against the host's GNU tools over sorted inputs that reach
// the same edges as sed's: empty, a missing final newline, a line longer
// than a pipe block, multibyte text, and equal-key runs for join.
func TestMergeUtilsMatchGNU(t *testing.T) {
	const comm, join, paste = "/usr/bin/comm", "/usr/bin/join", "/usr/bin/paste"
	needsTool(t, comm, join, paste)
	long := strings.Repeat("z", pipe.BlockSize+100)
	pairs := [][2]string{
		{"", ""},
		{"a\nb\nc\n", ""},
		{"", "a\nb\n"},
		{"apple\nbanana\ncherry\n", "apple\nbanannna\ncherry\nzebra\n"},
		{"a 1\nb 2\nb 3\nc 4", "b x\nb y\nc z\nd w\n"},
		{"1 one\n2 two\n3 three\n", "1 uno\n3 tres\n4 cuatro"},
		{"k  v1\tw\nk v2\n", " k x1\nk x2\nl y\n"},
		{"a\n" + long + "\n", "b\n" + long + "\n"},
		{"café 1\nthé 2\n", "café x\nzoë y\n"},
		{"\nx 1\n", "\nx 2\n"},
	}
	dir := t.TempDir()
	for i, p := range pairs {
		a, b := filepath.Join(dir, "a"), filepath.Join(dir, "b")
		if err := os.WriteFile(a, []byte(p[0]), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(b, []byte(p[1]), 0o644); err != nil {
			t.Fatal(err)
		}
		fs := newFS(t, map[string]string{"/a": p[0], "/b": p[1]})
		mb := isMultibyte(p[0] + p[1])
		for _, args := range [][]string{
			{"comm", "/a", "/b"}, {"comm", "-13", "/a", "/b"}, {"comm", "-23", "/a", "/b"},
			{"comm", "-12", "/a", "/b"}, {"comm", "-3", "/a", "-"},
			{"join", "/a", "/b"}, {"join", "/b", "-"},
			{"paste", "/a", "/b"}, {"paste", "-d", ",", "/a", "/b"},
			{"paste", "-", "-"}, {"paste", "/a", "-", "-"}, {"paste", "-"},
		} {
			gnuArgs := make([]string, len(args)-1)
			for k, arg := range args[1:] {
				gnuArgs[k] = map[string]string{"/a": a, "/b": b}[arg]
				if gnuArgs[k] == "" {
					gnuArgs[k] = arg
				}
			}
			want := gnuOutput(t, "/usr/bin/"+args[0], p[1], mb, gnuArgs...)
			got, errs, st := run(t, fs, p[1], args...)
			if st != 0 || got != want {
				t.Errorf("pair%d %q (stdin = /b): got %q (st=%d errs=%q), GNU %q", i, args, got, st, errs, want)
			}
		}
	}
}

// TestFlagsMatchGNU holds the rows that let a grammar list a letter its
// utility treats as a no-op (cat -u; grep -E, whose RE2 syntax is the
// default), and cut -s: each agrees with the host's GNU tool, on stdin and
// on a file operand.
func TestFlagsMatchGNU(t *testing.T) {
	const in = "a,b\nplain\nab+ ab\n\nx,y,z\naab\n"
	for _, args := range [][]string{
		{"cat", "-u"}, {"cat", "-un"},
		{"grep", "-E", "a|z"}, {"grep", "-E", "ab+"}, {"grep", "-Ec", "a(,|b)"}, {"grep", "-vE", "^(a|x)"},
		{"cut", "-s", "-d", ",", "-f", "2"}, {"cut", "-sd,", "-f1"}, {"cut", "-d", ",", "-f", "1,3"},
	} {
		tool := "/usr/bin/" + args[0]
		needsTool(t, tool)
		want := gnuOutput(t, tool, in, false, args[1:]...)
		fs := newFS(t, map[string]string{"/in": in})
		for _, argv := range [][]string{args, append(slices.Clone(args), "/in")} {
			got, errs, st := run(t, fs, in, argv...)
			if st != 0 && !(args[0] == "grep" && st == 1) || got != want {
				t.Errorf("%q: got %q (st=%d errs=%q), GNU %q", argv, got, st, errs, want)
			}
		}
	}
	// -s without -f is GNU's usage error too.
	if _, _, st := run(t, newFS(t, nil), in, "cut", "-s", "-c", "1"); st != 1 {
		t.Errorf("cut -s -c 1: status %d, want GNU's 1", st)
	}
}
