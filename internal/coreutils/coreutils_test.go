package coreutils

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"strings"
	"sync"
	"testing"
	"testing/iotest"
	"time"

	"jash/internal/pipe"
	"jash/internal/spec"
	"jash/internal/vfs"
	"jash/internal/workload"
)

// run executes a registered utility against the given stdin and fs,
// returning stdout, stderr, and the exit status.
func run(t *testing.T, fs *vfs.FS, stdin string, argv ...string) (string, string, int) {
	t.Helper()
	fn, ok := Lookup(argv[0])
	if !ok {
		t.Fatalf("command %q not registered", argv[0])
	}
	var out, errb bytes.Buffer
	c := &Context{
		FS:     fs,
		Dir:    "/",
		Stdin:  strings.NewReader(stdin),
		Stdout: &out,
		Stderr: &errb,
	}
	st := fn(c, argv)
	return out.String(), errb.String(), st
}

func newFS(t *testing.T, files map[string]string) *vfs.FS {
	t.Helper()
	fs := vfs.New()
	for p, data := range files {
		if err := fs.WriteFile(p, []byte(data)); err != nil {
			t.Fatal(err)
		}
	}
	return fs
}

func TestCat(t *testing.T) {
	fs := newFS(t, map[string]string{"/a": "one\n", "/b": "two\n"})
	out, _, st := run(t, fs, "", "cat", "/a", "/b")
	if st != 0 || out != "one\ntwo\n" {
		t.Errorf("out=%q st=%d", out, st)
	}
	out, _, st = run(t, fs, "from stdin\n", "cat")
	if st != 0 || out != "from stdin\n" {
		t.Errorf("stdin out=%q st=%d", out, st)
	}
	out, _, _ = run(t, fs, "mid\n", "cat", "/a", "-", "/b")
	if out != "one\nmid\ntwo\n" {
		t.Errorf("dash out=%q", out)
	}
	_, errs, st := run(t, fs, "", "cat", "/missing")
	if st == 0 || errs == "" {
		t.Errorf("missing file: st=%d errs=%q", st, errs)
	}
}

func TestCatN(t *testing.T) {
	out, _, _ := run(t, vfs.New(), "a\nb\n", "cat", "-n")
	if !strings.Contains(out, "1\ta") || !strings.Contains(out, "2\tb") {
		t.Errorf("out=%q", out)
	}
}

func TestHead(t *testing.T) {
	in := "1\n2\n3\n4\n5\n"
	out, _, st := run(t, vfs.New(), in, "head", "-n", "3")
	if st != 0 || out != "1\n2\n3\n" {
		t.Errorf("out=%q st=%d", out, st)
	}
	out, _, _ = run(t, vfs.New(), in, "head", "-n2")
	if out != "1\n2\n" {
		t.Errorf("combined flag out=%q", out)
	}
	out, _, _ = run(t, vfs.New(), "abcdef", "head", "-c", "3")
	if out != "abc" {
		t.Errorf("-c out=%q", out)
	}
	// head -n1 of the temperature pipeline form
	out, _, _ = run(t, vfs.New(), "9999\n0456\n", "head", "-n1")
	if out != "9999\n" {
		t.Errorf("-n1 out=%q", out)
	}
}

func TestTail(t *testing.T) {
	in := "1\n2\n3\n4\n5\n"
	out, _, st := run(t, vfs.New(), in, "tail", "-n", "2")
	if st != 0 || out != "4\n5\n" {
		t.Errorf("out=%q st=%d", out, st)
	}
	out, _, _ = run(t, vfs.New(), "only\n", "tail")
	if out != "only\n" {
		t.Errorf("default out=%q", out)
	}
	// -c is not implemented: reject it rather than print lines, and never
	// take its value for a file.
	out, errs, st := run(t, vfs.New(), in, "tail", "-c", "3")
	if st != 2 || out != "" || !strings.Contains(errs, "-c is not supported") {
		t.Errorf("-c: out=%q errs=%q st=%d", out, errs, st)
	}
}

func TestTee(t *testing.T) {
	fs := vfs.New()
	out, _, st := run(t, fs, "data\n", "tee", "/copy")
	if st != 0 || out != "data\n" {
		t.Errorf("out=%q st=%d", out, st)
	}
	data, _ := fs.ReadFile("/copy")
	if string(data) != "data\n" {
		t.Errorf("file=%q", data)
	}
	run(t, fs, "more\n", "tee", "-a", "/copy")
	data, _ = fs.ReadFile("/copy")
	if string(data) != "data\nmore\n" {
		t.Errorf("append=%q", data)
	}
}

func TestEcho(t *testing.T) {
	out, _, _ := run(t, vfs.New(), "", "echo", "hello", "world")
	if out != "hello world\n" {
		t.Errorf("out=%q", out)
	}
	out, _, _ = run(t, vfs.New(), "", "echo", "-n", "no newline")
	if out != "no newline" {
		t.Errorf("-n out=%q", out)
	}
}

func TestPrintf(t *testing.T) {
	cases := []struct {
		args []string
		want string
	}{
		{[]string{"printf", "%s\\n", "hi"}, "hi\n"},
		{[]string{"printf", "%d-%d", "3", "4"}, "3-4"},
		{[]string{"printf", "%05d", "42"}, "00042"},
		{[]string{"printf", "%x", "255"}, "ff"},
		{[]string{"printf", "a\\tb"}, "a\tb"},
		{[]string{"printf", "%s,", "x", "y", "z"}, "x,y,z,"}, // format reuse
		{[]string{"printf", "%%"}, "%"},
	}
	for _, c := range cases {
		out, _, st := run(t, vfs.New(), "", c.args...)
		if st != 0 || out != c.want {
			t.Errorf("%v: out=%q st=%d, want %q", c.args, out, st, c.want)
		}
	}
}

func TestSeq(t *testing.T) {
	out, _, _ := run(t, vfs.New(), "", "seq", "3")
	if out != "1\n2\n3\n" {
		t.Errorf("seq 3 = %q", out)
	}
	out, _, _ = run(t, vfs.New(), "", "seq", "2", "4")
	if out != "2\n3\n4\n" {
		t.Errorf("seq 2 4 = %q", out)
	}
	out, _, _ = run(t, vfs.New(), "", "seq", "10", "-5", "0")
	if out != "10\n5\n0\n" {
		t.Errorf("seq 10 -5 0 = %q", out)
	}
	_, _, st := run(t, vfs.New(), "", "seq", "1", "0", "5")
	if st == 0 {
		t.Error("zero increment should fail")
	}
}

func TestRevFoldNl(t *testing.T) {
	out, _, _ := run(t, vfs.New(), "abc\nxy\n", "rev")
	if out != "cba\nyx\n" {
		t.Errorf("rev=%q", out)
	}
	out, _, _ = run(t, vfs.New(), "abcdef\n", "fold", "-w", "2")
	if out != "ab\ncd\nef\n" {
		t.Errorf("fold=%q", out)
	}
	out, _, _ = run(t, vfs.New(), "x\n\ny\n", "nl")
	if !strings.Contains(out, "1\tx") || !strings.Contains(out, "2\ty") {
		t.Errorf("nl=%q", out)
	}
}

func TestPaste(t *testing.T) {
	fs := newFS(t, map[string]string{"/a": "1\n2\n", "/b": "x\ny\nz\n"})
	out, _, _ := run(t, fs, "", "paste", "/a", "/b")
	if out != "1\tx\n2\ty\n\tz\n" {
		t.Errorf("paste=%q", out)
	}
	out, _, _ = run(t, fs, "", "paste", "-d", ",", "/a", "/b")
	if out != "1,x\n2,y\n,z\n" {
		t.Errorf("paste -d=%q", out)
	}
	// Operands naming standard input share it: each - takes the next line.
	out, _, _ = run(t, fs, "1\n2\n3\n4\n5\n", "paste", "-", "-")
	if out != "1\t2\n3\t4\n5\t\n" {
		t.Errorf("paste - -=%q", out)
	}
}

func TestWc(t *testing.T) {
	out, _, _ := run(t, vfs.New(), "one two\nthree\n", "wc", "-l")
	if strings.TrimSpace(out) != "2" {
		t.Errorf("wc -l=%q", out)
	}
	out, _, _ = run(t, vfs.New(), "one two\nthree\n", "wc", "-w")
	if strings.TrimSpace(out) != "3" {
		t.Errorf("wc -w=%q", out)
	}
	out, _, _ = run(t, vfs.New(), "abc\n", "wc", "-c")
	if strings.TrimSpace(out) != "4" {
		t.Errorf("wc -c=%q", out)
	}
	// No trailing newline: POSIX counts newlines, so 1 line.
	out, _, _ = run(t, vfs.New(), "a\nb", "wc", "-l")
	if strings.TrimSpace(out) != "1" {
		t.Errorf("wc -l unterminated=%q", out)
	}
}

func TestWcMultipleFiles(t *testing.T) {
	fs := newFS(t, map[string]string{
		"/a": "one two\n",
		"/b": "three\nfour five six\n",
	})
	// One row per operand, with the file name, plus a total row.
	out, _, st := run(t, fs, "", "wc", "-l", "/a", "/b")
	want := "1 /a\n2 /b\n3 total\n"
	if st != 0 || out != want {
		t.Errorf("wc -l multi: out=%q st=%d, want %q", out, st, want)
	}
	out, _, st = run(t, fs, "", "wc", "/a", "/b")
	want = "1 2 8 /a\n2 4 20 /b\n3 6 28 total\n"
	if st != 0 || out != want {
		t.Errorf("wc multi: out=%q st=%d, want %q", out, st, want)
	}
	// A single operand prints its name but no total row.
	out, _, st = run(t, fs, "", "wc", "-w", "/a")
	if st != 0 || out != "2 /a\n" {
		t.Errorf("wc -w single: out=%q st=%d", out, st)
	}
	// A "-" operand reads stdin but still counts as a named row.
	out, _, st = run(t, fs, "x\n", "wc", "-l", "/a", "-")
	if st != 0 || out != "1 /a\n1 -\n2 total\n" {
		t.Errorf("wc with - operand: out=%q st=%d", out, st)
	}
}

func TestGrep(t *testing.T) {
	in := "apple\nbanana\ncherry\n"
	out, _, st := run(t, vfs.New(), in, "grep", "an")
	if st != 0 || out != "banana\n" {
		t.Errorf("out=%q st=%d", out, st)
	}
	out, _, _ = run(t, vfs.New(), in, "grep", "-v", "an")
	if out != "apple\ncherry\n" {
		t.Errorf("-v out=%q", out)
	}
	out, _, _ = run(t, vfs.New(), in, "grep", "-c", "a")
	if strings.TrimSpace(out) != "2" {
		t.Errorf("-c out=%q", out)
	}
	out, _, st = run(t, vfs.New(), in, "grep", "-q", "apple")
	if st != 0 || out != "" {
		t.Errorf("-q out=%q st=%d", out, st)
	}
	_, _, st = run(t, vfs.New(), in, "grep", "zzz")
	if st != 1 {
		t.Errorf("no match st=%d, want 1", st)
	}
	out, _, _ = run(t, vfs.New(), "Apple\n", "grep", "-i", "apple")
	if out != "Apple\n" {
		t.Errorf("-i out=%q", out)
	}
	out, _, _ = run(t, vfs.New(), in, "grep", "-n", "cherry")
	if out != "3:cherry\n" {
		t.Errorf("-n out=%q", out)
	}
	out, _, _ = run(t, vfs.New(), "a.b\naxb\n", "grep", "-F", "a.b")
	if out != "a.b\n" {
		t.Errorf("-F out=%q", out)
	}
	_, _, st = run(t, vfs.New(), in, "grep", "[bad")
	if st != 2 {
		t.Errorf("bad pattern st=%d, want 2", st)
	}
	// The paper's temperature filter: drop sentinel 999 values.
	out, _, _ = run(t, vfs.New(), "0123\n9990\n999\n0456\n", "grep", "-v", "999")
	if out != "0123\n0456\n" {
		t.Errorf("temperature filter out=%q", out)
	}
}

func TestTr(t *testing.T) {
	out, _, _ := run(t, vfs.New(), "Hello World\n", "tr", "A-Z", "a-z")
	if out != "hello world\n" {
		t.Errorf("case fold=%q", out)
	}
	out, _, _ = run(t, vfs.New(), "aabbcc\n", "tr", "-d", "b")
	if out != "aacc\n" {
		t.Errorf("-d=%q", out)
	}
	out, _, _ = run(t, vfs.New(), "aaabbb\n", "tr", "-s", "ab")
	if out != "ab\n" {
		t.Errorf("-s=%q", out)
	}
	// The spell-script form: complement+squeeze to newline-separate words.
	out, _, _ = run(t, vfs.New(), "one, two; three!\n", "tr", "-cs", "A-Za-z", "\\n")
	if out != "one\ntwo\nthree\n" {
		t.Errorf("-cs=%q", out)
	}
	out, _, _ = run(t, vfs.New(), "tab\tsep\n", "tr", "\\t", " ")
	if out != "tab sep\n" {
		t.Errorf("tab=%q", out)
	}
	out, _, _ = run(t, vfs.New(), "abc123\n", "tr", "[:lower:]", "[:upper:]")
	if out != "ABC123\n" {
		t.Errorf("classes=%q", out)
	}
}

func TestCut(t *testing.T) {
	out, _, _ := run(t, vfs.New(), "abcdefgh\n", "cut", "-c", "2-4")
	if out != "bcd\n" {
		t.Errorf("-c=%q", out)
	}
	out, _, _ = run(t, vfs.New(), "abcdefgh\n", "cut", "-c", "1,3,5-6")
	if out != "acef\n" {
		t.Errorf("-c list=%q", out)
	}
	out, _, _ = run(t, vfs.New(), "a:b:c\n", "cut", "-d", ":", "-f", "2")
	if out != "b\n" {
		t.Errorf("-f=%q", out)
	}
	out, _, _ = run(t, vfs.New(), "a:b:c\n", "cut", "-d:", "-f1,3")
	if out != "a:c\n" {
		t.Errorf("-f multi=%q", out)
	}
	// The paper's temperature extraction (cut -c 89-92).
	line := strings.Repeat("x", 88) + "0123" + "rest\n"
	out, _, _ = run(t, vfs.New(), line, "cut", "-c", "89-92")
	if out != "0123\n" {
		t.Errorf("col 89-92=%q", out)
	}
}

func TestSort(t *testing.T) {
	out, _, _ := run(t, vfs.New(), "b\na\nc\n", "sort")
	if out != "a\nb\nc\n" {
		t.Errorf("sort=%q", out)
	}
	out, _, _ = run(t, vfs.New(), "10\n9\n2\n", "sort", "-n")
	if out != "2\n9\n10\n" {
		t.Errorf("-n=%q", out)
	}
	out, _, _ = run(t, vfs.New(), "10\n9\n2\n", "sort", "-rn")
	if out != "10\n9\n2\n" {
		t.Errorf("-rn=%q", out)
	}
	out, _, _ = run(t, vfs.New(), "b\na\nb\n", "sort", "-u")
	if out != "a\nb\n" {
		t.Errorf("-u=%q", out)
	}
	out, _, _ = run(t, vfs.New(), "x 2\ny 10\nz 1\n", "sort", "-n", "-k", "2")
	if out != "z 1\nx 2\ny 10\n" {
		t.Errorf("-k=%q", out)
	}
	_, _, st := run(t, vfs.New(), "a\nb\n", "sort", "-c")
	if st != 0 {
		t.Errorf("-c sorted st=%d", st)
	}
	_, _, st = run(t, vfs.New(), "b\na\n", "sort", "-c")
	if st != 1 {
		t.Errorf("-c unsorted st=%d", st)
	}
	// -o FILE writes FILE instead of stdout, and FILE may be an input.
	fs := newFS(t, map[string]string{"/in": "b\na\nc\n"})
	out, errs, st := run(t, fs, "", "sort", "-o", "/out", "/in")
	if data, _ := fs.ReadFile("/out"); st != 0 || out != "" || string(data) != "a\nb\nc\n" {
		t.Errorf("-o: out=%q errs=%q st=%d file=%q", out, errs, st, data)
	}
	_, errs, st = run(t, fs, "", "sort", "-ro/in", "/in")
	if data, _ := fs.ReadFile("/in"); st != 0 || string(data) != "c\nb\na\n" {
		t.Errorf("-o onto its input: errs=%q st=%d file=%q", errs, st, data)
	}
	fs.MkdirAll("/dir")
	_, errs, st = run(t, fs, "", "sort", "-o", "/dir", "/in")
	if st != 2 || errs == "" {
		t.Errorf("-o unwritable: errs=%q st=%d", errs, st)
	}
	_, _, st = run(t, vfs.New(), "a\na\n", "sort", "-cu")
	if st != 1 {
		t.Errorf("-cu with a repeated key st=%d, want 1", st)
	}
	// POSIX's key rules, each row as GNU sort 9.1 prints it under
	// LC_ALL=C: a key is a byte range of the line, the whole line bytewise
	// is the last resort, and -u keeps one line per key.
	for _, tc := range []struct {
		in   string
		argv []string
		want string
	}{
		{"b 1\na 1\n", []string{"-k2"}, "a 1\nb 1\n"},                         // last resort: the whole line
		{"b 1\na 1\n", []string{"-r", "-k2"}, "b 1\na 1\n"},                   // -r reverses the last resort too
		{"1\n01\n", []string{"-nu"}, "1\n"},                                   // -u: one line per key
		{"01\n1\n", []string{"-n"}, "01\n1\n"},                                // equal numbers: last resort
		{"a 2 x\nb 1 y\nc 1 a\n", []string{"-k2,2"}, "b 1 y\nc 1 a\na 2 x\n"}, // the key ends at field 2
		{"a b\na  b\n", []string{"-k2"}, "a  b\na b\n"},                       // a field keeps its leading blanks
		{"a:b:c\na:b d\n", []string{"-t:", "-k2"}, "a:b d\na:b:c\n"},          // the line's bytes, not rejoined fields
		{"x ab2\ny ab1\n", []string{"-k2.3"}, "y ab1\nx ab2\n"},               // a character offset into the field
		{"a:x9\nb:y1\n", []string{"-t:", "-k2.2,2.2"}, "b:y1\na:x9\n"},        // .C at the end
		{"b a\na a\nc\n", []string{"-u", "-k2"}, "c\nb a\n"},                  // missing field: empty key; first of a key kept
		{"+1\n-1\n0\n", []string{"-n"}, "-1\n+1\n0\n"},                        // '+' is not a sign
		{"bb 1\naa 2\n", []string{"-k2.9223372036854775807"}, "aa 2\nbb 1\n"}, // a position past any line
		{"b\na\n", []string{"-k1,99999999999999999999.5"}, "a\nb\n"},
	} {
		out, errs, st := run(t, vfs.New(), tc.in, append([]string{"sort"}, tc.argv...)...)
		if st != 0 || out != tc.want {
			t.Errorf("sort %v <<< %q = %q (st=%d errs=%q), want %q", tc.argv, tc.in, out, st, errs, tc.want)
		}
	}
	for _, k := range []string{"2n", "1b", "0", "1.0", "1,0", "1,2x", "x", "1.", "-1"} {
		_, errs, st := run(t, vfs.New(), "a\n", "sort", "-k"+k)
		if st != 2 || !strings.Contains(errs, "invalid key") {
			t.Errorf("sort -k%s: st=%d errs=%q, want 2 and invalid key", k, st, errs)
		}
	}
	for _, argv := range [][]string{{"sort", "-t", "ab"}, {"sort", "-t", ""}, {"sort", "-k1", "-k2"}} {
		if _, errs, st := run(t, vfs.New(), "a\n", argv...); st != 2 || errs == "" {
			t.Errorf("%v: st=%d errs=%q, want a loud 2", argv, st, errs)
		}
	}
}

func TestSortMerge(t *testing.T) {
	fs := newFS(t, map[string]string{
		"/s1": "a\nc\ne\n",
		"/s2": "b\nd\nf\n",
	})
	out, _, st := run(t, fs, "", "sort", "-m", "/s1", "/s2")
	if st != 0 || out != "a\nb\nc\nd\ne\nf\n" {
		t.Errorf("merge=%q st=%d", out, st)
	}
	fs2 := newFS(t, map[string]string{"/u1": "a\nb\n", "/u2": "b\nc\n"})
	out, _, _ = run(t, fs2, "", "sort", "-mu", "/u1", "/u2")
	if out != "a\nb\nc\n" {
		t.Errorf("merge -u=%q", out)
	}
}

func TestUniq(t *testing.T) {
	in := "a\na\nb\nc\nc\nc\n"
	out, _, _ := run(t, vfs.New(), in, "uniq")
	if out != "a\nb\nc\n" {
		t.Errorf("uniq=%q", out)
	}
	out, _, _ = run(t, vfs.New(), in, "uniq", "-c")
	want := []string{"2 a", "1 b", "3 c"}
	for _, w := range want {
		if !strings.Contains(out, w) {
			t.Errorf("uniq -c missing %q in %q", w, out)
		}
	}
	out, _, _ = run(t, vfs.New(), in, "uniq", "-d")
	if out != "a\nc\n" {
		t.Errorf("-d=%q", out)
	}
	out, _, _ = run(t, vfs.New(), in, "uniq", "-u")
	if out != "b\n" {
		t.Errorf("-u=%q", out)
	}
}

func TestComm(t *testing.T) {
	fs := newFS(t, map[string]string{
		"/dict":  "apple\nbanana\ncherry\n",
		"/words": "apple\nbanannna\ncherry\nzebra\n",
	})
	// Spell usage: words not in the dictionary.
	out, _, st := run(t, fs, "", "comm", "-13", "/dict", "/words")
	if st != 0 || out != "banannna\nzebra\n" {
		t.Errorf("comm -13=%q st=%d", out, st)
	}
	out, _, _ = run(t, fs, "", "comm", "-23", "/dict", "/words")
	if out != "banana\n" {
		t.Errorf("comm -23=%q", out)
	}
	out, _, _ = run(t, fs, "", "comm", "-12", "/dict", "/words")
	if out != "apple\ncherry\n" {
		t.Errorf("comm -12=%q", out)
	}
	// stdin as file2 via "-" (the spell script's exact invocation).
	out, _, _ = run(t, fs, "aardvark\napple\n", "comm", "-13", "/dict", "-")
	if out != "aardvark\n" {
		t.Errorf("comm -13 with stdin=%q", out)
	}
}

func TestShufDeterministic(t *testing.T) {
	in := "1\n2\n3\n4\n5\n"
	out1, _, _ := run(t, vfs.New(), in, "shuf")
	out2, _, _ := run(t, vfs.New(), in, "shuf")
	if out1 != out2 {
		t.Error("shuf not deterministic with fixed seed")
	}
	lines := strings.Split(strings.TrimSpace(out1), "\n")
	if len(lines) != 5 {
		t.Errorf("shuf lost lines: %q", out1)
	}
	out3, _, _ := run(t, vfs.New(), in, "shuf", "-n", "2")
	if len(strings.Split(strings.TrimSpace(out3), "\n")) != 2 {
		t.Errorf("shuf -n 2 = %q", out3)
	}
}

func TestSplit(t *testing.T) {
	fs := vfs.New()
	_, _, st := run(t, fs, "1\n2\n3\n4\n5\n", "split", "-l", "2", "-", "/part-")
	if st != 0 {
		t.Fatalf("st=%d", st)
	}
	a, _ := fs.ReadFile("/part-aa")
	b, _ := fs.ReadFile("/part-ab")
	c, _ := fs.ReadFile("/part-ac")
	if string(a) != "1\n2\n" || string(b) != "3\n4\n" || string(c) != "5\n" {
		t.Errorf("parts=%q %q %q", a, b, c)
	}
}

func TestXargs(t *testing.T) {
	out, _, st := run(t, vfs.New(), "a b\nc\n", "xargs", "echo", "prefix")
	if st != 0 || out != "prefix a b c\n" {
		t.Errorf("out=%q st=%d", out, st)
	}
	out, _, _ = run(t, vfs.New(), "1 2 3 4\n", "xargs", "-n", "2", "echo")
	if out != "1 2\n3 4\n" {
		t.Errorf("-n2 out=%q", out)
	}
}

func TestJoin(t *testing.T) {
	fs := newFS(t, map[string]string{
		"/l": "1 alice\n2 bob\n3 carol\n",
		"/r": "1 admin\n3 user\n",
	})
	out, _, st := run(t, fs, "", "join", "/l", "/r")
	if st != 0 || out != "1 alice admin\n3 carol user\n" {
		t.Errorf("join=%q st=%d", out, st)
	}
}

func TestLs(t *testing.T) {
	fs := newFS(t, map[string]string{"/d/b": "x", "/d/a": "y", "/d/.hid": "z"})
	out, _, st := run(t, fs, "", "ls", "/d")
	if st != 0 || out != "a\nb\n" {
		t.Errorf("ls=%q st=%d", out, st)
	}
	out, _, _ = run(t, fs, "", "ls", "-a", "/d")
	if out != ".hid\na\nb\n" {
		t.Errorf("ls -a=%q", out)
	}
	_, errs, st := run(t, fs, "", "ls", "/nope")
	if st == 0 || errs == "" {
		t.Errorf("missing: st=%d", st)
	}
}

func TestMkdirRmCpMv(t *testing.T) {
	fs := vfs.New()
	if _, _, st := run(t, fs, "", "mkdir", "-p", "/x/y/z"); st != 0 {
		t.Fatal("mkdir -p failed")
	}
	if !fs.Exists("/x/y/z") {
		t.Fatal("dir missing")
	}
	fs.WriteFile("/f", []byte("data"))
	if _, _, st := run(t, fs, "", "cp", "/f", "/x/y/z"); st != 0 {
		t.Fatal("cp to dir failed")
	}
	data, _ := fs.ReadFile("/x/y/z/f")
	if string(data) != "data" {
		t.Errorf("copied=%q", data)
	}
	if _, _, st := run(t, fs, "", "mv", "/f", "/g"); st != 0 {
		t.Fatal("mv failed")
	}
	if fs.Exists("/f") || !fs.Exists("/g") {
		t.Error("mv did not move")
	}
	if _, _, st := run(t, fs, "", "rm", "-r", "/x"); st != 0 {
		t.Fatal("rm -r failed")
	}
	if fs.Exists("/x") {
		t.Error("rm -r left tree")
	}
	if _, _, st := run(t, fs, "", "rm", "/gone"); st == 0 {
		t.Error("rm missing should fail")
	}
	if _, _, st := run(t, fs, "", "rm", "-f", "/gone"); st != 0 {
		t.Error("rm -f missing should succeed")
	}
}

func TestMvIntoItself(t *testing.T) {
	fs := newFS(t, map[string]string{"/d/f": "x\n"})
	_, errs, st := run(t, fs, "", "mv", "/d", "/d/sub")
	if want := "mv: cannot move '/d' to a subdirectory of itself, '/d/sub'\n"; st != 1 || errs != want {
		t.Errorf("mv /d /d/sub: errs=%q st=%d, want %q and 1", errs, st, want)
	}
	// Into an existing directory the target is DIR/base, as GNU names it.
	_, errs, st = run(t, fs, "", "mv", "/d", "/d")
	if want := "mv: cannot move '/d' to a subdirectory of itself, '/d/d'\n"; st != 1 || errs != want {
		t.Errorf("mv /d /d: errs=%q st=%d, want %q and 1", errs, st, want)
	}
	if data, err := fs.ReadFile("/d/f"); err != nil || string(data) != "x\n" {
		t.Errorf("/d/f after refused mv: %q, %v", data, err)
	}
}

// An input that fails mid-read leaves an existing -o target as it was.
func TestSortOutputUntouchedOnReadError(t *testing.T) {
	fs := newFS(t, map[string]string{"/in": "b\na\n", "/out": "keep\n"})
	var out, errb bytes.Buffer
	c := &Context{
		FS:     fs,
		Dir:    "/",
		Stdin:  iotest.ErrReader(errors.New("device gone")),
		Stdout: &out,
		Stderr: &errb,
	}
	for _, tc := range []struct {
		argv       []string
		file, want string
	}{
		{[]string{"sort", "-o", "/out", "/in", "-"}, "/out", "keep\n"},
		{[]string{"sort", "-m", "-o", "/out", "/in", "-"}, "/out", "keep\n"},
		{[]string{"sort", "-o", "/in", "/in", "-"}, "/in", "b\na\n"},
	} {
		st := registry["sort"](c, tc.argv)
		if data, _ := fs.ReadFile(tc.file); st != 2 || string(data) != tc.want {
			t.Errorf("%v: st=%d file=%q errs=%q, want 2 and the old file", tc.argv, st, data, errb.String())
		}
	}
	// A torn-down run commits nothing either.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	c.Ctx = ctx
	for _, argv := range [][]string{{"sort", "-o", "/in", "/in"}, {"sort", "-m", "-o", "/in", "/in"}} {
		if st := registry["sort"](c, argv); st != 1 {
			t.Errorf("%v cancelled: st=%d, want 1", argv, st)
		}
		if data, _ := fs.ReadFile("/in"); string(data) != "b\na\n" {
			t.Errorf("%v cancelled: /in=%q, want it untouched", argv, data)
		}
	}
}

func TestTouchCopiesNothing(t *testing.T) {
	fs := newFS(t, map[string]string{"/small": "s\n"})
	big := bytes.Repeat([]byte("0123456789abcde\n"), 1<<16) // 1 MiB
	fs.WriteFile("/big", big)
	before, _ := fs.Stat("/big")
	if _, errs, st := run(t, fs, "", "touch", "/big", "/new"); st != 0 {
		t.Fatalf("touch: st=%d errs=%q", st, errs)
	}
	after, _ := fs.Stat("/big")
	if data, _ := fs.ReadFile("/big"); !bytes.Equal(data, big) || after.ModSeq <= before.ModSeq {
		t.Errorf("touch changed the contents or kept ModSeq %d -> %d", before.ModSeq, after.ModSeq)
	}
	if data, err := fs.ReadFile("/new"); err != nil || len(data) != 0 {
		t.Errorf("touch /new: %q, %v", data, err)
	}
	touch := func(p string) func() {
		return func() { run(t, fs, "", "touch", p) }
	}
	small, large := testing.AllocsPerRun(20, touch("/small")), testing.AllocsPerRun(20, touch("/big"))
	if large > small {
		t.Errorf("touch allocs grow with the file: %v for 2 bytes, %v for 1 MiB", small, large)
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < 20; i++ {
		touch("/big")()
	}
	runtime.ReadMemStats(&m1)
	if per := (m1.TotalAlloc - m0.TotalAlloc) / 20; per > 64<<10 {
		t.Errorf("touching a 1 MiB file allocates %d bytes", per)
	}
}

func TestBasenameDirname(t *testing.T) {
	out, _, _ := run(t, vfs.New(), "", "basename", "/usr/local/file.txt")
	if out != "file.txt\n" {
		t.Errorf("basename=%q", out)
	}
	out, _, _ = run(t, vfs.New(), "", "basename", "/usr/local/file.txt", ".txt")
	if out != "file\n" {
		t.Errorf("basename suffix=%q", out)
	}
	out, _, _ = run(t, vfs.New(), "", "dirname", "/usr/local/file.txt")
	if out != "/usr/local\n" {
		t.Errorf("dirname=%q", out)
	}
}

func TestFind(t *testing.T) {
	fs := newFS(t, map[string]string{
		"/proj/main.go":     "package main",
		"/proj/util.go":     "package main",
		"/proj/README.md":   "readme",
		"/proj/sub/deep.go": "package sub",
	})
	out, _, st := run(t, fs, "", "find", "/proj", "-name", "*.go")
	if st != 0 {
		t.Fatalf("st=%d", st)
	}
	for _, want := range []string{"/proj/main.go", "/proj/util.go", "/proj/sub/deep.go"} {
		if !strings.Contains(out, want) {
			t.Errorf("find missing %q in %q", want, out)
		}
	}
	if strings.Contains(out, "README") {
		t.Errorf("find matched README: %q", out)
	}
	out, _, _ = run(t, fs, "", "find", "/proj", "-type", "d")
	if !strings.Contains(out, "/proj/sub") {
		t.Errorf("find -type d=%q", out)
	}
}

func TestTest(t *testing.T) {
	fs := newFS(t, map[string]string{"/exists": "x"})
	fs.Mkdir("/dir")
	cases := []struct {
		args []string
		want int
	}{
		{[]string{"test", "-f", "/exists"}, 0},
		{[]string{"test", "-f", "/dir"}, 1},
		{[]string{"test", "-d", "/dir"}, 0},
		{[]string{"test", "-e", "/missing"}, 1},
		{[]string{"test", "-s", "/exists"}, 0},
		{[]string{"test", "-z", ""}, 0},
		{[]string{"test", "-z", "x"}, 1},
		{[]string{"test", "-n", "x"}, 0},
		{[]string{"test", "abc", "=", "abc"}, 0},
		{[]string{"test", "abc", "!=", "abc"}, 1},
		{[]string{"test", "3", "-lt", "5"}, 0},
		{[]string{"test", "5", "-le", "5"}, 0},
		{[]string{"test", "5", "-gt", "5"}, 1},
		{[]string{"test", "5", "-ge", "5"}, 0},
		{[]string{"test", "1", "-eq", "1"}, 0},
		{[]string{"test", "1", "-ne", "1"}, 1},
		{[]string{"test", "!", "-f", "/missing"}, 0},
		{[]string{"test", "-f", "/exists", "-a", "-d", "/dir"}, 0},
		{[]string{"test", "-f", "/missing", "-o", "-d", "/dir"}, 0},
		{[]string{"test", "nonempty"}, 0},
		{[]string{"test", ""}, 1},
		{[]string{"[", "-f", "/exists", "]"}, 0},
	}
	for _, c := range cases {
		_, _, st := run(t, fs, "", c.args...)
		if st != c.want {
			t.Errorf("%v = %d, want %d", c.args, st, c.want)
		}
	}
	_, _, st := run(t, fs, "", "[", "-f", "/exists")
	if st != 2 {
		t.Errorf("[ without ] should be status 2, got %d", st)
	}
}

func TestSed(t *testing.T) {
	cases := []struct {
		script string
		in     string
		want   string
	}{
		{"s/a/X/", "banana\n", "bXnana\n"},
		{"s/a/X/g", "banana\n", "bXnXnX\n"},
		{"s/a/X/2", "banana\n", "banXna\n"},
		{"2d", "a\nb\nc\n", "a\nc\n"},
		{"/b/d", "a\nb\nc\n", "a\nc\n"},
		{"s/\\(x\\)\\(y\\)/\\2\\1/", "xy\n", "yx\n"},
		{"s/o/0/g;s/e/3/g", "hello web\n", "h3ll0 w3b\n"},
		{"s/.*/[&]/", "core\n", "[core]\n"},
		// Groups come from the match on the line, not from re-matching
		// the match text on its own (where \B no longer holds).
		{"s/\\B\\(o\\)/[\\1]/", "foo\n", "f[o]o\n"},
		// q ends the script for its line.
		{"q;s/a/b/", "a\nb\n", "a\n"},
		// Ng is the Nth match and every later one.
		{"s/a/b/2g", "aaaa\n", "abbb\n"},
		{"s/a/b/12", "aaaaaaaaaaaaa\n", "aaaaaaaaaaaba\n"},
		{"s/a/b/;$d", "x\na\ny\n", "x\nb\n"},
		{"s/a/b/\n$d", "x\na\ny\n", "x\nb\n"},
		// A ; inside s or y is text; the command list splits by grammar.
		{"s/a;b/X/", "a;b\n", "X\n"},
		{"y/;/:/", "a;b\n", "a:b\n"},
		{"s/a/b/;s/b/;/", "a\n", ";\n"},
		{"  p ;; p\n", "a\n", "a\na\na\n"},
	}
	for _, c := range cases {
		out, _, st := run(t, vfs.New(), c.in, "sed", c.script)
		if st != 0 || out != c.want {
			t.Errorf("sed %q: out=%q st=%d, want %q", c.script, out, st, c.want)
		}
	}
	out, _, _ := run(t, vfs.New(), "a\nb\n", "sed", "-n", "/b/p")
	if out != "b\n" {
		t.Errorf("sed -n p: %q", out)
	}
	out, _, _ = run(t, vfs.New(), "1\n2\n3\n", "sed", "2q")
	if out != "1\n2\n" {
		t.Errorf("sed 2q: %q", out)
	}
	// An overflowing line address used to parse as 0 (Atoi error dropped)
	// and silently match nothing; it must be a diagnosed parse error.
	_, errs, st := run(t, vfs.New(), "a\nb\n", "sed", "99999999999999999999d")
	if st == 0 || !strings.Contains(errs, "invalid line address") {
		t.Errorf("sed overflow address: st=%d errs=%q, want failure", st, errs)
	}
	// A reference to a group the pattern lacks is an error, as in GNU sed.
	_, errs, st = run(t, vfs.New(), "ab\n", "sed", "s/\\(a\\)b/\\2/")
	if st != 2 || !strings.Contains(errs, "invalid reference") {
		t.Errorf("sed missing group: st=%d errs=%q, want status 2", st, errs)
	}
	// Where the subset stops, sed fails closed, naming what it refused.
	for _, c := range []struct{ script, diag string }{
		{"h", "the hold space (h H g G x) is not supported"},
		{"1!G;h;$!d", "address negation (!) is not supported"},
		{"$!x", "address negation (!) is not supported"},
		{"G", "the hold space (h H g G x) is not supported"},
		{":a;s/x//;ta", "branching (b t :) is not supported"},
		{"/a/b", "branching (b t :) is not supported"},
		{"/a/{p}", "command groups ({}) are not supported"},
		{"p}", "command groups ({}) are not supported"},
		{"/a/,/b/p", "address ranges are not supported"},
		{"1,3d", "address ranges are not supported"},
		{"/keep/!d", "address negation (!) is not supported"},
		{"s/a/b", "unterminated s command"},
		{"s/a/b/w /out", "unknown s flag \"w\""},
	} {
		refusedOnce(t, []string{"sed", c.script}, c.diag)
	}
}

// refusedOnce requires that argv fails with status 2 and the one
// diagnostic line diag, and that the planner never splits it into lanes,
// which would print that line once per lane.
func refusedOnce(t *testing.T, argv []string, diag string) {
	t.Helper()
	out, errs, st := run(t, vfs.New(), "a b\nc d\n", argv...)
	if st != 2 || out != "" || errs != argv[0]+": "+diag+"\n" {
		t.Errorf("%q: out=%q errs=%q st=%d, want status 2 and %q", argv, out, errs, st, diag)
	}
	if c := spec.Builtin().Resolve(argv).Class; c != spec.SideEffectful {
		t.Errorf("%q resolves %v, want side-effectful: never planned", argv, c)
	}
}

// endless is an unbounded input, `yes` without a pipe, that counts the
// bytes read from it.
type endless struct{ read int }

var yLines = strings.Repeat("y\n", pipe.BlockSize/2)

func (e *endless) Read(p []byte) (int, error) {
	n := copy(p, yLines)
	e.read += n
	return n, nil
}

// hangupWriter records what it accepts. Once hangUp is set, it accepts
// only its first write and fails every one after it, as a pipe does once
// `head -n1` has read its line and gone.
type hangupWriter struct {
	hangUp bool
	writes int
	got    []byte
}

func (h *hangupWriter) Write(p []byte) (int, error) {
	if h.writes++; h.hangUp && h.writes > 1 {
		return 0, errors.New("broken pipe")
	}
	h.got = append(h.got, p...)
	return len(p), nil
}

// TestSedStreams: sed holds one line of lookahead, so on an unbounded
// input it ends once q runs or its reader has gone, having read only a
// bounded prefix of the input: what ends `yes | sed s/y/n/ | head -n1`
// and `seq 1 30000000 | sed 1q` in milliseconds.
func TestSedStreams(t *testing.T) {
	for _, tc := range []struct {
		script, want string
		hangUp       bool
	}{
		{"s/y/n/", "n\n", true}, // yes | sed s/y/n/ | head -n1
		{"1q", "y\n", false},    // seq 1 30000000 | sed 1q
	} {
		in, out := &endless{}, &hangupWriter{hangUp: tc.hangUp}
		done := make(chan int, 1)
		go func() {
			done <- registry["sed"](&Context{FS: vfs.New(), Dir: "/", Stdin: in, Stdout: out, Stderr: io.Discard}, []string{"sed", tc.script})
		}()
		select {
		case <-done:
		case <-time.After(5 * time.Second): // a hang guard: it takes ~20 ms
			t.Fatalf("sed %s over an endless input did not end", tc.script)
		}
		if got := string(out.got); !strings.HasPrefix(got, tc.want) || !tc.hangUp && got != tc.want {
			t.Errorf("sed %s: wrote %.20q…, want %q first", tc.script, got, tc.want)
		}
		if in.read > 4*pipe.BlockSize {
			t.Errorf("sed %s read %d bytes after it was done", tc.script, in.read)
		}
	}
}

func TestAwk(t *testing.T) {
	cases := []struct {
		prog string
		fs   string
		in   string
		want string
	}{
		{"{print $1}", "", "a b c\nd e f\n", "a\nd\n"},
		{"{print $2, $1}", "", "a b\n", "b a\n"},
		{"{print NR, $0}", "", "x\ny\n", "1 x\n2 y\n"},
		{"{print NF}", "", "a b c\n", "3\n"},
		{"{print $1}", ":", "a:b:c\n", "a\n"},
		{"/yes/ {print $0}", "", "yes1\nno\nyes2\n", "yes1\nyes2\n"},
		{"$2 > 10 {print $1}", "", "a 5\nb 15\nc 20\n", "b\nc\n"},
		{"{s += $1} END {print s}", "", "1\n2\n3\n", "6\n"},
		{"BEGIN {print \"start\"} {print $0}", "", "x\n", "start\nx\n"},
		{"{print $1 + $2}", "", "2 3\n", "5\n"},
		{"{print $1 * 2}", "", "21\n", "42\n"},
		{"{if ($1 > 2) print \"big\"; else print \"small\"}", "", "1\n5\n", "small\nbig\n"},
		{"{print length($1)}", "", "hello\n", "5\n"},
		{"{print substr($1, 2, 3)}", "", "abcdef\n", "bcd\n"},
		{"{print toupper($1)}", "", "abc\n", "ABC\n"},
		{"$1 ~ /^a/ {print $1}", "", "apple\nbanana\navocado\n", "apple\navocado\n"},
		{"{x = $1 \"!\"; print x}", "", "hey\n", "hey!\n"},
		{"NR == 2 {print}", "", "a\nb\nc\n", "b\n"},
		{`{print "END"}`, "", "a\n", "END\n"},
		{"/a/{next} {print}", "", "a\nb\n", "b\n"},
		{"/a/ && !/b/; {print $1}", "", "ab\nac\n", "ab\nac\nac\n"},
		{"{print ($1 > 1) \" \" (2 > 1)}", "", "0\n5\n", "0 1\n1 1\n"},
	}
	for _, c := range cases {
		args := []string{"awk"}
		if c.fs != "" {
			args = append(args, "-F", c.fs)
		}
		args = append(args, c.prog)
		out, errs, st := run(t, vfs.New(), c.in, args...)
		if st != 0 || out != c.want {
			t.Errorf("awk %q: out=%q st=%d errs=%q, want %q", c.prog, out, st, errs, c.want)
		}
	}
}

// TestAwkRefusals: where the subset stops, awk fails closed, naming what
// it refused.
func TestAwkRefusals(t *testing.T) {
	for _, c := range []struct{ prog, diag string }{
		{"{a[$1] = 1}", "arrays are not supported"},
		{"{if ($1 in seen) print}", "arrays are not supported"},
		{"{delete a}", "arrays are not supported"},
		{"function f(x) {return x} {print f($1)}", "user functions are not supported"},
		{"{print f($1)}", "user functions are not supported (f)"},
		{"{getline; print}", "getline is not supported"},
		{"{n++; print n}", "++ and -- are not supported"},
		{"{print --n}", "++ and -- are not supported"},
		{"{print $1++}", "++ and -- are not supported"},
		{"{for (i = 1; i <= NF; i++) print $i}", "loops are not supported"},
		{"{while (1) print}", "loops are not supported"},
		{"NR > 1 {exit}", "exit is not supported"},
		{`{print $1 > "/out"}`, "output redirection is not supported"},
		{`{print | "sort"}`, "output redirection is not supported"},
		{"/a/,/b/", "range patterns are not supported"},
		{"{print substr($1)}", "substr takes 2 to 3 arguments, not 1"},
		{"{print $1", "unterminated block"},
		{`{printf "%s %z\n", $1}`, "printf: unsupported conversion %z"},
	} {
		refusedOnce(t, []string{"awk", c.prog}, c.diag)
	}
	refusedOnce(t, []string{"awk", "-v", "x", "{print x}"}, "-v needs name=value")
	// A run-time error ends the run where it happens, in BEGIN as on a
	// record, after the output before it.
	for _, c := range []struct{ prog, out string }{
		{"BEGIN {print 1 % 0}", ""},
		{`{print $1; print 1 % $2, "no"}`, "a\n"},
		{`$1 % 0 {print} {print "no"}`, ""},
		{`END {f = "%z"; printf f}`, ""},
	} {
		out, errs, st := run(t, vfs.New(), "a b\nc d\n", "awk", c.prog)
		if st != 2 || out != c.out || strings.Count(errs, "\n") != 1 {
			t.Errorf("awk %q: out=%q errs=%q st=%d, want %q and one diagnostic", c.prog, out, errs, st, c.out)
		}
	}
}

func TestEnv(t *testing.T) {
	fs := vfs.New()
	fn, _ := Lookup("env")
	var out bytes.Buffer
	c := &Context{
		FS: fs, Dir: "/", Stdin: strings.NewReader(""), Stdout: &out, Stderr: &out,
		Environ: func() []string { return []string{"HOME=/root", "PATH=/bin"} },
	}
	if st := fn(c, []string{"env"}); st != 0 {
		t.Fatalf("st=%d", st)
	}
	if !strings.Contains(out.String(), "HOME=/root") {
		t.Errorf("env out=%q", out.String())
	}
	out.Reset()
	c.Getenv = func(string) string { return "" }
	if st := fn(c, []string{"env", "X=1", "echo", "ok"}); st != 0 {
		t.Fatal("env with command failed")
	}
	if out.String() != "ok\n" {
		t.Errorf("env cmd out=%q", out.String())
	}
}

func TestTrueFalseSleep(t *testing.T) {
	if _, _, st := run(t, vfs.New(), "", "true"); st != 0 {
		t.Error("true != 0")
	}
	if _, _, st := run(t, vfs.New(), "", "false"); st != 1 {
		t.Error("false != 1")
	}
	if _, _, st := run(t, vfs.New(), "", "sleep", "5"); st != 0 {
		t.Error("sleep failed")
	}
}

func TestOd(t *testing.T) {
	out, _, st := run(t, vfs.New(), "AB\n", "od", "-c")
	if st != 0 || !strings.Contains(out, "A") || !strings.Contains(out, "\\n") {
		t.Errorf("od=%q st=%d", out, st)
	}
}

func TestDuStat(t *testing.T) {
	fs := newFS(t, map[string]string{"/data/f1": "12345", "/data/f2": "123"})
	out, _, st := run(t, fs, "", "du", "/data")
	if st != 0 || !strings.Contains(out, "8\t/data") {
		t.Errorf("du=%q st=%d", out, st)
	}
	fs.Mount("/data", "gp3")
	out, _, _ = run(t, fs, "", "stat", "/data/f1")
	if !strings.Contains(out, "5 bytes") || !strings.Contains(out, "device gp3") {
		t.Errorf("stat=%q", out)
	}
}

func TestNamesIncludesPipelineCommands(t *testing.T) {
	names := Names()
	set := map[string]bool{}
	for _, n := range names {
		set[n] = true
	}
	for _, want := range []string{"cat", "tr", "sort", "grep", "comm", "cut", "head", "uniq", "wc", "sed", "awk", "xargs"} {
		if !set[want] {
			t.Errorf("registry missing %q", want)
		}
	}
}

func TestTac(t *testing.T) {
	out, _, st := run(t, vfs.New(), "1\n2\n3\n", "tac")
	if st != 0 || out != "3\n2\n1\n" {
		t.Errorf("out=%q st=%d", out, st)
	}
}

func TestExpandUnexpand(t *testing.T) {
	out, _, _ := run(t, vfs.New(), "a\tb\n", "expand", "-t", "4")
	if out != "a   b\n" {
		t.Errorf("expand=%q", out)
	}
	out, _, _ = run(t, vfs.New(), "        x\n", "unexpand", "-t", "4")
	if out != "\t\tx\n" {
		t.Errorf("unexpand=%q", out)
	}
	// Round trip for leading whitespace.
	out, _, _ = run(t, vfs.New(), "\tindent\n", "expand")
	out2, _, _ := run(t, vfs.New(), out, "unexpand")
	if out2 != "\tindent\n" {
		t.Errorf("round trip=%q", out2)
	}
}

func TestTsort(t *testing.T) {
	out, _, st := run(t, vfs.New(), "a b\nb c\na c\n", "tsort")
	if st != 0 {
		t.Fatalf("st=%d", st)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	pos := map[string]int{}
	for i, l := range lines {
		pos[l] = i
	}
	if !(pos["a"] < pos["b"] && pos["b"] < pos["c"]) {
		t.Errorf("order=%v", lines)
	}
	_, errs, st := run(t, vfs.New(), "a b\nb a\n", "tsort")
	if st == 0 || !strings.Contains(errs, "cycle") {
		t.Errorf("cycle: st=%d errs=%q", st, errs)
	}
}

func TestSedTransliterate(t *testing.T) {
	out, _, st := run(t, vfs.New(), "abcabc\n", "sed", "y/abc/xyz/")
	if st != 0 || out != "xyzxyz\n" {
		t.Errorf("y///: out=%q st=%d", out, st)
	}
	_, _, st = run(t, vfs.New(), "x\n", "sed", "y/ab/xyz/")
	if st == 0 {
		t.Error("mismatched y sets should fail")
	}
}

func TestSedTransliterateMultibyte(t *testing.T) {
	cases := []struct {
		script, in, want string
	}{
		// Multibyte on both sides: whole runes map, never bytes.
		{"y/äöü/aou/", "äöü grüße\n", "aou gruße\n"},
		// Multibyte only in from: ä (2 bytes) to x (1 byte).
		{"y/ä/x/", "bär\n", "bxr\n"},
		// Multibyte only in to.
		{"y/a/ä/", "banana\n", "bänänä\n"},
		// ASCII text must be untouched by a multibyte mapping.
		{"y/é/e/", "plain\n", "plain\n"},
		// Three-byte CJK runes.
		{"y/日本/にほ/", "日本語\n", "にほ語\n"},
		// Characters sharing a lead byte with set members stay intact:
		// é (C3 A9) passes through y/ä/a/ (ä = C3 A4) unharmed.
		{"y/ä/a/", "café\n", "café\n"},
	}
	for _, c := range cases {
		out, errs, st := run(t, vfs.New(), c.in, "sed", c.script)
		if st != 0 || out != c.want {
			t.Errorf("sed %q: out=%q st=%d errs=%q want %q", c.script, out, st, errs, c.want)
		}
	}
	// Set lengths are measured in characters, not bytes: y/ä/x/ is legal
	// (2 bytes vs 1), y/ab/ä/ is not (2 chars vs 1).
	if _, _, st := run(t, vfs.New(), "x\n", "sed", "y/ab/ä/"); st == 0 {
		t.Error("y with differing character counts should fail")
	}
}

func TestSedLastLineAddress(t *testing.T) {
	out, _, st := run(t, vfs.New(), "a\nb\nc\n", "sed", "-n", "$p")
	if st != 0 || out != "c\n" {
		t.Errorf("$p: out=%q st=%d", out, st)
	}
	out, _, _ = run(t, vfs.New(), "a\nb\nc\n", "sed", "$d")
	if out != "a\nb\n" {
		t.Errorf("$d: out=%q", out)
	}
	out, _, _ = run(t, vfs.New(), "a\nb\n", "sed", "$s/b/LAST/")
	if out != "a\nLAST\n" {
		t.Errorf("$s: out=%q", out)
	}
}

func TestAwkPrintf(t *testing.T) {
	cases := []struct {
		prog, in, want string
	}{
		{`{printf "%s-%d\n", $1, $2}`, "a 3\n", "a-3\n"},
		{`{printf "%05.1f|", $1}`, "2.5\n", "002.5|"},
		{`END {printf "done\n"}`, "x\n", "done\n"},
		{`{printf "%x\n", $1}`, "255\n", "ff\n"},
	}
	for _, c := range cases {
		out, errs, st := run(t, vfs.New(), c.in, "awk", c.prog)
		if st != 0 || out != c.want {
			t.Errorf("awk %q: out=%q st=%d errs=%q want %q", c.prog, out, st, errs, c.want)
		}
	}
}

func TestAwkPrintfDynamicWidth(t *testing.T) {
	// Expected strings match POSIX awk (gawk/mawk) output for the same
	// programs: %*d and %.*f consume the next argument as width or
	// precision; a negative width left-justifies, a negative precision
	// counts as omitted.
	cases := []struct {
		prog, in, want string
	}{
		{`{printf "%*d|\n", 6, $1}`, "42\n", "    42|\n"},
		{`{printf "%*d|\n", -6, $1}`, "42\n", "42    |\n"},
		{`{printf "%.*f\n", 2, $1}`, "3.14159\n", "3.14\n"},
		{`{printf "%.*f\n", 0, $1}`, "3.7\n", "4\n"},
		{`{printf "%*.*f|\n", 8, 2, $1}`, "3.14159\n", "    3.14|\n"},
		{`{printf "%.*f\n", -1, $1}`, "2.5\n", "2.500000\n"},
		{`{printf "%-*s|\n", 5, $1}`, "ab\n", "ab   |\n"},
		{`{printf "%0*d\n", 4, $1}`, "7\n", "0007\n"},
	}
	for _, c := range cases {
		out, errs, st := run(t, vfs.New(), c.in, "awk", c.prog)
		if st != 0 || out != c.want {
			t.Errorf("awk %q: out=%q st=%d errs=%q want %q", c.prog, out, st, errs, c.want)
		}
	}
}

func TestAwkVarPreset(t *testing.T) {
	out, _, st := run(t, vfs.New(), "x\n", "awk", "-v", "label=L7", "{print label, $0}")
	if st != 0 || out != "L7 x\n" {
		t.Errorf("out=%q st=%d", out, st)
	}
}

func TestHeadTailErrors(t *testing.T) {
	if _, _, st := run(t, vfs.New(), "", "head", "-n", "bogus"); st != 2 {
		t.Error("head bad count should be status 2")
	}
	if _, _, st := run(t, vfs.New(), "", "tail", "-n", "-3x"); st != 2 {
		t.Error("tail bad count should be status 2")
	}
	// tail -n with explicit minus (tail -n -2 == last 2).
	out, _, _ := run(t, vfs.New(), "1\n2\n3\n", "tail", "-n", "-2")
	if out != "2\n3\n" {
		t.Errorf("tail -n -2 = %q", out)
	}
}

func TestGrepExplicitE(t *testing.T) {
	out, _, st := run(t, vfs.New(), "abc\nxyz\n", "grep", "-e", "x.z")
	if st != 0 || out != "xyz\n" {
		t.Errorf("grep -e: out=%q st=%d", out, st)
	}
}

// TestScriptOperandSplit: grep, sed and awk cut their argv with the
// planner's scanner — a script flag at the end of a cluster frees the
// first operand to be a file, repeated -e/-v accumulate, options do not
// permute past an operand, and options the utility lacks are rejected.
func TestScriptOperandSplit(t *testing.T) {
	fs := newFS(t, map[string]string{"/f": "alpha\nbeta\nAlpha\n", "/foo": "foo\nbar\n"})
	cases := []struct {
		argv []string
		want string
		st   int
	}{
		{[]string{"grep", "-ie", "alpha", "/f"}, "alpha\nAlpha\n", 0},
		{[]string{"grep", "foo", "/foo"}, "foo\n", 0},
		{[]string{"grep", "-e", "alpha", "-e", "beta", "/f"}, "alpha\nbeta\n", 0}, // every -e counts
		{[]string{"grep", "alpha\nbeta", "/f"}, "alpha\nbeta\n", 0},               // as does every line of one
		{[]string{"grep", "-F", "-e", "a.", "-e", "ta", "/f"}, "beta\n", 0},
		{[]string{"sed", "-ne", "/a$/p", "/f"}, "alpha\nbeta\nAlpha\n", 0},
		{[]string{"sed", "-e", "s/a/A/", "-e", "s/b/B/", "/f"}, "Alpha\nBetA\nAlphA\n", 0},
		{[]string{"sed", "s/a/A/", "/f"}, "Alpha\nbetA\nAlphA\n", 0},
		{[]string{"sed", "p", "-n"}, "", 1}, // -n after the script is a file operand
		{[]string{"sed", "-i", "p", "/f"}, "", 2},
		{[]string{"awk", "-F", "l", "-vx=1", "-v", "y=2", "{print $1 x y}", "/f"}, "a12\nbeta12\nA12\n", 0},
		{[]string{"awk", "-f", "prog", "/f"}, "", 2},
		{[]string{"awk"}, "", 2},
	}
	for _, c := range cases {
		out, errs, st := run(t, fs, "stdin\n", c.argv...)
		if out != c.want || st != c.st || (st != 0) != (errs != "") {
			t.Errorf("%q: out=%q errs=%q st=%d, want out=%q st=%d", c.argv, out, errs, st, c.want, c.st)
		}
	}
}

// allocsOf is the allocations of one run of argv over in, with its
// output discarded.
func allocsOf(argv []string, in []byte) float64 {
	fn, _ := Lookup(argv[0])
	return testing.AllocsPerRun(10, func() {
		fn(&Context{Dir: "/", Stdin: bytes.NewReader(in), Stdout: io.Discard, Stderr: io.Discard}, argv)
	})
}

// TestGrepFixedStringAllocates pins the fixed-string path: -v, -c and -n
// make no more allocations over 8 MiB than over 64 KiB, and fewer than the
// same search as a regexp, which compiles before it reads a line.
func TestGrepFixedStringAllocates(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled items at random")
	}
	small := workload.Words(1, 64<<10)
	large := bytes.Repeat(small, 128) // 8 MiB of the same lines
	for _, flag := range []string{"-v", "-c", "-n"} {
		s, l := allocsOf([]string{"grep", flag, "the"}, small), allocsOf([]string{"grep", flag, "the"}, large)
		re := allocsOf([]string{"grep", flag, "th[e]"}, large)
		if l > s || l >= re {
			t.Errorf("grep %s the: %v allocs over 64 KiB, %v over 8 MiB; the regexp th[e] %v", flag, s, l, re)
		}
	}
}

// TestSedFixedStringAllocates pins sed's fixed strings: an s command, with
// & and Ng, and an address allocate no more per line over 8 MiB than over
// 64 KiB. The slack is the two line buffers an s command swaps, which may
// each grow once more to the longest line.
func TestSedFixedStringAllocates(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled items at random")
	}
	small := workload.Words(1, 64<<10)
	large := bytes.Repeat(small, 128) // 8 MiB of the same lines
	for _, script := range []string{"s/the/THE/", "s/the/<&>/2g", "/the/d"} {
		if s, l := allocsOf([]string{"sed", script}, small), allocsOf([]string{"sed", script}, large); l > s+4 {
			t.Errorf("sed %s: %v allocs over 64 KiB, %v over 8 MiB", script, s, l)
		}
	}
}

// TestGrepFixedStringLineTooLong: grep's run loop keeps the line limit,
// and its escalation to the plan-abort hook, for a line longer than
// maxLine with or without its newline; a line of exactly maxLine passes.
func TestGrepFixedStringLineTooLong(t *testing.T) {
	fn, _ := Lookup("grep")
	at := strings.Repeat("a", maxLine)
	for _, tc := range []struct {
		in   string
		want int
	}{{at + "b\n", 2}, {at + "b", 2}, {at + "\nzzz\n", 0}, {at, 0}} {
		var aborted error
		var out, errb bytes.Buffer
		c := &Context{Stdin: strings.NewReader(tc.in), Stdout: &out, Stderr: &errb, Abort: func(err error) { aborted = err }}
		st := fn(c, []string{"grep", "-v", "zzz"})
		if tc.want == 2 && (st != 2 || aborted != errLineTooLong || !strings.Contains(errb.String(), "line too long")) {
			t.Errorf("%d-byte line: st=%d errs=%q abort=%v, want 2 and errLineTooLong", len(tc.in), st, errb.String(), aborted)
		}
		if tc.want == 0 && (st != 0 || aborted != nil || out.String() != at+"\n") {
			t.Errorf("maxLine line: st=%d abort=%v, %d bytes out", st, aborted, out.Len())
		}
	}
}

// TestCursorLinesAreTheInput: the runs lines returns, concatenated, are
// the input, each ending in a newline but the stream's last, whatever the
// reader's read sizes and however long the lines.
func TestCursorLinesAreTheInput(t *testing.T) {
	long := strings.Repeat("y", 3*pipe.BlockSize/2)
	for _, in := range []string{
		"", "\n", "a", "a\nb", "a\nb\n", long, long + "\n" + long, "x\n" + long + "\nz\n",
		string(workload.Words(2, 300<<10)),
	} {
		for _, r := range []func(io.Reader) io.Reader{
			func(r io.Reader) io.Reader { return r }, iotest.OneByteReader, iotest.HalfReader,
		} {
			cu := (&Context{}).cursor(r(strings.NewReader(in)))
			var got strings.Builder
			for run := cu.lines(); len(run) > 0; run = cu.lines() {
				if got.WriteString(string(run)); run[len(run)-1] != '\n' && got.Len() != len(in) {
					t.Errorf("%d-byte input: a run ends without its newline at %d", len(in), got.Len())
				}
			}
			if cu.err != nil || got.String() != in {
				t.Errorf("%d-byte input: runs are %d bytes (err %v), not the input", len(in), got.Len(), cu.err)
			}
			cu.close()
		}
	}
}

// TestCursorLanesShareThePools runs grep and sed lanes at once, as a plan
// does: each takes its cursor and blocks from the shared pools, and each
// lane's output is its sequential run's.
func TestCursorLanesShareThePools(t *testing.T) {
	argvs := [][]string{{"grep", "-v", "the"}, {"grep", "-n", "t.e"}, {"sed", "s/the/<&>/g"}, {"grep", "-c", "a"}}
	var ins, wants []string
	for i, argv := range argvs {
		in := string(workload.Words(uint64(i+1), 200<<10))
		want, _, _ := run(t, vfs.New(), in, argv...)
		ins, wants = append(ins, in), append(wants, want)
	}
	var wg sync.WaitGroup
	for lane := 0; lane < 8; lane++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, argv := range argvs {
				i = (i + lane) % len(argvs)
				argv = argvs[i]
				fn, _ := Lookup(argv[0])
				var out bytes.Buffer
				fn(&Context{Stdin: strings.NewReader(ins[i]), Stdout: &out, Stderr: io.Discard}, argv)
				if out.String() != wants[i] {
					t.Errorf("lane %d %q: %d bytes, sequential run %d", lane, argv, out.Len(), len(wants[i]))
				}
			}
		}()
	}
	wg.Wait()
}

func TestSortFieldSeparator(t *testing.T) {
	out, _, _ := run(t, vfs.New(), "b:2\na:3\nc:1\n", "sort", "-t", ":", "-n", "-k", "2")
	if out != "c:1\nb:2\na:3\n" {
		t.Errorf("sort -t: = %q", out)
	}
}

func TestCutErrors(t *testing.T) {
	if _, _, st := run(t, vfs.New(), "x\n", "cut"); st != 2 {
		t.Error("cut without -c/-f should fail")
	}
	// List errors match GNU cut: a specific diagnostic and exit status 1.
	cases := []struct {
		list string
		want string
	}{
		{"5-2", "invalid decreasing range"},
		{"0", "fields are numbered from 1"},
		{"-0", "fields are numbered from 1"},
		{"0-3", "fields are numbered from 1"},
		{"99999999999999999999", "is too large"},
		{"2-99999999999999999999", "is too large"},
		{"x", "invalid field value"},
	}
	for _, tc := range cases {
		_, errs, st := run(t, vfs.New(), "x\n", "cut", "-f", tc.list)
		if st != 1 {
			t.Errorf("cut -f %q: status %d, want 1", tc.list, st)
		}
		if !strings.Contains(errs, tc.want) {
			t.Errorf("cut -f %q: diagnostic %q missing %q", tc.list, errs, tc.want)
		}
	}
	// Character mode names positions, not fields.
	_, errs, st := run(t, vfs.New(), "x\n", "cut", "-c", "0")
	if st != 1 || !strings.Contains(errs, "byte/character positions are numbered from 1") {
		t.Errorf("cut -c 0: st=%d errs=%q", st, errs)
	}
	// Field mode passes through lines without the delimiter.
	out, _, _ := run(t, vfs.New(), "no-tabs-here\n", "cut", "-f", "2")
	if out != "no-tabs-here\n" {
		t.Errorf("delimiterless line = %q", out)
	}
}

func TestFindSize(t *testing.T) {
	fs := newFS(t, map[string]string{"/d/big": "0123456789", "/d/small": "x"})
	out, _, _ := run(t, fs, "", "find", "/d", "-size", "+5")
	if !strings.Contains(out, "big") || strings.Contains(out, "small") {
		t.Errorf("find -size +5 = %q", out)
	}
	out, _, _ = run(t, fs, "", "find", "/d", "-type", "f", "-size", "-5")
	if !strings.Contains(out, "small") || strings.Contains(out, "big") {
		t.Errorf("find -size -5 = %q", out)
	}
}

func TestLsLong(t *testing.T) {
	fs := newFS(t, map[string]string{"/d/file": "12345"})
	fs.Mkdir("/d/sub")
	out, _, _ := run(t, fs, "", "ls", "-l", "/d")
	if !strings.Contains(out, "-          5 file") || !strings.Contains(out, "d          0 sub") {
		t.Errorf("ls -l = %q", out)
	}
	out, _, _ = run(t, fs, "", "ls", "-d", "/d")
	if strings.TrimSpace(out) != "d" {
		t.Errorf("ls -d = %q", out)
	}
}

func TestSplitFromFile(t *testing.T) {
	fs := newFS(t, map[string]string{"/input": "a\nb\nc\n"})
	if _, _, st := run(t, fs, "", "split", "-l", "1", "/input", "/p-"); st != 0 {
		t.Fatal("split failed")
	}
	for i, want := range []string{"a\n", "b\n", "c\n"} {
		name := "/p-a" + string(rune('a'+i))
		data, err := fs.ReadFile(name)
		if err != nil || string(data) != want {
			t.Errorf("%s = %q err=%v", name, data, err)
		}
	}
}

func TestXargsEmptyInput(t *testing.T) {
	out, _, st := run(t, vfs.New(), "", "xargs", "echo", "fixed")
	if st != 0 || out != "fixed\n" {
		t.Errorf("xargs on empty input: out=%q st=%d", out, st)
	}
}

func TestSeqNegativeRange(t *testing.T) {
	out, _, _ := run(t, vfs.New(), "", "seq", "-2", "0")
	if out != "-2\n-1\n0\n" {
		t.Errorf("seq -2 0 = %q", out)
	}
}

func TestPrintfFloat(t *testing.T) {
	out, _, _ := run(t, vfs.New(), "", "printf", "%.2f", "3.14159")
	if out != "3.14" {
		t.Errorf("printf float = %q", out)
	}
}

func TestCommEmptyColumns(t *testing.T) {
	fs := newFS(t, map[string]string{"/a": "x\n", "/b": "x\n"})
	out, _, _ := run(t, fs, "", "comm", "/a", "/b")
	if out != "\t\tx\n" {
		t.Errorf("comm default columns = %q", out)
	}
}

func TestJoinCrossProduct(t *testing.T) {
	fs := newFS(t, map[string]string{
		"/l": "k v1\nk v2\n",
		"/r": "k w1\nk w2\n",
	})
	out, _, _ := run(t, fs, "", "join", "/l", "/r")
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 {
		t.Errorf("cross product lines = %d: %q", len(lines), out)
	}
}

func TestUniqCountsAcrossBoundary(t *testing.T) {
	// Property-ish check: uniq -c counts sum to the line total.
	in := "a\na\nb\nb\nb\nc\n"
	out, _, _ := run(t, vfs.New(), in, "uniq", "-c")
	total := 0
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		f := strings.Fields(line)
		n := 0
		fmt.Sscanf(f[0], "%d", &n)
		total += n
	}
	if total != 6 {
		t.Errorf("counts sum to %d, want 6", total)
	}
}

// TestForEachLineMaxLineBoundary pins the 16 MiB line limit of the line
// cursor for both ends of a line: a newline-terminated over-long line
// and an unterminated one must both error, while a line of
// exactly maxLine bytes passes intact either way.
func TestForEachLineMaxLineBoundary(t *testing.T) {
	atLimit := strings.Repeat("a", maxLine)
	over := atLimit + "b"
	cases := []struct {
		name    string
		input   string
		wantErr bool
	}{
		{"at-limit terminated", atLimit + "\n", false},
		{"at-limit unterminated", atLimit, false},
		{"over terminated", over + "\n", true},
		{"over unterminated", over, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var got int
			err := (&Context{}).forEachLine(strings.NewReader(tc.input), func(line []byte) error {
				got = len(line)
				return nil
			})
			if tc.wantErr {
				if err != errLineTooLong {
					t.Fatalf("err = %v, want errLineTooLong", err)
				}
				return
			}
			if err != nil {
				t.Fatalf("unexpected err: %v", err)
			}
			if got != maxLine {
				t.Fatalf("line length = %d, want %d", got, maxLine)
			}
		})
	}
}

// TestContextEscalateLineTooLong checks the plan-abort hook: a Context
// with Abort set must fire it when forEachLine hits the line limit, and
// must not fire it for ordinary EOF or short lines.
func TestContextEscalateLineTooLong(t *testing.T) {
	var aborted error
	c := &Context{Abort: func(err error) { aborted = err }}
	long := strings.Repeat("x", maxLine+1)
	err := c.forEachLine(strings.NewReader(long), func([]byte) error { return nil })
	if err != errLineTooLong {
		t.Fatalf("err = %v, want errLineTooLong", err)
	}
	if aborted != errLineTooLong {
		t.Fatalf("abort hook got %v, want errLineTooLong", aborted)
	}
	aborted = nil
	if err := c.forEachLine(strings.NewReader("short\n"), func([]byte) error { return nil }); err != nil {
		t.Fatalf("short line err: %v", err)
	}
	if aborted != nil {
		t.Fatalf("abort hook fired on short input: %v", aborted)
	}
}
