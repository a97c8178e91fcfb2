package core

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"jash/internal/cost"
	"jash/internal/trace"
	"jash/internal/vfs"
)

// newShell builds a shell in the given mode with captured stdout/stderr.
func newShell(fs *vfs.FS, prof *cost.Profile, mode Mode) (*Shell, *bytes.Buffer, *bytes.Buffer) {
	s := New(fs, prof, mode)
	var out, errb bytes.Buffer
	s.Interp.Stdout = &out
	s.Interp.Stderr = &errb
	return s, &out, &errb
}

// wordsFile writes a deterministic mixed-case corpus and returns it.
func wordsFile(fs *vfs.FS, path string, lines int) string {
	words := []string{"Apple", "banana", "CHERRY", "date", "Elderberry", "fig"}
	var b strings.Builder
	for i := 0; i < lines; i++ {
		b.WriteString(words[i%len(words)])
		fmt.Fprintf(&b, " token%d\n", i%29)
	}
	fs.WriteFile(path, []byte(b.String()))
	return b.String()
}

func TestRunPlainCommands(t *testing.T) {
	fs := vfs.New()
	s, out, _ := newShell(fs, cost.Laptop(), ModeJash)
	st, err := s.Run("echo hello\nX=5\necho $X\n")
	if err != nil || st != 0 {
		t.Fatalf("st=%d err=%v", st, err)
	}
	if out.String() != "hello\n5\n" {
		t.Errorf("out=%q", out.String())
	}
}

func TestLineOrientedStateVisible(t *testing.T) {
	// Each command must see prior commands' state: the essence of the
	// line-oriented JIT (the spell example's $FILES/$DICT).
	fs := vfs.New()
	fs.WriteFile("/data", []byte("b\na\n"))
	s, out, _ := newShell(fs, cost.Laptop(), ModeJash)
	st, err := s.Run("F=/data\nsort $F\n")
	if err != nil || st != 0 {
		t.Fatalf("st=%d err=%v", st, err)
	}
	if out.String() != "a\nb\n" {
		t.Errorf("out=%q", out.String())
	}
}

func TestJITOptimizesConcreteFilePipeline(t *testing.T) {
	fs := vfs.New()
	wordsFile(fs, "/big", 2000)
	prof := cost.IOOptEC2()
	s, out, _ := newShell(fs, prof, ModeJash)
	// Pretend the file is huge so the cost model sees paper-scale data:
	// the real content is small; the planner probes sizes through Stat,
	// so we use a real 2000-line file and assert on behaviour + output.
	st, err := s.Run("cat /big | tr A-Z a-z | tr -cs A-Za-z '\\n' | sort >/out\n")
	if err != nil || st != 0 {
		t.Fatalf("st=%d err=%v out=%q", st, err, out.String())
	}
	if s.Stats.Optimized != 1 {
		t.Fatalf("optimized=%d decisions=%+v", s.Stats.Optimized, s.Stats.Decisions)
	}
	// Output must equal the interpreter's.
	fs2 := vfs.New()
	wordsFile(fs2, "/big", 2000)
	b, bout, _ := newShell(fs2, cost.IOOptEC2(), ModeBash)
	if _, err := b.Run("cat /big | tr A-Z a-z | tr -cs A-Za-z '\\n' | sort >/out\n"); err != nil {
		t.Fatal(err)
	}
	_ = bout
	want, _ := fs2.ReadFile("/out")
	got, _ := fs.ReadFile("/out")
	if !bytes.Equal(got, want) {
		t.Errorf("optimized output diverges from interpreted output")
	}
}

func TestJITParallelizesLargeInputOnFastDisk(t *testing.T) {
	fs := vfs.New()
	wordsFile(fs, "/big", 1000)
	// Inflate the file's apparent size by padding: write a large file for
	// real so Stat reports a planner-relevant size.
	pad := strings.Repeat("line of words here\n", 1<<16) // ~1.2 MB
	var big strings.Builder
	for i := 0; i < 16; i++ { // ~20 MB: enough for the planner to go wide
		big.WriteString(pad)
	}
	fs.WriteFile("/big", []byte(big.String()))
	s, _, _ := newShell(fs, cost.IOOptEC2(), ModeJash)
	st, err := s.Run("cat /big | tr A-Z a-z | sort >/dev-null\n")
	if err != nil || st != 0 {
		t.Fatalf("st=%d err=%v", st, err)
	}
	d, ok := s.LastDecision()
	if !ok {
		t.Fatal("no decision recorded")
	}
	if d.Strategy != "parallel-df" || d.Width < 2 {
		t.Errorf("decision = %+v, want parallel", d)
	}
}

// TestSyntaxErrorPositionIsTheScripts: Run parses one command at a time,
// and a syntax error's position counts from the start of the script, not of
// the command that failed to parse.
func TestSyntaxErrorPositionIsTheScripts(t *testing.T) {
	for _, tc := range []struct{ src, at string }{
		{"echo a; fi\n", "1:9"},
		{"echo a\n\n\n\nfi\n", "5:1"},
		{"echo a\n   fi\n", "2:4"},
		{"echo a\necho b; fi\n", "2:9"},
	} {
		s, _, _ := newShell(vfs.New(), cost.Laptop(), ModeJash)
		st, err := s.Run(tc.src)
		if st != 2 || err == nil || !strings.HasPrefix(err.Error(), "syntax error at "+tc.at+":") {
			t.Errorf("Run(%q) = %d, %v; want 2 and a syntax error at %s", tc.src, st, err, tc.at)
		}
	}
}

func TestJITKeepsSmallInputSequential(t *testing.T) {
	fs := vfs.New()
	fs.WriteFile("/small", []byte("b\na\nc\n"))
	s, out, _ := newShell(fs, cost.IOOptEC2(), ModeJash)
	st, err := s.Run("cat /small | sort\n")
	if err != nil || st != 0 {
		t.Fatalf("st=%d err=%v", st, err)
	}
	if out.String() != "a\nb\nc\n" {
		t.Errorf("out=%q", out.String())
	}
	d, _ := s.LastDecision()
	if d.Width != 1 {
		t.Errorf("small input parallelized: %+v", d)
	}
}

func TestJITFallsBackOnDynamicWords(t *testing.T) {
	fs := vfs.New()
	fs.WriteFile("/f", []byte("x\n"))
	s, out, _ := newShell(fs, cost.IOOptEC2(), ModeJash)
	// Command substitution in a word: not safe to expand early.
	st, err := s.Run("cat $(echo /f) | sort\n")
	if err != nil || st != 0 {
		t.Fatalf("st=%d err=%v", st, err)
	}
	if out.String() != "x\n" {
		t.Errorf("out=%q", out.String())
	}
	if s.Stats.Optimized != 0 {
		t.Errorf("cmd-subst pipeline was optimized: %+v", s.Stats.Decisions)
	}
	if s.Stats.Interpreted == 0 {
		t.Error("fallback not counted")
	}
}

func TestJITFallsBackOnUnknownCommand(t *testing.T) {
	fs := vfs.New()
	fs.WriteFile("/f", []byte("b\na\n"))
	s, out, _ := newShell(fs, cost.IOOptEC2(), ModeJash)
	// awk with accumulation is Blocking; that still compiles. Use a
	// pipeline with a command outside the spec library instead: `read` is
	// a builtin, not in the library.
	st, _ := s.Run("cat /f | sort | while read l; do echo got:$l; done\n")
	if st != 0 {
		t.Fatalf("st=%d", st)
	}
	if out.String() != "got:a\ngot:b\n" {
		t.Errorf("out=%q", out.String())
	}
	if s.Stats.Optimized != 0 {
		t.Error("compound pipeline should interpret")
	}
}

func TestJITExpandsVariablesBeforePlanning(t *testing.T) {
	// The paper's spell script: $FILES and $DICT are unexpandable ahead
	// of time but concrete at dispatch. Jash must optimize it.
	fs := vfs.New()
	fs.WriteFile("/usr/dict", []byte("apple\nbanana\ncherry\ndate\nelderberry\nfig\n"))
	wordsFile(fs, "/doc1", 400)
	s, out, _ := newShell(fs, cost.IOOptEC2(), ModeJash)
	script := `DICT=/usr/dict
FILES="/doc1"
cat $FILES | tr A-Z a-z | tr -cs A-Za-z '\n' | sort -u | comm -13 $DICT -
`
	st, err := s.Run(script)
	if err != nil || st != 0 {
		t.Fatalf("st=%d err=%v", st, err)
	}
	if s.Stats.Optimized != 1 {
		t.Fatalf("spell pipeline not optimized: %+v", s.Stats.Decisions)
	}
	// Every dictionary word is spelled correctly; "token" (digits are
	// squeezed away by tr -cs) is the single misspelling.
	if out.String() != "token\n" {
		t.Errorf("spell output wrong: %.200q", out.String())
	}
}

func TestJITFallsBackWhenInputMissing(t *testing.T) {
	fs := vfs.New()
	s, _, errb := newShell(fs, cost.IOOptEC2(), ModeJash)
	st, err := s.Run("cat /missing | sort\n")
	if err != nil {
		t.Fatal(err)
	}
	// POSIX pipeline status is the last stage's: sort of empty input is 0.
	if st != 0 {
		t.Errorf("st=%d, want 0 (last stage's status)", st)
	}
	if s.Stats.Optimized != 0 {
		t.Error("missing input should interpret, not optimize")
	}
	if !strings.Contains(errb.String(), "missing") {
		t.Errorf("stderr=%q", errb.String())
	}
}

func TestJITRespectsGlobExpansion(t *testing.T) {
	fs := vfs.New()
	fs.WriteFile("/logs/a.log", []byte("zeta\n"))
	fs.WriteFile("/logs/b.log", []byte("alpha\n"))
	s, out, _ := newShell(fs, cost.IOOptEC2(), ModeJash)
	st, err := s.Run("cd /logs\ncat *.log | sort\n")
	if err != nil || st != 0 {
		t.Fatalf("st=%d err=%v", st, err)
	}
	if out.String() != "alpha\nzeta\n" {
		t.Errorf("out=%q", out.String())
	}
}

func TestModePaShAlwaysParallelizes(t *testing.T) {
	fs := vfs.New()
	fs.WriteFile("/tiny", []byte("b\na\n"))
	s, out, _ := newShell(fs, cost.StandardEC2(), ModePaSh)
	st, err := s.Run("cat /tiny | sort\n")
	if err != nil || st != 0 {
		t.Fatalf("st=%d err=%v", st, err)
	}
	if out.String() != "a\nb\n" {
		t.Errorf("out=%q", out.String())
	}
	d, _ := s.LastDecision()
	if d.Width != 8 {
		t.Errorf("PaSh width = %d, want 8 (resource-oblivious)", d.Width)
	}
}

func TestModeBashNeverOptimizes(t *testing.T) {
	fs := vfs.New()
	wordsFile(fs, "/f", 500)
	s, _, _ := newShell(fs, cost.StandardEC2(), ModeBash)
	st, err := s.Run("cat /f | tr A-Z a-z | sort >/out\n")
	if err != nil || st != 0 {
		t.Fatalf("st=%d err=%v", st, err)
	}
	if s.Stats.Optimized != 0 {
		t.Error("bash mode optimized")
	}
	if !fs.Exists("/out") {
		t.Error("pipeline did not run")
	}
}

func TestVirtualTimeAccumulates(t *testing.T) {
	fs := vfs.New()
	wordsFile(fs, "/f", 500)
	s, _, _ := newShell(fs, cost.StandardEC2(), ModeJash)
	s.Run("cat /f | sort >/o1\n")
	v1 := s.Stats.VirtualSeconds
	s.Run("cat /f | sort >/o2\n")
	if s.Stats.VirtualSeconds <= v1 {
		t.Error("virtual time did not accumulate")
	}
}

func TestBurstCreditsPersistAcrossPipelines(t *testing.T) {
	// Back-to-back heavy pipelines must drain the gp2 bucket: the JIT's
	// "current system conditions" include prior executions.
	fs := vfs.New()
	big := strings.Repeat("some words in a line\n", 1<<15)
	fs.WriteFile("/big", []byte(big))
	s, _, _ := newShell(fs, cost.StandardEC2(), ModeJash)
	before := s.Profile.Devices["default"].Credits
	s.Run("cat /big | sort >/o1\n")
	after := s.Profile.Devices["default"].Credits
	if after >= before {
		t.Errorf("credits did not drain: %v -> %v", before, after)
	}
}

// TestTraceOutput: a compiled pipeline leaves a pipeline span carrying the
// record's text, outcome, width, estimate and reason.
func TestTraceOutput(t *testing.T) {
	fs := vfs.New()
	fs.WriteFile("/f", []byte("b\na\n"))
	s, _, _ := newShell(fs, cost.IOOptEC2(), ModeJash)
	var buf bytes.Buffer
	s.EnableTracing(trace.New(trace.Options{Writer: &buf}))
	s.Run("cat /f | sort\n")
	d := readTrace(t, s, &buf)
	sp, ok := findSpan(d, "pipeline")
	if !ok {
		t.Fatalf("no pipeline span in %+v", d.Spans)
	}
	last, _ := s.LastDecision()
	if sp.Attrs["text"] != "cat /f | sort" || sp.Attrs["outcome"] != last.Strategy ||
		sp.Attrs["width"] != float64(last.Width) || sp.Attrs["reason"] != last.Reason {
		t.Errorf("pipeline span attrs = %v, want the record %+v", sp.Attrs, last)
	}
	if _, ok := sp.Attrs["est_seconds"].(float64); !ok {
		t.Errorf("pipeline span has no est_seconds: %v", sp.Attrs)
	}
}

func TestControlFlowInterpreted(t *testing.T) {
	fs := vfs.New()
	s, out, _ := newShell(fs, cost.IOOptEC2(), ModeJash)
	st, err := s.Run("for i in 1 2 3; do echo n$i; done\nif true; then echo yes; fi\n")
	if err != nil || st != 0 {
		t.Fatalf("st=%d err=%v", st, err)
	}
	if out.String() != "n1\nn2\nn3\nyes\n" {
		t.Errorf("out=%q", out.String())
	}
}

func TestExitStopsLineLoop(t *testing.T) {
	fs := vfs.New()
	s, out, _ := newShell(fs, cost.Laptop(), ModeJash)
	st, err := s.Run("echo one\nexit 7\necho two\n")
	if err != nil {
		t.Fatal(err)
	}
	if st != 7 || out.String() != "one\n" {
		t.Errorf("st=%d out=%q", st, out.String())
	}
}

func TestRedirectionsDisqualifyMiddleStage(t *testing.T) {
	fs := vfs.New()
	fs.WriteFile("/f", []byte("b\na\n"))
	s, _, _ := newShell(fs, cost.IOOptEC2(), ModeJash)
	st, _ := s.Run("cat /f | sort 2>/err | uniq >/out\n")
	if st != 0 {
		t.Fatalf("st=%d", st)
	}
	if s.Stats.Optimized != 0 {
		t.Error("stderr redirection mid-pipeline must interpret")
	}
	data, _ := fs.ReadFile("/out")
	if string(data) != "a\nb\n" {
		t.Errorf("out file=%q", data)
	}
}

func TestModePaShCannotExpandVariables(t *testing.T) {
	// The §3.2 claim: AOT systems never see the dataflow behind $F.
	fs := vfs.New()
	fs.WriteFile("/data", []byte("b\na\n"))
	s, out, _ := newShell(fs, cost.IOOptEC2(), ModePaSh)
	st, err := s.Run("F=/data\ncat $F | sort\n")
	if err != nil || st != 0 {
		t.Fatalf("st=%d err=%v", st, err)
	}
	if out.String() != "a\nb\n" {
		t.Errorf("out=%q", out.String())
	}
	if s.Stats.Optimized != 0 {
		t.Errorf("AOT mode optimized a variable-laden pipeline: %+v", s.Stats.Decisions)
	}
	// The same pipeline with static words does optimize under PaSh.
	s2, _, _ := newShell(fs, cost.IOOptEC2(), ModePaSh)
	if st, err := s2.Run("cat /data | sort\n"); err != nil || st != 0 {
		t.Fatalf("st=%d err=%v", st, err)
	}
	if s2.Stats.Optimized != 1 {
		t.Errorf("static pipeline not optimized by PaSh mode")
	}
}
