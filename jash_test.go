package jash

import (
	"bytes"
	"strings"
	"testing"
)

// TestFacadeQuickstart mirrors the README quickstart exactly.
func TestFacadeQuickstart(t *testing.T) {
	fs := NewFS()
	fs.WriteFile("/data", []byte("b\na\nc\n"))
	sh := NewShell(fs, LaptopProfile(), ModeJash)
	var out bytes.Buffer
	sh.Interp.Stdout = &out
	status, err := sh.Run("cat /data | sort\n")
	if err != nil || status != 0 {
		t.Fatalf("status=%d err=%v", status, err)
	}
	if out.String() != "a\nb\nc\n" {
		t.Errorf("out=%q", out.String())
	}
}

// TestFacadeModesAgree runs the same script in all three modes and
// requires identical output.
func TestFacadeModesAgree(t *testing.T) {
	script := "cat /w | tr A-Z a-z | sort | uniq -c | sort -rn | head -n3\n"
	var outputs []string
	for _, mode := range []Mode{ModeBash, ModePaSh, ModeJash} {
		fs := NewFS()
		fs.WriteFile("/w", []byte("Apple\nbanana\napple\nBANANA\napple\ncherry\n"))
		sh := NewShell(fs, StandardProfile(), mode)
		var out bytes.Buffer
		sh.Interp.Stdout = &out
		if st, err := sh.Run(script); err != nil || st != 0 {
			t.Fatalf("%v: st=%d err=%v", mode, st, err)
		}
		outputs = append(outputs, out.String())
	}
	if outputs[0] != outputs[1] || outputs[0] != outputs[2] {
		t.Errorf("modes disagree:\nbash=%q\npash=%q\njash=%q", outputs[0], outputs[1], outputs[2])
	}
	if !strings.Contains(outputs[0], "3 apple") {
		t.Errorf("unexpected output %q", outputs[0])
	}
}

func TestFacadeLint(t *testing.T) {
	findings := Lint("rm -rf $X")
	if len(findings) == 0 {
		t.Fatal("no findings")
	}
	found := false
	for _, f := range findings {
		if f.Code == "JSH201" {
			found = true
		}
	}
	if !found {
		t.Errorf("JSH201 missing: %v", findings)
	}
}

func TestFacadeInferSpec(t *testing.T) {
	res, err := InferSpec([]string{"sort", "-n"})
	if err != nil {
		t.Fatal(err)
	}
	if res.Class.String() != "parallelizable" {
		t.Errorf("class = %v", res.Class)
	}
}

func TestFacadeSpecs(t *testing.T) {
	lib := Specs()
	e := lib.Resolve([]string{"grep", "-c", "x"})
	if e.Class.String() != "parallelizable" {
		t.Errorf("grep -c class = %v", e.Class)
	}
}

// TestFacadeSessionNarrative is an end-to-end scenario: a session that
// mixes control flow, functions and optimizable pipelines, then re-runs a
// pipeline against the same shell state.
func TestFacadeSessionNarrative(t *testing.T) {
	fs := NewFS()
	fs.WriteFile("/logs/app.log", []byte(strings.Repeat("ok request\nerror timeout\nok request\n", 500)))
	sh := NewShell(fs, IOOptProfile(), ModeJash)
	var out bytes.Buffer
	sh.Interp.Stdout = &out
	script := `count_errors() { grep -c error /logs/app.log; }
if test -f /logs/app.log; then echo present; fi
count_errors
grep error /logs/app.log | wc -l
`
	st, err := sh.Run(script)
	if err != nil || st != 0 {
		t.Fatalf("st=%d err=%v out=%q", st, err, out.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 3 || lines[0] != "present" {
		t.Fatalf("out=%q", out.String())
	}
	if strings.TrimSpace(lines[1]) != "500" || strings.TrimSpace(lines[2]) != "500" {
		t.Errorf("counts = %q, %q", lines[1], lines[2])
	}
	// Re-run the last pipeline: the function and the file are still there.
	out.Reset()
	if st, err := sh.Run("count_errors; grep error /logs/app.log | wc -l\n"); err != nil || st != 0 {
		t.Fatalf("st=%d err=%v", st, err)
	}
	if got := strings.Fields(out.String()); len(got) != 2 || got[0] != "500" || got[1] != "500" {
		t.Errorf("replay = %q", out.String())
	}
}
