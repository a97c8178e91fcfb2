// Package cmd_test builds the real binaries once and exercises them
// end-to-end: flags, exit statuses, and output formats — the layer unit
// tests cannot reach.
package cmd_test

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

var binDir string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "jash-bins")
	if err != nil {
		panic(err)
	}
	binDir = dir
	for _, name := range []string{"jash", "jashc", "jashlint", "jashexplain", "jashinfer", "jashbench", "jashtrace"} {
		cmd := exec.Command("go", "build", "-o", filepath.Join(dir, name), "./"+name)
		cmd.Dir = mustSelfDir()
		if out, err := cmd.CombinedOutput(); err != nil {
			panic(name + ": " + string(out))
		}
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// mustSelfDir returns the cmd/ directory this test file lives in.
func mustSelfDir() string {
	wd, err := os.Getwd()
	if err != nil {
		panic(err)
	}
	return wd
}

func runBin(t *testing.T, name string, stdin string, args ...string) (string, string, int) {
	t.Helper()
	cmd := exec.Command(filepath.Join(binDir, name), args...)
	cmd.Stdin = strings.NewReader(stdin)
	var out, errb strings.Builder
	cmd.Stdout = &out
	cmd.Stderr = &errb
	err := cmd.Run()
	code := 0
	if ee, ok := err.(*exec.ExitError); ok {
		code = ee.ExitCode()
	} else if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return out.String(), errb.String(), code
}

func TestJashScript(t *testing.T) {
	out, errs, code := runBin(t, "jash", "", "-c", "echo hello | tr a-z A-Z")
	if code != 0 || out != "HELLO\n" {
		t.Errorf("out=%q errs=%q code=%d", out, errs, code)
	}
}

func TestJashExitStatusPropagates(t *testing.T) {
	_, _, code := runBin(t, "jash", "", "-c", "exit 7")
	if code != 7 {
		t.Errorf("code=%d, want 7", code)
	}
}

func TestJashWordsAndStats(t *testing.T) {
	out, errs, code := runBin(t, "jash", "",
		"-words", "/d=200000", "-stats", "-profile", "ioopt",
		"-c", "cat /d | tr A-Z a-z | sort | head -n1 >/dev/null")
	if code != 0 {
		t.Fatalf("code=%d errs=%q", code, errs)
	}
	if out != "" {
		t.Errorf("stdout=%q", out)
	}
	if !strings.Contains(errs, "optimized") {
		t.Errorf("stats missing: %q", errs)
	}
}

func TestJashModesFlag(t *testing.T) {
	for _, mode := range []string{"bash", "pash", "jash"} {
		out, _, code := runBin(t, "jash", "", "-mode", mode, "-c", "echo "+mode)
		if code != 0 || out != mode+"\n" {
			t.Errorf("mode %s: out=%q code=%d", mode, out, code)
		}
	}
	_, errs, code := runBin(t, "jash", "", "-mode", "zsh", "-c", "echo x")
	if code != 2 || !strings.Contains(errs, "unknown mode") {
		t.Errorf("bad mode: code=%d errs=%q", code, errs)
	}
}

func TestJashInteractive(t *testing.T) {
	out, _, code := runBin(t, "jash", "X=9\necho got $X\nexit 4\n", "-i")
	if code != 4 || out != "got 9\n" {
		t.Errorf("repl: out=%q code=%d", out, code)
	}
}

// TestJashHostStdin: host stdin must reach the script's commands when
// the script itself came from -c or a file.
func TestJashHostStdin(t *testing.T) {
	out, errs, code := runBin(t, "jash", "b\na\n", "-c", "sort")
	if code != 0 || out != "a\nb\n" {
		t.Errorf("out=%q errs=%q code=%d", out, errs, code)
	}
	out, _, code = runBin(t, "jash", "x y z\n", "-c", "wc -w")
	if code != 0 || out != "3\n" {
		t.Errorf("wc -w over host stdin: out=%q code=%d", out, code)
	}
}

// TestJashStatsPerNode: -stats must report the executor's measured
// per-node counters for a parallelized pipeline, next to the model's
// prediction.
func TestJashStatsPerNode(t *testing.T) {
	_, errs, code := runBin(t, "jash", "",
		"-words", "/d=4000000", "-stats", "-profile", "ioopt",
		"-c", "cat /d | tr A-Z a-z | sort >/dev/null")
	if code != 0 {
		t.Fatalf("code=%d errs=%q", code, errs)
	}
	for _, want := range []string{"peak-buf=", "split", "merge", "measured:", "bytes moved"} {
		if !strings.Contains(errs, want) {
			t.Errorf("-stats missing %q:\n%s", want, errs)
		}
	}
}

func TestJashStdinScript(t *testing.T) {
	out, _, code := runBin(t, "jash", "echo from-stdin\n")
	if code != 0 || out != "from-stdin\n" {
		t.Errorf("out=%q code=%d", out, code)
	}
}

func TestJashc(t *testing.T) {
	out, errs, code := runBin(t, "jashc", "", "-c", "cat /in | tr A-Z a-z | sort", "-size", "3221225472", "-profile", "standard")
	if code != 0 {
		t.Fatalf("code=%d errs=%q", code, errs)
	}
	for _, want := range []string{"plan:", "estimate", "bottleneck"} {
		if !strings.Contains(out, want) {
			t.Errorf("jashc missing %q: %q", want, out)
		}
	}
	out, _, _ = runBin(t, "jashc", "", "-c", "cat /in | sort", "-plan", "pash", "-format", "dot")
	if !strings.Contains(out, "digraph") || !strings.Contains(out, "buffered") {
		t.Errorf("dot output: %q", out)
	}
	out, _, _ = runBin(t, "jashc", "", "-c", "cat /in | sort", "-format", "json", "-size", "99999999999")
	if !strings.Contains(out, `"nodes"`) {
		t.Errorf("json output: %q", out)
	}
	// Ahead of time there is no shell state, no filesystem and no shell to
	// hand the rest of a statement to: what is not wholly a static dataflow
	// region is refused with the region former's reason, never compiled as
	// if the awkward part were not there.
	for src, reason := range map[string]string{
		"cat /in | sort 2>/err":    "a redirection other than",
		"cat $F | sort":            "depends on shell state",
		"cat /in | sort >\"$out\"": "depends on shell state",
		"X=1 cat /in | sort":       "assignment prefix",
		"cat /in | sort &":         "background job",
		"cat /logs/*.log | sort":   "no filesystem",
		"cat /in | frobnicate":     "not in the specification library",
	} {
		out, errs, code := runBin(t, "jashc", "", "-c", src)
		if code == 0 || out != "" || !strings.Contains(errs, reason) {
			t.Errorf("jashc -c %q: code=%d stdout=%q stderr=%q, want a refusal naming %q", src, code, out, errs, reason)
		}
	}
}

func TestJashlint(t *testing.T) {
	out, _, code := runBin(t, "jashlint", "rm -rf $X\n")
	if code != 1 || !strings.Contains(out, "JSH201") {
		t.Errorf("code=%d out=%q", code, out)
	}
	_, _, code = runBin(t, "jashlint", "echo clean\n")
	if code != 0 {
		t.Errorf("clean script code=%d", code)
	}
	out, _, _ = runBin(t, "jashlint", "read x\n", "-severity", "warning")
	if strings.Contains(out, "JSH206") {
		t.Errorf("severity filter leaked info finding: %q", out)
	}
}

func TestJashlintJSONFormat(t *testing.T) {
	out, _, code := runBin(t, "jashlint", "rm -rf $X\n", "-format", "json")
	if code != 1 {
		t.Fatalf("code=%d out=%q", code, out)
	}
	var f struct {
		File     string `json:"file"`
		Code     string `json:"code"`
		Severity string `json:"severity"`
		Line     int    `json:"line"`
		Col      int    `json:"col"`
		Message  string `json:"message"`
	}
	line := strings.SplitN(strings.TrimSpace(out), "\n", 2)[0]
	if err := json.Unmarshal([]byte(line), &f); err != nil {
		t.Fatalf("not JSON-per-line: %q: %v", line, err)
	}
	if f.Code != "JSH201" || f.Severity != "error" || f.Line != 1 || f.File != "<stdin>" {
		t.Errorf("finding = %+v", f)
	}
	_, errs, code := runBin(t, "jashlint", "echo x\n", "-format", "yaml")
	if code != 2 || !strings.Contains(errs, "unknown format") {
		t.Errorf("bad format: code=%d errs=%q", code, errs)
	}
}

func TestJashlintContinuesPastUnreadableFile(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "missing.sh")
	good := filepath.Join(dir, "good.sh")
	if err := os.WriteFile(good, []byte("rm -rf $X\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	out, errs, code := runBin(t, "jashlint", "", bad, good)
	if code != 2 {
		t.Errorf("code=%d, want 2 after a read failure", code)
	}
	if !strings.Contains(errs, "missing.sh") {
		t.Errorf("read error not reported: %q", errs)
	}
	// The readable file was still linted.
	if !strings.Contains(out, "JSH201") {
		t.Errorf("remaining file skipped: out=%q", out)
	}
}

func TestJashlintSuppression(t *testing.T) {
	out, _, code := runBin(t, "jashlint", "# jashlint:disable=JSH201,JSH202\nrm -rf $X\n")
	if code != 0 || strings.Contains(out, "JSH201") {
		t.Errorf("suppression ignored: code=%d out=%q", code, out)
	}
	out, _, code = runBin(t, "jashlint", "# jashlint:disable=JSH999\necho ok\n")
	if code != 1 || !strings.Contains(out, "JSH001") {
		t.Errorf("unknown suppression code: code=%d out=%q", code, out)
	}
}

func TestJashexplain(t *testing.T) {
	out, _, code := runBin(t, "jashexplain", "", "grep -v 999 | sort -rn | head -n1")
	if code != 0 {
		t.Fatalf("code=%d", code)
	}
	for _, want := range []string{"stateless", "parallelizable", "blocking", "invert match"} {
		if !strings.Contains(out, want) {
			t.Errorf("explain missing %q in %q", want, out)
		}
	}
	// A stage with one dynamic word is dynamic, even though the rest of it
	// expands to something without any shell state.
	out, _, _ = runBin(t, "jashexplain", "", "cat $F /x | sort")
	if !strings.Contains(out, "cat $F /x\n  depends on dynamic state (vars: F") {
		t.Errorf("explain dropped the dynamic operand: %q", out)
	}
	out, _, code = runBin(t, "jashexplain", "", "-tutor", "sort")
	if code != 0 || !strings.Contains(out, "merge-sort") {
		t.Errorf("tutor: code=%d out=%q", code, out)
	}
}

func TestJashexplainHazardPreflight(t *testing.T) {
	out, _, code := runBin(t, "jashexplain", "", "grep -c x /d/f | sort -rn >>/d/f")
	if code != 0 {
		t.Fatalf("code=%d", code)
	}
	if !strings.Contains(out, "hazard preflight: REJECT") ||
		!strings.Contains(out, "read-after-write on /d/f") {
		t.Errorf("hazard verdict missing:\n%s", out)
	}
	out, _, _ = runBin(t, "jashexplain", "", "cat /in | sort")
	if !strings.Contains(out, "hazard preflight: clean") {
		t.Errorf("clean verdict missing:\n%s", out)
	}
}

func TestJashStatsHazardReject(t *testing.T) {
	_, errs, code := runBin(t, "jash", "",
		"-words", "/d/f=100000", "-stats",
		"-c", "grep -c a /d/f | sort -rn >>/d/f")
	if code != 0 {
		t.Fatalf("code=%d errs=%q", code, errs)
	}
	if !strings.Contains(errs, "hazard-reject") {
		t.Errorf("-stats missing hazard-reject:\n%s", errs)
	}
}

// TestJashtraceCheckGatesOnDrift: -check recounts the registry's outcome
// counters from the spans of a real run, and fails when they disagree.
func TestJashtraceCheckGatesOnDrift(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.jsonl")
	if _, errs, code := runBin(t, "jash", "", "-words", "/d/f=100000", "-trace", path,
		"-c", "cat /d/f | tr a-z A-Z | sort >/o; grep -c a /d/f | sort -rn >>/d/f"); code != 0 {
		t.Fatalf("jash: code=%d errs=%q", code, errs)
	}
	if out, errs, code := runBin(t, "jashtrace", "", "-check", path); code != 0 {
		t.Fatalf("a real trace failed its own cross-check: code=%d %s%s", code, out, errs)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	drifted := strings.Replace(string(data), `"name":"hazard_rejects","value":1`, `"name":"hazard_rejects","value":2`, 1)
	if drifted == string(data) {
		t.Fatalf("trace has no hazard_rejects=1 counter to tamper with:\n%s", data)
	}
	_, errs, code := runBin(t, "jashtrace", drifted, "-check")
	if code != 1 || !strings.Contains(errs, "hazard_rejects=2, the spans say 1") {
		t.Errorf("drifted trace: code=%d errs=%q, want exit 1 naming hazard_rejects", code, errs)
	}
}

func TestJashinfer(t *testing.T) {
	out, _, code := runBin(t, "jashinfer", "", "sort", "-rn")
	if code != 0 {
		t.Fatalf("code=%d", code)
	}
	if !strings.Contains(out, "class=parallelizable") || !strings.Contains(out, "AGREES") {
		t.Errorf("infer out=%q", out)
	}
}

func TestJashbenchFig1(t *testing.T) {
	out, errs, code := runBin(t, "jashbench", "", "fig1")
	if code != 0 {
		t.Fatalf("code=%d errs=%q", code, errs)
	}
	for _, want := range []string{"Standard (gp2)", "IO-opt (gp3)", "bash", "pash", "jash"} {
		if !strings.Contains(out, want) {
			t.Errorf("fig1 table missing %q:\n%s", want, out)
		}
	}
}

func TestJashbenchUnknown(t *testing.T) {
	_, errs, code := runBin(t, "jashbench", "", "nonsense")
	if code != 2 || !strings.Contains(errs, "unknown experiment") {
		t.Errorf("code=%d errs=%q", code, errs)
	}
}
