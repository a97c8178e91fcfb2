// Package cmd_test builds the real binaries once and exercises them
// end-to-end: flags, exit statuses, and output formats — the layer unit
// tests cannot reach.
package cmd_test

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"jash/internal/trace"
)

var binDir string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "jash-bins")
	if err != nil {
		panic(err)
	}
	binDir = dir
	for _, name := range []string{"jash", "jashc", "jashlint", "jashexplain", "jashtrace"} {
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

// traceRun runs jash with -trace into a fresh file and returns the file and
// jashtrace's default render of it.
func traceRun(t *testing.T, args ...string) (string, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "t.jsonl")
	out, errs, code := runBin(t, "jash", "", append([]string{"-trace", path}, args...)...)
	if code != 0 || out != "" {
		t.Fatalf("jash: code=%d stdout=%q stderr=%q", code, out, errs)
	}
	rendered, errs, code := runBin(t, "jashtrace", "", path)
	if code != 0 {
		t.Fatalf("jashtrace: code=%d stderr=%q", code, errs)
	}
	return path, rendered
}

// TestJashWordsAndStats: the trace of a compiled run says what the session
// totals said — how many pipelines were optimized, with what strategy,
// width, estimate and reason.
func TestJashWordsAndStats(t *testing.T) {
	_, out := traceRun(t, "-words", "/d=200000", "-profile", "ioopt",
		"-c", "cat /d | tr A-Z a-z | sort | head -n1 >/dev/null")
	if n := strings.Count(out, "-df reason="); n != 1 {
		t.Errorf("%d optimized pipeline span(s), want 1:\n%s", n, out)
	}
	for _, want := range []string{"est_seconds=", "width="} {
		if !strings.Contains(out, want) {
			t.Errorf("trace missing %q:\n%s", want, out)
		}
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

// TestJashSpecialBuiltinErrorEndsOnlyAScript: a usage error in a special
// builtin ends a script with status 2, as in dash; under -i the line fails
// and the repl reads the next one.
func TestJashSpecialBuiltinErrorEndsOnlyAScript(t *testing.T) {
	if out, _, code := runBin(t, "jash", "", "-c", "set -Z; echo after"); code != 2 || out != "" {
		t.Errorf("script: out=%q code=%d, want nothing and 2", out, code)
	}
	if out, _, code := runBin(t, "jash", "set -Z\necho after\n", "-i"); code != 0 || out != "after\n" {
		t.Errorf("repl: out=%q code=%d, want after and 0", out, code)
	}
}

// TestJashInteractiveExitTrapEndsTheSession: a line of the repl does not
// end the session, so the EXIT trap fires once, at the end of input, after
// every line; and it runs under a command span, so a pipeline the JIT
// accepts in the trap body is not a root of the trace.
func TestJashInteractiveExitTrapEndsTheSession(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.jsonl")
	out, errs, code := runBin(t, "jash", "trap 'cat /d.txt | sort >/o; echo bye' EXIT\necho hi\n",
		"-words", "/d.txt=3000", "-trace", path, "-i")
	if code != 0 || out != "hi\nbye\n" {
		t.Fatalf("repl: out=%q code=%d stderr=%q, want hi then bye", out, code, errs)
	}
	if out, errs, code := runBin(t, "jashtrace", "", "-check", path); code != 0 {
		t.Fatalf("jashtrace -check: code=%d %s%s", code, out, errs)
	}
	rendered, _, _ := runBin(t, "jashtrace", "", path)
	if !strings.Contains(rendered, "outcome=sequential-df") {
		t.Errorf("the trap's pipeline was not traced:\n%s", rendered)
	}
}

// TestJashSyntaxErrorRunsExitTrap: a syntax error ends the session the way
// the end of the script does — the diagnostic, then the EXIT trap (which
// sees $? = 2) — and the shell exits 2, as dash does.
func TestJashSyntaxErrorRunsExitTrap(t *testing.T) {
	script := filepath.Join(t.TempDir(), "q.sh")
	if err := os.WriteFile(script, []byte("trap 'echo bye $?' EXIT\necho hi\nif then\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(filepath.Join(binDir, "jash"), script)
	out, err := cmd.CombinedOutput()
	ee, _ := err.(*exec.ExitError)
	want := "hi\njash: syntax error at 3:4: empty if condition: expected a command, found \"then\"\nbye 2\n"
	if ee == nil || ee.ExitCode() != 2 || string(out) != want {
		t.Errorf("out=%q err=%v, want %q and exit 2", out, err, want)
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

// TestJashStatsPerNode: the trace must carry the executor's measured
// per-node counters for a parallelized pipeline — bytes in and out, peak
// buffered bytes, wall time as the span's duration — next to the model's
// prediction, and the plan's bytes moved and largest buffer.
func TestJashStatsPerNode(t *testing.T) {
	_, out := traceRun(t, "-words", "/d=4000000", "-profile", "ioopt",
		"-c", "cat /d | tr A-Z a-z | sort >/dev/null")
	for _, want := range []string{"outcome=parallel-df", "est_seconds=", "node:split", "node:merge",
		"bytes_in=", "bytes_out=", "peak_buffered_bytes=", "bytes_moved="} {
		if !strings.Contains(out, want) {
			t.Errorf("trace missing %q:\n%s", want, out)
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
	// Every splittable run is fanned out, not only the first: the
	// word-frequency pipeline has three, each ending in its own merge.
	out, errs, code = runBin(t, "jashc", "", "-plan", "pash", "-format", "json", "-c",
		"cat /w | tr A-Z a-z | sort | uniq -c | sort -rn | tr a-z A-Z | grep -v zz")
	var plan struct {
		Nodes []struct {
			ID   int      `json:"id"`
			Kind string   `json:"kind"`
			Argv []string `json:"argv"`
		} `json:"nodes"`
		Edges []struct{ From, To, ToPort int } `json:"edges"`
	}
	if err := json.Unmarshal([]byte(out), &plan); code != 0 || err != nil {
		t.Fatalf("code=%d errs=%q: %v", code, errs, err)
	}
	kind, argv, from := map[int]string{}, map[int]string{}, map[int]int{}
	for _, n := range plan.Nodes {
		kind[n.ID], argv[n.ID] = n.Kind, strings.Join(n.Argv, " ")
	}
	for _, e := range plan.Edges {
		if e.ToPort == 0 {
			from[e.To] = e.From
		}
	}
	var lanes []string // each merge's lane 0, in plan order
	for _, n := range plan.Nodes {
		if n.Kind != "merge" {
			continue
		}
		var lane []string
		for id := from[n.ID]; kind[id] == "command"; id = from[id] {
			lane = append([]string{argv[id]}, lane...)
		}
		lanes = append(lanes, strings.Join(lane, " | "))
	}
	if got, want := strings.Join(lanes, "; "), "tr A-Z a-z | sort; sort -rn; tr a-z A-Z | grep -v zz"; got != want {
		t.Errorf("merged runs %q, want %q", got, want)
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
	// What the region former refuses ahead of time, it refuses with its
	// own reason.
	out, _, _ = runBin(t, "jashexplain", "", "cat $F | sort")
	if !strings.Contains(out, "hazard preflight: not decided ahead of time — pipeline is not a dataflow region: a word depends on shell state") {
		t.Errorf("refusal reason missing:\n%s", out)
	}
}

// TestJashexplainSaysWhyNotPlanned: an invocation the planner keeps out
// of dataflow is explained by its cause, the scanner's or the script
// parser's error, not as a command that mutates state.
func TestJashexplainSaysWhyNotPlanned(t *testing.T) {
	for _, c := range []struct{ src, why string }{
		{"sed -i s/a/b/ f", "not planned: unknown option -i"},
		{"sort -k 0 f", "not planned: invalid key 0"},
		{"awk '{n++}'", "not planned: ++ and -- are not supported"},
	} {
		out, _, code := runBin(t, "jashexplain", "", c.src)
		if code != 0 || !strings.Contains(out, "dataflow class: side-effectful — "+c.why) || strings.Contains(out, "mutates state") {
			t.Errorf("%s: code=%d, want %q:\n%s", c.src, code, c.why, out)
		}
	}
}

// TestRejectedScriptDiagnosedOnce: a sed or awk program the utility
// rejects is never split into lanes, so its one diagnostic prints once in
// every mode, over an input on which a stateless stage runs four lanes.
func TestRejectedScriptDiagnosedOnce(t *testing.T) {
	const awk, sed = `cat /in | awk "{n++; print n}" | wc -l`, `cat /in | sed "/a/,/b/p" | wc -l`
	for _, c := range []struct{ mode, src, diag string }{
		{"bash", awk, "awk: ++ and -- are not supported\n"},
		{"jash", awk, "awk: ++ and -- are not supported\n"},
		{"pash", awk, "awk: ++ and -- are not supported\n"},
		{"pash", sed, "sed: address ranges are not supported\n"},
		{"jash", `cat /in | awk '{printf "%z"}' | wc -l`, "awk: printf: unsupported conversion %z\n"},
	} {
		out, errs, code := runBin(t, "jash", "", "-mode", c.mode, "-words", "/in=40000000", "-c", c.src)
		if code != 0 || out != "0\n" || errs != c.diag {
			t.Errorf("-mode %s %s: code=%d out=%q errs=%q, want the diagnostic once", c.mode, c.src, code, out, errs)
		}
	}
}

// TestJashexplainAgreesWithTheJIT: what the shell never compiles, explain
// does not call clean. A first stage without < whose command takes no file
// operands reads the terminal, and the region former refuses it by shape.
func TestJashexplainAgreesWithTheJIT(t *testing.T) {
	for _, src := range []string{"tr a-z A-Z", "seq 1 100 | sort -n"} {
		out, _, code := runBin(t, "jashexplain", "", src)
		if code != 0 {
			t.Fatalf("%s: code=%d", src, code)
		}
		if want := "hazard preflight: not a region, the JIT interprets it — pipeline is not a dataflow region: the first stage has no < and its command takes no file operands, so it reads the terminal"; !strings.Contains(out, want) || strings.Contains(out, "clean") {
			t.Errorf("%s: want the refusal, not a clean verdict:\n%s", src, out)
		}
	}
}

func TestJashStatsHazardReject(t *testing.T) {
	_, out := traceRun(t, "-words", "/d/f=100000",
		"-c", "grep -c a /d/f | sort -rn >>/d/f")
	if n := strings.Count(out, "outcome=hazard-reject reason=read-after-write on /d/f"); n != 1 {
		t.Errorf("%d hazard-rejected pipeline span(s), want 1:\n%s", n, out)
	}
}

// TestJashtraceCheckGatesOnDrift: every pipeline span of a real run says
// how it settled; -check fails, naming the span, when one does not.
func TestJashtraceCheckGatesOnDrift(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.jsonl")
	if _, errs, code := runBin(t, "jash", "", "-words", "/d/f=100000", "-trace", path,
		"-c", "cat /d/f | tr a-z A-Z | sort >/o; grep -c a /d/f | sort -rn >>/d/f"); code != 0 {
		t.Fatalf("jash: code=%d errs=%q", code, errs)
	}
	if out, errs, code := runBin(t, "jashtrace", "", "-check", path); code != 0 {
		t.Fatalf("a real trace failed its own check: code=%d %s%s", code, out, errs)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	run, err := trace.Read(strings.NewReader(string(data)))
	if err != nil {
		t.Fatal(err)
	}
	var id uint64
	for _, sp := range run.Spans {
		if sp.Name == "pipeline" && sp.Attrs["outcome"] == "hazard-reject" {
			id = sp.ID
		}
	}
	stripped := strings.Replace(string(data), `"outcome":"hazard-reject",`, "", 1)
	if id == 0 || stripped == string(data) {
		t.Fatalf("trace has no hazard-reject outcome to strip:\n%s", data)
	}
	_, errs, code := runBin(t, "jashtrace", stripped, "-check")
	if want := fmt.Sprintf("span %d (pipeline) has no outcome", id); code != 1 || !strings.Contains(errs, want) {
		t.Errorf("stripped trace: code=%d errs=%q, want exit 1 and %q", code, errs, want)
	}
}

// TestJashtraceCheckAcceptsInterpretedPipelines: a pipeline the JIT
// declines runs on the executor under its command's span, one node span per
// stage, so its trace has no second kind of root and passes -check.
func TestJashtraceCheckAcceptsInterpretedPipelines(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.jsonl")
	out, errs, code := runBin(t, "jash", "", "-trace", path, "-c", "seq 3 | while read x; do echo $x; done")
	if code != 0 || out != "1\n2\n3\n" {
		t.Fatalf("jash: code=%d stdout=%q stderr=%q", code, out, errs)
	}
	if out, errs, code := runBin(t, "jashtrace", "", "-check", path); code != 0 {
		t.Fatalf("jashtrace -check: code=%d %s%s", code, out, errs)
	}
	rendered, errs, code := runBin(t, "jashtrace", "", path)
	if code != 0 {
		t.Fatalf("jashtrace: code=%d stderr=%q", code, errs)
	}
	for _, want := range []string{"interpret:pipeline", "node:seq 3"} {
		if !strings.Contains(rendered, want) {
			t.Errorf("trace missing %q:\n%s", want, rendered)
		}
	}
}

// TestJashtraceCheckRejectsOrphans: a span whose parent is not in the trace
// (the parent leaked: it never ended, so it was never written) fails
// -check, naming the missing parent.
func TestJashtraceCheckRejectsOrphans(t *testing.T) {
	path, _ := traceRun(t, "-c", "echo hi >/o")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	orphan := `{"type":"span","id":9999,"parent":9998,"name":"plan","start_us":1,"dur_us":1}` + "\n"
	_, errs, code := runBin(t, "jashtrace", orphan+string(data), "-check")
	if code != 1 || !strings.Contains(errs, "span 9999 (plan) names parent 9998, which is not in the trace") {
		t.Errorf("orphaned span: code=%d errs=%q, want exit 1 naming parent 9998", code, errs)
	}
}

// TestJashtraceChrome: -chrome converts a run's trace to a Chrome
// trace_event document — one complete (X) event per span and an instant
// (i) event per span event, and nothing else.
func TestJashtraceChrome(t *testing.T) {
	path, _ := traceRun(t, "-words", "/big=80000",
		"-c", "cat /big | tr A-Z a-z | sort >/o; grep -c a /big | sort -rn >>/big")
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	run, err := trace.Read(f)
	if err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(t.TempDir(), "t.chrome.json")
	if _, errs, code := runBin(t, "jashtrace", "", "-chrome", out, path); code != 0 {
		t.Fatalf("jashtrace -chrome: code=%d errs=%q", code, errs)
	}
	raw, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name  string `json:"name"`
			Phase string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("not JSON: %v", err)
	}
	got := map[string]int{}
	for _, ev := range doc.TraceEvents {
		got[ev.Phase]++
	}
	want := map[string]int{"X": len(run.Spans)}
	for _, s := range run.Spans {
		want["i"] += len(s.Events)
	}
	if want["i"] == 0 {
		t.Fatalf("the run recorded no span events: %v", want)
	}
	if len(got) != len(want) || got["X"] != want["X"] || got["i"] != want["i"] {
		t.Errorf("events by phase = %v, want %v", got, want)
	}
}

// TestJashexplainTutorInfers: for a utility the shell implements, the
// tutor learns the class by behavioural testing, shows the evidence, and
// says whether the hand-written spec agrees.
func TestJashexplainTutorInfers(t *testing.T) {
	out, errs, code := runBin(t, "jashexplain", "", "-tutor", "sort", "-rn")
	if code != 0 {
		t.Fatalf("code=%d errs=%q", code, errs)
	}
	for _, want := range []string{"inferred by behavioural testing (sort -rn)",
		"class=parallelizable aggregator=merge-sort", "merge-sortable: f(A++B) == merge(f(A), f(B)): HOLDS",
		"AGREES with the hand-written spec"} {
		if !strings.Contains(out, want) {
			t.Errorf("tutor missing %q:\n%s", want, out)
		}
	}
}

// TestJashexplainTutorCaveatsWithoutSpec: a command with no specification
// still gets its caveats; rm's inference refuses (rm fails on every
// corpus) instead of reporting a class.
func TestJashexplainTutorCaveatsWithoutSpec(t *testing.T) {
	out, _, code := runBin(t, "jashexplain", "", "-tutor", "rm")
	if code != 1 {
		t.Errorf("code=%d, want 1 (no specification on file)", code)
	}
	for _, want := range []string{"no specification on file", "rm: missing operand", "JSH201"} {
		if !strings.Contains(out, want) {
			t.Errorf("tutor rm missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "class=") {
		t.Errorf("tutor rm inferred a class for a command that always fails:\n%s", out)
	}
	for cmd, code := range map[string]string{"read": "JSH206", "cd": "JSH207"} {
		if out, _, _ := runBin(t, "jashexplain", "", "-tutor", cmd); !strings.Contains(out, code) {
			t.Errorf("tutor %s missing %s:\n%s", cmd, code, out)
		}
	}
}

// TestJashWordsWriteErrorFails: a -words destination the VFS cannot create
// is a usage error, not a silently empty filesystem.
func TestJashWordsWriteErrorFails(t *testing.T) {
	out, errs, code := runBin(t, "jash", "", "-words", "/=10", "-c", "ls /")
	if code != 2 || out != "" || !strings.Contains(errs, "jash: ") {
		t.Errorf("-words /=10: code=%d stdout=%q stderr=%q, want exit 2 with a diagnostic", code, out, errs)
	}
}
