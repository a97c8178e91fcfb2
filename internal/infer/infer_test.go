package infer

import (
	"strings"
	"testing"

	"jash/internal/spec"
)

func inferClass(t *testing.T, argv ...string) Result {
	t.Helper()
	res, err := Infer(argv)
	if err != nil {
		t.Fatalf("Infer(%v): %v", argv, err)
	}
	return res
}

func TestInferStateless(t *testing.T) {
	for _, argv := range [][]string{
		{"tr", "a-z", "A-Z"},
		{"grep", "the"},
		{"grep", "-v", "the"},
		{"cut", "-c", "1-3"},
		{"sed", "s/a/b/"},
		{"rev"},
		{"awk", "{print $1}"},
	} {
		res := inferClass(t, argv...)
		if res.Class != spec.Stateless {
			t.Errorf("%v inferred %v, want stateless\n%s", argv, res.Class, strings.Join(res.Evidence, "\n"))
		}
		if res.Agg != spec.AggConcat {
			t.Errorf("%v agg = %v", argv, res.Agg)
		}
	}
}

func TestInferMergeSortable(t *testing.T) {
	for _, argv := range [][]string{
		{"sort"},
		{"sort", "-r"},
		{"sort", "-n"},
		{"sort", "-rn"},
	} {
		res := inferClass(t, argv...)
		if res.Class != spec.Parallelizable || res.Agg != spec.AggMergeSort {
			t.Errorf("%v inferred %v/%v, want parallelizable/merge-sort\n%s",
				argv, res.Class, res.Agg, strings.Join(res.Evidence, "\n"))
		}
	}
}

func TestInferSummable(t *testing.T) {
	for _, argv := range [][]string{
		{"wc", "-l"},
		{"wc"},
		{"grep", "-c", "the"},
	} {
		res := inferClass(t, argv...)
		if res.Class != spec.Parallelizable || res.Agg != spec.AggSum {
			t.Errorf("%v inferred %v/%v, want parallelizable/sum\n%s",
				argv, res.Class, res.Agg, strings.Join(res.Evidence, "\n"))
		}
	}
}

func TestInferBlocking(t *testing.T) {
	for _, argv := range [][]string{
		{"uniq"},
		{"uniq", "-c"},
		{"head", "-n", "3"},
		{"tail", "-n", "3"},
		{"nl"},
		{"awk", "{print NR, $0}"},
	} {
		res := inferClass(t, argv...)
		if res.Class != spec.Blocking {
			t.Errorf("%v inferred %v, want blocking\n%s", argv, res.Class, strings.Join(res.Evidence, "\n"))
		}
	}
}

func TestInferSideEffectful(t *testing.T) {
	res := inferClass(t, "tee", "/copy.out")
	if res.Class != spec.SideEffectful {
		t.Errorf("tee inferred %v, want side-effectful\n%s", res.Class, strings.Join(res.Evidence, "\n"))
	}
}

func TestInferNondeterministic(t *testing.T) {
	// shuf is seeded via JASH_SEED which we hold constant, so it is
	// deterministic here — but it is not stateless, not merge-sortable,
	// not summable: blocking.
	res := inferClass(t, "shuf")
	if res.Class != spec.Blocking {
		t.Errorf("shuf inferred %v, want blocking", res.Class)
	}
}

func TestInferUnknownCommand(t *testing.T) {
	if _, err := Infer([]string{"no-such-utility"}); err == nil {
		t.Error("unknown command should error")
	}
}

// TestInferRefusesACommandThatNeverSucceeds: a command that exits non-zero
// on every corpus prints nothing, so every law would hold of it vacuously
// (rm and false used to infer as stateless, rm as "pure"). Inference
// refuses instead, naming the status and the first line of stderr.
func TestInferRefusesACommandThatNeverSucceeds(t *testing.T) {
	for _, tc := range []struct {
		argv []string
		want string
	}{
		{[]string{"rm"}, `infer: "rm" exits 2 on every corpus: rm: missing operand`},
		{[]string{"false"}, `infer: "false" exits 1 on every corpus`},
	} {
		res, err := Infer(tc.argv)
		if err == nil || err.Error() != tc.want {
			t.Errorf("Infer(%v) = class %v, err %v; want the refusal %q", tc.argv, res.Class, err, tc.want)
		}
	}
}

func TestEvidenceRecorded(t *testing.T) {
	res := inferClass(t, "sort")
	if len(res.Evidence) < 2 {
		t.Errorf("evidence too thin: %v", res.Evidence)
	}
	joined := strings.Join(res.Evidence, "\n")
	if !strings.Contains(joined, "HOLDS") {
		t.Errorf("no law held in evidence: %s", joined)
	}
}

func TestAgreementWithBuiltinSpecs(t *testing.T) {
	lib := spec.Builtin()
	cases := [][]string{
		{"tr", "a-z", "A-Z"},
		{"grep", "the"},
		{"grep", "-c", "the"},
		{"cut", "-c", "1-3"},
		{"sort"},
		{"sort", "-rn"},
		{"wc", "-l"},
		{"uniq"},
		{"uniq", "-c"},
		{"head", "-n", "2"},
		{"tail", "-n", "2"},
		{"sed", "s/x/y/"},
		{"awk", "{print $1}"},
		{"rev"},
		{"tac"},
		{"expand"},
		{"unexpand"},
		{"fold", "-w", "10"},
	}
	verdicts, ratio, err := Agreement(lib, cases)
	if err != nil {
		t.Fatal(err)
	}
	if ratio < 0.9 {
		t.Errorf("agreement = %.2f, want >= 0.9; verdicts: %v", ratio, verdicts)
	}
}
