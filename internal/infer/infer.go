// Package infer learns PaSh-style command specifications by black-box
// testing, the §4 "Heuristic support" proposal: instead of hand-writing a
// parallelizability annotation for every command (and every user script),
// run the command on generated inputs and check which algebraic laws hold:
//
//	stateless      f(A ++ B) == f(A) ++ f(B)
//	merge-sortable f(A ++ B) == merge(f(A), f(B)) and f's output is sorted
//	summable       f(A ++ B) == f(A) + f(B) columnwise
//	side-effectful running f changes the filesystem
//
// Laws are tested on multiple random splits of multiple corpora; a law
// must hold on every trial to be accepted. The inferred class can then be
// compared against (or substitute for) a hand-written specification.
package infer

import (
	"bytes"
	"errors"
	"fmt"
	"strconv"
	"strings"

	"jash/internal/coreutils"
	"jash/internal/spec"
	"jash/internal/vfs"
	"jash/internal/workload"
)

// Result is an inferred specification.
type Result struct {
	Argv  []string
	Class spec.Class
	Agg   spec.AggKind
	// Evidence lists the laws tested and their outcomes.
	Evidence []string
	// Deterministic reports whether repeated runs agreed.
	Deterministic bool
}

// The testing budget, the same for every command: corpus/split
// combinations per law, the seed that drives corpus generation, and the
// size of each generated corpus.
const (
	trials      = 6
	seed        = 1
	corpusBytes = 4000
)

// Infer classifies the command `argv` by behavioural testing. The command
// must be resolvable in the coreutils registry (the paper's vision covers
// arbitrary binaries; our hermetic registry plays that role), and must
// succeed on at least one corpus: a command that fails everywhere produces
// no output, so every law would hold of it vacuously.
func Infer(argv []string) (Result, error) {
	res := Result{Argv: argv, Class: spec.Blocking, Agg: spec.AggNone}
	if _, ok := coreutils.Lookup(argv[0]); !ok {
		return res, fmt.Errorf("infer: command %q not available", argv[0])
	}
	corpora := makeCorpora()
	runs := make([]run, len(corpora))
	succeeded := false
	for i, c := range corpora {
		runs[i] = runOnce(argv, c)
		succeeded = succeeded || runs[i].status == 0
	}
	if !succeeded {
		msg := fmt.Sprintf("infer: %q exits %d on every corpus", strings.Join(argv, " "), runs[0].status)
		if runs[0].stderr != "" {
			msg += ": " + runs[0].stderr
		}
		return res, errors.New(msg)
	}

	// Determinism.
	res.Deterministic = true
	for i, c := range corpora {
		if !bytes.Equal(runs[i].out, runOnce(argv, c).out) {
			res.Deterministic = false
			break
		}
	}
	res.Evidence = append(res.Evidence, law("deterministic", res.Deterministic))
	if !res.Deterministic {
		return res, nil
	}

	// Side effects: did any run create or modify files?
	dirty := false
	for _, r := range runs {
		dirty = dirty || r.mutated
	}
	res.Evidence = append(res.Evidence, law("pure (no filesystem writes)", !dirty))
	if dirty {
		res.Class = spec.SideEffectful
		return res, nil
	}

	holds := func(check func([]string, []byte) bool) bool {
		for _, c := range corpora {
			if !check(argv, c) {
				return false
			}
		}
		return true
	}
	stateless := holds(checkStateless)
	res.Evidence = append(res.Evidence, law("stateless: f(A++B) == f(A)++f(B)", stateless))
	if stateless {
		res.Class = spec.Stateless
		res.Agg = spec.AggConcat
		return res, nil
	}
	mergeable := holds(checkMergeSortable)
	res.Evidence = append(res.Evidence, law("merge-sortable: f(A++B) == merge(f(A), f(B))", mergeable))
	if mergeable {
		res.Class = spec.Parallelizable
		res.Agg = spec.AggMergeSort
		return res, nil
	}
	summable := holds(checkSummable)
	res.Evidence = append(res.Evidence, law("summable: f(A++B) == f(A)+f(B)", summable))
	if summable {
		res.Class = spec.Parallelizable
		res.Agg = spec.AggSum
		return res, nil
	}
	res.Evidence = append(res.Evidence, "no law held: blocking")
	return res, nil
}

func law(name string, held bool) string {
	if held {
		return name + ": HOLDS"
	}
	return name + ": violated"
}

// makeCorpora builds diverse line corpora: prose, numbers, duplicates,
// empty lines, and a tiny one.
func makeCorpora() [][]byte {
	prose := workload.Words(seed, corpusBytes)
	rng := workload.NewRNG(seed + 99)
	var nums strings.Builder
	for i := 0; i < corpusBytes/8; i++ {
		fmt.Fprintf(&nums, "%d\n", rng.Intn(500))
	}
	var dups strings.Builder
	for i := 0; i < corpusBytes/12; i++ {
		fmt.Fprintf(&dups, "dup%d\n", rng.Intn(7))
	}
	withEmpty := []byte("alpha\n\nbeta\n\n\ngamma\n")
	tiny := []byte("x\n")
	return [][]byte{prose, []byte(nums.String()), []byte(dups.String()), withEmpty, tiny}
}

// run is one execution of the command: its output, its exit status, the
// first line of its stderr, and whether it changed the filesystem.
type run struct {
	out     []byte
	status  int
	stderr  string
	mutated bool
}

// runOnce executes argv on the input over a fresh filesystem.
func runOnce(argv []string, input []byte) run {
	fs := vfs.New()
	fs.WriteFile("/canary", []byte("canary"))
	before := fs.TotalBytes()
	fn, _ := coreutils.Lookup(argv[0])
	var out, errb bytes.Buffer
	ctx := &coreutils.Context{
		FS:     fs,
		Dir:    "/",
		Stdin:  bytes.NewReader(input),
		Stdout: &out,
		Stderr: &errb,
		Getenv: func(string) string { return "" },
	}
	r := run{status: fn(ctx, argv), out: out.Bytes()}
	r.stderr, _, _ = strings.Cut(errb.String(), "\n")
	r.mutated = fs.TotalBytes() != before
	if data, err := fs.ReadFile("/canary"); err != nil || string(data) != "canary" {
		r.mutated = true
	}
	return r
}

// splitPoints picks line-aligned split offsets for the law tests.
func splitPoints(input []byte, n int, seed uint64) []int {
	var lineStarts []int
	for i, b := range input {
		if b == '\n' && i+1 < len(input) {
			lineStarts = append(lineStarts, i+1)
		}
	}
	if len(lineStarts) == 0 {
		return nil
	}
	rng := workload.NewRNG(seed)
	var points []int
	for i := 0; i < n; i++ {
		points = append(points, lineStarts[rng.Intn(len(lineStarts))])
	}
	return points
}

// concat is a ++ b in a fresh slice.
func concat(a, b []byte) []byte { return append(append([]byte(nil), a...), b...) }

func checkStateless(argv []string, input []byte) bool {
	whole := runOnce(argv, input).out
	for _, p := range splitPoints(input, trials, seed+7) {
		a, b := runOnce(argv, input[:p]).out, runOnce(argv, input[p:]).out
		if !bytes.Equal(whole, concat(a, b)) {
			return false
		}
	}
	return true
}

// checkMergeSortable merges by re-running the command over the
// concatenated partials: for a true sorter, f(f(A) ++ f(B)) == f(A ++ B),
// a cheap stand-in for `f -m` that honours flag-specific orders (sort -rn).
func checkMergeSortable(argv []string, input []byte) bool {
	whole := runOnce(argv, input).out
	for _, p := range splitPoints(input, trials, seed+13) {
		a, b := runOnce(argv, input[:p]).out, runOnce(argv, input[p:]).out
		if !bytes.Equal(whole, runOnce(argv, concat(a, b)).out) {
			return false
		}
		// A sorter is permutation-invariant: swapping the chunks must not
		// change the result. This separates sort from head/tail/uniq,
		// which also survive the reapply-as-combiner test.
		if !bytes.Equal(whole, runOnce(argv, concat(input[p:], input[:p])).out) {
			return false
		}
		// And the output really is totally ordered under f's criterion:
		// f(f(X)) == f(X).
		if !bytes.Equal(runOnce(argv, whole).out, whole) {
			return false
		}
	}
	return true
}

func checkSummable(argv []string, input []byte) bool {
	wholeVec, ok := numericVector(runOnce(argv, input).out)
	if !ok {
		return false
	}
	for _, p := range splitPoints(input, 3, 101) {
		av, ok1 := numericVector(runOnce(argv, input[:p]).out)
		bv, ok2 := numericVector(runOnce(argv, input[p:]).out)
		if !ok1 || !ok2 || len(av) != len(bv) || len(av) != len(wholeVec) {
			return false
		}
		for i := range wholeVec {
			if av[i]+bv[i] != wholeVec[i] {
				return false
			}
		}
	}
	return true
}

func numericVector(out []byte) ([]int64, bool) {
	fields := strings.Fields(string(out))
	if len(fields) == 0 {
		return nil, false
	}
	vec := make([]int64, len(fields))
	for i, f := range fields {
		v, err := strconv.ParseInt(f, 10, 64)
		if err != nil {
			return nil, false
		}
		vec[i] = v
	}
	return vec, true
}

// Agreement compares inferred classes against a specification library,
// returning per-command verdicts and the agreement ratio — the infer
// experiment's metric. Only the exact class matches: stateless-vs-
// parallelizable confusion either way is a disagreement.
func Agreement(lib *spec.Library, cases [][]string) (map[string]bool, float64, error) {
	verdicts := map[string]bool{}
	agree := 0
	for _, argv := range cases {
		got, err := Infer(argv)
		if err != nil {
			return nil, 0, err
		}
		ok := got.Class == lib.Resolve(argv).Class
		verdicts[strings.Join(argv, " ")] = ok
		if ok {
			agree++
		}
	}
	return verdicts, float64(agree) / float64(len(cases)), nil
}
