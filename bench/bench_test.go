package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"jash/internal/core"
)

// smokeScale is the internal size divisor the tier-1 smoke runs at.
const smokeScale = 64

func smokeConfig(w *workloadSpec, seed uint64, trace bool, dir string) config {
	cfg := config{workload: w, seed: seed, length: 250 * time.Millisecond, trace: trace, scale: smokeScale}
	if trace {
		cfg.spansPath = filepath.Join(dir, w.name+".spans.jsonl")
	}
	return cfg
}

func requireFinite(t *testing.T, table map[string]value, specs []metricSpec) {
	t.Helper()
	for _, s := range specs {
		v, ok := table[s.name]
		if !ok {
			t.Errorf("metric %s is missing", s.name)
			continue
		}
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			t.Errorf("metric %s = %v is not finite", s.name, v.Value)
		}
		if v.Unit != s.unit {
			t.Errorf("metric %s has unit %q, want %q", s.name, v.Unit, s.unit)
		}
	}
}

// TestSmoke runs every workload at 1/64 size on two seeds, one run traced
// and one not, and checks the shape of what they report.
func TestSmoke(t *testing.T) {
	dir := t.TempDir()
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			traced, err := runWorkload(smokeConfig(w, 11, true, dir))
			if err != nil {
				t.Fatal(err)
			}
			plain, err := runWorkload(smokeConfig(w, 12, false, dir))
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range []*report{traced, plain} {
				if r.result.Failed != 0 || !r.result.Correct || r.result.Attempted < 1 {
					t.Errorf("seed %d: attempted=%d failed=%d correct=%v (%s)", r.meta.Seed,
						r.result.Attempted, r.result.Failed, r.result.Correct, r.meta.FirstFailure)
				}
				requireFinite(t, r.meta.Metrics, endToEnd)
				if len(r.meta.Strategies) == 0 {
					t.Errorf("seed %d: no decision strategy recorded", r.meta.Seed)
				}
			}
			if traced.meta.InputsSHA256 == plain.meta.InputsSHA256 {
				t.Errorf("seeds 11 and 12 generated the same inputs (%s)", plain.meta.InputsSHA256)
			}
			// The result line carries exactly one of the two metric sets.
			requireFinite(t, plain.result.Metrics, endToEnd)
			requireFinite(t, traced.result.Metrics, perLayer)
			if got, want := len(plain.result.Metrics), len(endToEnd); got != want {
				t.Errorf("untraced result has %d metrics, want %d", got, want)
			}
			if got, want := len(traced.result.Metrics), len(perLayer); got != want {
				t.Errorf("traced result has %d metrics, want %d", got, want)
			}
			checkSpans(t, traced.meta.SpansFile)
		})
	}
}

// checkSpans asserts the traced pass wrote well-formed spans: unique ids,
// parents that exist within the same op, and no child outlasting its
// parent.
func checkSpans(t *testing.T, path string) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	byID := map[int]spanRecord{}
	var spans []spanRecord
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var s spanRecord
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatalf("span line %q: %v", sc.Text(), err)
		}
		if _, dup := byID[s.ID]; dup || s.ID == 0 {
			t.Fatalf("span id %d is zero or repeated", s.ID)
		}
		byID[s.ID] = s
		spans = append(spans, s)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	names := map[string]int{}
	for _, s := range spans {
		names[s.Name]++
		if s.End < s.Start || s.Name == "" || s.Op == 0 {
			t.Errorf("malformed span %+v", s)
		}
		if s.Parent == 0 {
			continue
		}
		p, ok := byID[s.Parent]
		if !ok {
			t.Errorf("span %+v has no parent", s)
			continue
		}
		if p.Op != s.Op {
			t.Errorf("span %+v is in another op than its parent %+v", s, p)
		}
		if s.Start < p.Start || s.End > p.End {
			t.Errorf("span %+v outlasts its parent %+v", s, p)
		}
	}
	for _, name := range []string{"op", "interp.run_stmts", "pipeline", "expand.words", "dfg.build",
		"analysis.preflight", "rewrite.plan", "cost.estimate", "exec.run", "syntax.parse", "vfs.read"} {
		if names[name] == 0 {
			t.Errorf("no %s span was recorded", name)
		}
	}
}

// TestCorruptedOutputIsCounted flips one byte of one output file after
// the script has run and sees every op of the timed region counted as
// failed.
func TestCorruptedOutputIsCounted(t *testing.T) {
	in, _, err := setup(findWorkload("list_write"), 11, smokeScale)
	if err != nil {
		t.Fatal(err)
	}
	in.tamper = func() {
		data, err := in.fs.ReadFile("/o2")
		if err != nil {
			t.Fatal(err)
		}
		data[len(data)/2] ^= 1
		if err := in.fs.WriteFile("/o2", data); err != nil {
			t.Fatal(err)
		}
	}
	timed, err := in.runTimed(50 * time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if timed.ops == 0 || timed.failed != timed.ops || timed.firstFail == nil {
		t.Fatalf("ops=%d failed=%d firstFail=%v: a corrupted byte went uncounted", timed.ops, timed.failed, timed.firstFail)
	}
	in.tamper = nil
	if timed, err = in.runTimed(50 * time.Millisecond); err != nil || timed.failed != 0 {
		t.Fatalf("untampered: failed=%d err=%v", timed.failed, err)
	}
}

// TestGateIsLoud runs list_write with the JIT off and expects the gate to
// refuse the session, so that a run never reports numbers for another
// path than the one the workload exists to measure.
func TestGateIsLoud(t *testing.T) {
	w := findWorkload("list_write")
	in, _, err := setup(w, 11, smokeScale)
	if err != nil {
		t.Fatal(err)
	}
	res, err := in.op(core.ModeBash, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.gate(&res.shell.Stats, len(in.inputPaths)); err == nil {
		t.Fatal("the gate accepted a session that optimized nothing")
	}
}

// benchmarkFile mirrors BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []jsonMetric `json:"end_to_end"`
	PerLayer []jsonMetric `json:"per_layer"`
}

type jsonMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func toJSONMetrics(specs []metricSpec) []jsonMetric {
	out := make([]jsonMetric, len(specs))
	for i, s := range specs {
		out[i] = jsonMetric{s.name, s.unit, s.better, s.bound}
	}
	return out
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the tables in this
// package saying the same thing.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bf); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(bf.Command, []string{"go", "run", "./bench"}) || !reflect.DeepEqual(bf.Paths, []string{"bench"}) {
		t.Errorf("command %v paths %v", bf.Command, bf.Paths)
	}
	if bf.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %d, the -seconds default is %d", bf.RunSeconds, defaultSeconds)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("%d workloads, want %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bf.Workloads[i].Name != w.name || bf.Workloads[i].Why != w.why {
			t.Errorf("workload %d is %+v, want %s: %s", i, bf.Workloads[i], w.name, w.why)
		}
		if len(w.why) > 200 {
			t.Errorf("%s: why has %d characters", w.name, len(w.why))
		}
	}
	if want := toJSONMetrics(endToEnd); !reflect.DeepEqual(bf.EndToEnd, want) {
		t.Errorf("end_to_end is %+v, want %+v", bf.EndToEnd, want)
	}
	if want := toJSONMetrics(perLayer); !reflect.DeepEqual(bf.PerLayer, want) {
		t.Errorf("per_layer is %+v, want %+v", bf.PerLayer, want)
	}
	setupBound := 0.0
	for _, s := range endToEnd {
		if s.name == "setup_s" {
			setupBound = s.bound
		}
	}
	for _, s := range endToEnd {
		if s.bound <= 0 || s.bound > 0.25 || s.bound > setupBound {
			t.Errorf("%s: bound %v is outside (0, 0.25] or above setup_s's", s.name, s.bound)
		}
	}
}

// TestQuartilesMatchPython pins quartiles to the values Python's
// statistics.quantiles(xs, n=4) gives, which the driver's check uses.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{10, 2, 7}, [3]float64{2, 7, 10}},
		{[]float64{3, 1}, [3]float64{0.5, 2, 3.5}},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if got := [3]float64{q1, q2, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

// TestSelfTimeSubtractsTheUnionOfChildren covers overlapping children:
// the covered interval counts once.
func TestSelfTimeSubtractsTheUnionOfChildren(t *testing.T) {
	spans := []spanRecord{
		{ID: 1, Op: 1, Name: "op", Start: 0, End: 100},
		{ID: 2, Parent: 1, Op: 1, Name: "a", Start: 10, End: 50},
		{ID: 3, Parent: 1, Op: 1, Name: "b", Start: 30, End: 70},
		{ID: 4, Parent: 2, Op: 1, Name: "c", Start: 20, End: 30},
	}
	self := selfTimes(spans)
	for name, want := range map[string]time.Duration{"op": 40, "a": 30, "b": 40, "c": 10} {
		if self[name] != want {
			t.Errorf("self time of %s = %d, want %d", name, self[name], want)
		}
	}
}
