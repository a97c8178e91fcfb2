// Command bench is the repository's benchmark: four fixed workloads
// driven through core.Shell with every shipped default on, each op checked
// byte for byte against a plain-Go reference. See README.md.
//
//	go run ./bench -workload wordfreq            # end-to-end metrics
//	go run ./bench -workload wordfreq -trace 1   # per-layer metrics
//	go run ./bench -aa 10                        # does the instrument agree with itself
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// defaultSeconds is the run length BENCHMARK.json fixes (run_seconds).
const defaultSeconds = 20

// config is one run's parameters.
type config struct {
	workload *workloadSpec
	seed     uint64
	length   time.Duration
	trace    bool
	// scale divides every input size; only the smoke test sets it.
	scale int
	// spansPath is where the traced pass writes its spans ("" = nowhere).
	spansPath string
}

// value is one reported metric.
type value struct {
	Value  float64 `json:"value"`
	Unit   string  `json:"unit"`
	Better string  `json:"better,omitempty"`
	Bound  float64 `json:"bound,omitempty"`
}

// result is the last line of a run's standard output: exactly what the
// benchmark driver reads.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// meta is the line before it: everything needed to read the result
// without the source at hand.
type meta struct {
	Workload      string           `json:"workload"`
	Why           string           `json:"why"`
	Script        string           `json:"script"`
	Seed          uint64           `json:"seed"`
	InputsSHA256  string           `json:"inputs_sha256"`
	InputMB       float64          `json:"input_mb"`
	Ops           int              `json:"ops"`
	Samples       int              `json:"samples"`
	FailedOps     int              `json:"failed_ops"`
	FirstFailure  string           `json:"first_failure,omitempty"`
	TimedRegionS  float64          `json:"timed_region_s"`
	ThroughputMBs float64          `json:"throughput_mb_per_s"`
	SetupSamplesS []float64        `json:"setup_samples_s"`
	Strategies    map[string]int   `json:"strategies"`
	NProc         int              `json:"nproc"`
	GOMAXPROCS    int              `json:"gomaxprocs"`
	Go            string           `json:"go"`
	Trace         bool             `json:"trace"`
	LayerRounds   int              `json:"layer_rounds,omitempty"`
	LayerPassS    float64          `json:"layer_pass_s,omitempty"`
	SpansFile     string           `json:"spans_file,omitempty"`
	Metrics       map[string]value `json:"metrics"`
	// Detail holds the layer metrics only this workload has: a utility it
	// runs, a split it plans. Elsewhere they are absent, not zero.
	Detail map[string]value `json:"detail,omitempty"`
}

type report struct {
	meta   meta
	result result
}

// runWorkload is one benchmark run: set up, measure for the run length,
// and with trace the traced pass after it.
func runWorkload(cfg config) (*report, error) {
	w := cfg.workload
	var in *instance
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		in = nil // let the previous instance go before building the next
		var d time.Duration
		var err error
		if in, d, err = setup(w, cfg.seed, cfg.scale); err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())
	}
	// A traced run gives the end of its run length to the traced pass, so
	// that it lasts as long as an untraced one.
	timedLength, layerBudget := cfg.length, time.Duration(0)
	if cfg.trace {
		layerBudget = cfg.length * 2 / 5
		timedLength -= layerBudget
	}
	t, err := in.runTimed(timedLength)
	if err != nil {
		return nil, err
	}
	e2e := t.endToEndValues(median(setups))
	m := meta{
		Workload: w.name, Why: w.why, Script: w.script, Seed: cfg.seed,
		InputsSHA256: in.digest, InputMB: float64(in.inputBytes) / (1 << 20),
		Ops: t.ops, Samples: len(t.opMS), FailedOps: t.failed,
		TimedRegionS: t.wall.Seconds(), SetupSamplesS: setups, Strategies: t.decisions,
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(),
		Trace: cfg.trace, Metrics: map[string]value{},
	}
	m.ThroughputMBs = m.InputMB / (e2e["op_p50_ms"] / 1000)
	if t.firstFail != nil {
		m.FirstFailure = t.firstFail.Error()
	}
	res := result{Correct: t.failed == 0, Attempted: t.ops, Failed: t.failed, Metrics: map[string]value{}}
	for _, s := range endToEnd {
		m.Metrics[s.name] = value{e2e[s.name], s.unit, s.better, s.bound}
		if !cfg.trace {
			res.Metrics[s.name] = value{Value: e2e[s.name], Unit: s.unit}
		}
	}
	if !cfg.trace {
		return &report{m, res}, nil
	}

	rec := newRecorder()
	lr, err := in.layerPass(rec, layerBudget)
	if err != nil {
		return nil, fmt.Errorf("%s: traced pass: %w", w.name, err)
	}
	for name, x := range t.harnessValues() {
		lr.values[name] = x
	}
	m.LayerRounds, m.LayerPassS = lr.rounds, lr.wall.Seconds()
	for _, s := range perLayer {
		x, ok := lr.values[s.name]
		if !ok {
			return nil, fmt.Errorf("%s: traced pass did not measure %s", w.name, s.name)
		}
		m.Metrics[s.name] = value{Value: x, Unit: s.unit, Better: s.better}
		res.Metrics[s.name] = value{Value: x, Unit: s.unit}
		delete(lr.values, s.name)
	}
	m.Detail = map[string]value{}
	for name, x := range lr.values {
		m.Detail[name] = value{Value: x, Unit: detailUnit(name)}
	}
	if cfg.spansPath != "" {
		if err := writeSpans(rec, cfg.spansPath); err != nil {
			return nil, err
		}
		m.SpansFile = cfg.spansPath
	}
	return &report{m, res}, nil
}

func writeSpans(rec *recorder, path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := rec.writeJSONL(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// printTable writes the run's metrics for a person to read.
func printTable(w io.Writer, m *meta) {
	fmt.Fprintf(w, "%s  seed=%d  ops=%d  failed=%d  timed=%.1fs  input=%.1fMB  %.1f MB/s  strategies=%v\n",
		m.Workload, m.Seed, m.Ops, m.FailedOps, m.TimedRegionS, m.InputMB, m.ThroughputMBs, m.Strategies)
	if m.FirstFailure != "" {
		fmt.Fprintf(w, "  first failure: %s\n", m.FirstFailure)
	}
	if n := samplesBeyond(m.Samples, 90); m.Trace && n < 10 {
		fmt.Fprintf(w, "  (harness.op_p90_ms has only %d samples beyond it)\n", n)
	}
	for _, table := range []map[string]value{m.Metrics, m.Detail} {
		names := make([]string, 0, len(table))
		for name := range table {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			v := table[name]
			fmt.Fprintf(w, "  %-28s %14.4f %s\n", name, v.Value, v.Unit)
		}
	}
}

// emit prints the two JSON lines of a run, the result last.
func emit(w io.Writer, r *report) error {
	for _, line := range []any{map[string]any{"meta": r.meta}, r.result} {
		b, err := json.Marshal(line)
		if err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s\n", b); err != nil {
			return err
		}
	}
	return nil
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", ")+" (default: each in turn)")
		seed    = flag.Uint64("seed", 11, "seed the inputs are generated from")
		seconds = flag.Int("seconds", defaultSeconds, "run length in seconds")
		traced  = flag.Int("trace", 0, "1: report the per-layer metrics from a traced pass after a shortened timed region")
		aa      = flag.Int("aa", 0, "run two alternating sets of N runs of this same code and compare them against the bounds")
		spans   = flag.String("spans", "bench/out", "directory the traced pass writes its spans to, as <workload>.spans.jsonl (empty: nowhere)")
	)
	flag.Parse()
	if flag.NArg() > 0 || *seconds < 1 || (*traced != 0 && *traced != 1) {
		flag.Usage()
		os.Exit(2)
	}
	selected := workloads
	if *name != "" {
		w := findWorkload(*name)
		if w == nil {
			fmt.Fprintf(os.Stderr, "bench: no workload %q (have %s)\n", *name, strings.Join(workloadNames(), ", "))
			os.Exit(2)
		}
		selected = []*workloadSpec{w}
	}
	if *aa > 0 {
		os.Exit(runAA(os.Stdout, selected, *aa, *seed, *seconds))
	}
	for _, w := range selected {
		cfg := config{workload: w, seed: *seed, length: time.Duration(*seconds) * time.Second, trace: *traced == 1, scale: 1}
		if cfg.trace && *spans != "" {
			cfg.spansPath = filepath.Join(*spans, w.name+".spans.jsonl")
		}
		r, err := runWorkload(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			os.Exit(1)
		}
		printTable(os.Stderr, &r.meta)
		if err := emit(os.Stdout, r); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			os.Exit(1)
		}
	}
}
