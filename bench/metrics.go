package main

import (
	"math"
	"sort"
	"strings"
)

// metricSpec describes one reported metric. bound is the share of the
// parent's median by which an end-to-end metric may worsen before a
// change counts as a regression; per-layer metrics carry none.
type metricSpec struct {
	name   string
	unit   string
	better string // "lower" or "higher"
	bound  float64
}

// endToEnd are the metrics a user of the shell would see, the same for
// every workload, measured with tracing off. BENCHMARK.json repeats this
// table; TestBenchmarkJSONMatches keeps the two equal.
//
// The two timing bounds are the widest the contract allows. On a quiet
// host ten runs of a workload spread 1-5% (quartile distance over median),
// but the 2-core reference host also has phases, minutes long, in which
// every op of every workload runs 1.5-2x slower, and no statistic taken
// inside a 20 s run removes them (README.md, "The host's noise"). The
// allocation and live-heap bounds are tight because those two repeat.
var endToEnd = []metricSpec{
	{"op_p50_ms", "ms", "lower", 0.25},
	{"alloc_mb_per_op", "MB", "lower", 0.03},
	{"peak_live_mb", "MB", "lower", 0.05},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer are the layer metrics every workload reports (BENCHMARK.json
// per_layer). Metrics that exist only where a workload has the stage —
// coreutils.sort_ms, exec.split_wall_ms, rewrite.list_plan_us and the
// like — are reported in the metadata line's "detail" table instead, so
// that "absent" stays distinguishable from "zero".
var perLayer = []metricSpec{
	{name: "harness.wall_s", unit: "s", better: "lower"},
	{name: "harness.cpu_ms_per_op", unit: "ms", better: "lower"},
	{name: "harness.op_min_ms", unit: "ms", better: "lower"},
	{name: "harness.op_p90_ms", unit: "ms", better: "lower"},
	{name: "harness.gc_cycles_per_op", unit: "count", better: "lower"},
	{name: "syntax.parse_us", unit: "us", better: "lower"},
	{name: "syntax.parse_allocs", unit: "count", better: "lower"},
	{name: "syntax.stmts", unit: "count", better: "lower"},
	{name: "expand.words_us", unit: "us", better: "lower"},
	{name: "expand.words", unit: "count", better: "lower"},
	{name: "analysis.preflight_us", unit: "us", better: "lower"},
	{name: "analysis.stmt_summary_us", unit: "us", better: "lower"},
	{name: "analysis.hazards", unit: "count", better: "lower"},
	{name: "dfg.build_us", unit: "us", better: "lower"},
	{name: "dfg.nodes", unit: "count", better: "lower"},
	{name: "rewrite.plan_us", unit: "us", better: "lower"},
	{name: "rewrite.plan_width", unit: "count", better: "higher"},
	{name: "rewrite.plan_nodes", unit: "count", better: "lower"},
	{name: "cost.estimate_us", unit: "us", better: "lower"},
	{name: "cost.model_s", unit: "s", better: "lower"},
	{name: "cost.model_error", unit: "ratio", better: "lower"},
	{name: "exec.run_ms", unit: "ms", better: "lower"},
	{name: "exec.seq_run_ms", unit: "ms", better: "lower"},
	{name: "exec.par_speedup", unit: "ratio", better: "higher"},
	{name: "exec.command_wall_ms", unit: "ms", better: "lower"},
	{name: "exec.sink_wall_ms", unit: "ms", better: "lower"},
	{name: "exec.bytes_moved_mb", unit: "MB", better: "lower"},
	{name: "exec.peak_buffered_kb", unit: "KB", better: "lower"},
	{name: "exec.sink_mb", unit: "MB", better: "lower"},
	{name: "exec.retries", unit: "count", better: "lower"},
	{name: "exec.overhead_ms", unit: "ms", better: "lower"},
	{name: "coreutils.stage_sum_ms", unit: "ms", better: "lower"},
	{name: "coreutils.max_stage_ms", unit: "ms", better: "lower"},
	{name: "vfs.read_mb_per_s", unit: "MB/s", better: "higher"},
	{name: "vfs.write_mb_per_s", unit: "MB/s", better: "higher"},
	{name: "vfs.create_us", unit: "us", better: "lower"},
	{name: "interp.script_ms", unit: "ms", better: "lower"},
	{name: "interp.walk_script_ms", unit: "ms", better: "lower"},
	{name: "interp.compile_speedup", unit: "ratio", better: "higher"},
	{name: "interp.self_ms", unit: "ms", better: "lower"},
	{name: "core.run_ms", unit: "ms", better: "lower"},
	{name: "core.jit_overhead_us", unit: "us", better: "lower"},
	{name: "core.bash_ms", unit: "ms", better: "lower"},
	{name: "core.pash_ms", unit: "ms", better: "lower"},
	{name: "core.speedup_vs_bash", unit: "ratio", better: "higher"},
	{name: "core.nolistpar_ms", unit: "ms", better: "lower"},
	{name: "core.list_speedup", unit: "ratio", better: "higher"},
	{name: "core.optimized", unit: "count", better: "higher"},
	{name: "core.interpreted", unit: "count", better: "lower"},
	{name: "core.list_parallel", unit: "count", better: "higher"},
	{name: "core.fallbacks", unit: "count", better: "lower"},
	{name: "core.hazard_rejects", unit: "count", better: "lower"},
	{name: "trace.overhead_pct", unit: "%", better: "lower"},
	{name: "trace.spans_per_op", unit: "count", better: "lower"},
}

// detailUnit gives the unit of a detail metric from its name's suffix.
func detailUnit(name string) string {
	switch {
	case strings.HasSuffix(name, "_ms"):
		return "ms"
	case strings.HasSuffix(name, "_us"):
		return "us"
	}
	return "count"
}

// median returns the middle value (mean of the two middle values for an
// even count). It does not modify xs.
func median(xs []float64) float64 {
	return percentile(xs, 50)
}

// percentile returns the p-th percentile of xs by linear interpolation
// between closest ranks. It does not modify xs.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// quartiles returns the cut points Python's statistics.quantiles(xs, n=4)
// gives (the exclusive method), which is what the benchmark driver uses
// for its spread check. It needs at least two values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s)
	cut := func(i int) float64 {
		j := i * (m + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > m-1 {
			j = m - 1
		}
		delta := float64(i*(m+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// samplesBeyond is how many of n samples lie beyond the p-th percentile;
// a tail percentile is worth printing only when at least ten do.
func samplesBeyond(n int, p float64) int {
	return int(float64(n) * (100 - p) / 100)
}
