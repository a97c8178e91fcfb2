// Command jashtrace renders a Jash structured trace (`jash -trace
// out.jsonl`) for humans: the span tree of every top-level command with
// durations, attributes, and events; the critical path through each
// tree; and the session's metrics registry. With -check it only parses
// and validates the file, and recounts the registry's outcome counters
// from the spans — the CI gate that keeps the trace format honest and the
// two views of a run from drifting apart.
//
// Usage:
//
//	jashtrace [-check] [-metrics] [-events] trace.jsonl
//	jashtrace < trace.jsonl
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"jash/internal/trace"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		check      = flag.Bool("check", false, "parse and validate only; print a summary line (CI gate)")
		metricOnly = flag.Bool("metrics", false, "print only the metrics registry")
		events     = flag.Bool("events", true, "show span events inline")
	)
	flag.Parse()

	var r io.Reader = os.Stdin
	if flag.NArg() >= 1 && flag.Arg(0) != "-" {
		f, err := os.Open(flag.Arg(0))
		if err != nil {
			fmt.Fprintf(os.Stderr, "jashtrace: %v\n", err)
			return 2
		}
		defer f.Close()
		r = f
	}
	data, err := trace.Read(r)
	if err != nil {
		fmt.Fprintf(os.Stderr, "jashtrace: %v\n", err)
		return 1
	}
	if *check {
		roots := 0
		byID := spanIndex(data.Spans)
		for _, s := range data.Spans {
			if _, ok := byID[s.Parent]; !ok || s.Parent == 0 {
				roots++
			}
		}
		fmt.Printf("ok: %d span(s), %d root(s), %d metric(s)\n",
			len(data.Spans), roots, len(data.Metrics))
		if len(data.Spans) == 0 {
			fmt.Fprintln(os.Stderr, "jashtrace: trace contains no spans")
			return 1
		}
		drift := crossCheck(data)
		for _, msg := range drift {
			fmt.Fprintf(os.Stderr, "jashtrace: %s\n", msg)
		}
		if len(drift) > 0 {
			return 1
		}
		return 0
	}
	if !*metricOnly {
		renderTrees(os.Stdout, data.Spans, *events)
	}
	renderMetrics(os.Stdout, data.Metrics)
	return 0
}

// crossCheck recounts from the spans what the registry counted as the
// session ran. Both are written from the same records (core's settled
// decisions, the executor's node metrics), so a difference is drift.
func crossCheck(d *trace.Data) []string {
	want := map[string]float64{}
	for _, s := range d.Spans {
		switch outcome, _ := s.Attrs["outcome"].(string); {
		case strings.HasPrefix(s.Name, "node:"):
			want[trace.MetricNodesTotal]++
		case s.Name != "pipeline":
		case strings.HasSuffix(outcome, "-df"), outcome == "fallback-interpret", outcome == "cancelled":
			want[trace.MetricPlansOptimized]++
		case outcome == "hazard-reject":
			want[trace.MetricHazardRejects]++
		case outcome == "quarantine":
			want[trace.MetricQuarantined]++
		}
		for _, ev := range s.Events {
			if ev.Name == "fallback" {
				want[trace.MetricFallbacks]++
			}
		}
	}
	got := map[string]float64{}
	for _, m := range d.Metrics {
		got[m.Name] = m.Value
	}
	var drift []string
	for _, name := range []string{trace.MetricPlansOptimized, trace.MetricFallbacks,
		trace.MetricHazardRejects, trace.MetricQuarantined, trace.MetricNodesTotal} {
		if got[name] != want[name] {
			drift = append(drift, fmt.Sprintf("registry says %s=%.0f, the spans say %.0f", name, got[name], want[name]))
		}
	}
	return drift
}

func spanIndex(spans []trace.SpanRecord) map[uint64]trace.SpanRecord {
	byID := make(map[uint64]trace.SpanRecord, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	return byID
}

// renderTrees prints every root span's subtree in start order, followed
// by the tree's critical path — the chain of spans whose durations bound
// the root's wall time.
func renderTrees(w io.Writer, spans []trace.SpanRecord, events bool) {
	byID := spanIndex(spans)
	children := map[uint64][]trace.SpanRecord{}
	var roots []trace.SpanRecord
	for _, s := range spans {
		if s.Parent != 0 {
			if _, ok := byID[s.Parent]; ok {
				children[s.Parent] = append(children[s.Parent], s)
				continue
			}
		}
		roots = append(roots, s)
	}
	order := func(ss []trace.SpanRecord) {
		sort.Slice(ss, func(i, j int) bool {
			if ss[i].StartUS != ss[j].StartUS {
				return ss[i].StartUS < ss[j].StartUS
			}
			return ss[i].ID < ss[j].ID
		})
	}
	order(roots)
	for id := range children {
		order(children[id])
	}
	var print func(s trace.SpanRecord, depth int)
	print = func(s trace.SpanRecord, depth int) {
		indent := strings.Repeat("  ", depth)
		mark := ""
		if s.Unfinished {
			mark = " [unfinished]"
		}
		fmt.Fprintf(w, "%s%s  %s%s%s\n", indent, s.Name, fmtDur(s.DurUS), fmtAttrs(s.Attrs), mark)
		if events {
			for _, ev := range s.Events {
				fmt.Fprintf(w, "%s  • %s @+%s%s\n", indent, ev.Name,
					fmtDur(ev.AtUS-s.StartUS), fmtAttrs(ev.Attrs))
			}
		}
		for _, c := range children[s.ID] {
			print(c, depth+1)
		}
	}
	for i, root := range roots {
		if i > 0 {
			fmt.Fprintln(w)
		}
		print(root, 0)
		if path := criticalPath(root, children); len(path) > 1 {
			var parts []string
			for _, s := range path {
				parts = append(parts, fmt.Sprintf("%s (%s)", s.Name, fmtDur(s.DurUS)))
			}
			fmt.Fprintf(w, "critical path: %s\n", strings.Join(parts, " → "))
		}
	}
	if len(roots) > 0 {
		fmt.Fprintln(w)
	}
}

// criticalPath descends from the root into, at each level, the child
// that finishes last — the span gating its parent's completion.
func criticalPath(root trace.SpanRecord, children map[uint64][]trace.SpanRecord) []trace.SpanRecord {
	path := []trace.SpanRecord{root}
	cur := root
	for {
		kids := children[cur.ID]
		if len(kids) == 0 {
			return path
		}
		best := kids[0]
		for _, k := range kids[1:] {
			if k.StartUS+k.DurUS > best.StartUS+best.DurUS ||
				(k.StartUS+k.DurUS == best.StartUS+best.DurUS && k.DurUS > best.DurUS) {
				best = k
			}
		}
		path = append(path, best)
		cur = best
	}
}

func renderMetrics(w io.Writer, metrics []trace.MetricRecord) {
	if len(metrics) == 0 {
		return
	}
	fmt.Fprintln(w, "metrics:")
	for _, m := range metrics {
		switch m.Metric {
		case "histogram":
			fmt.Fprintf(w, "  %-24s count=%-6d p50=%s p95=%s p99=%s\n",
				m.Name, m.Count, fmtDur(m.P50US), fmtDur(m.P95US), fmtDur(m.P99US))
		default:
			fmt.Fprintf(w, "  %-24s %.0f\n", m.Name, m.Value)
		}
	}
}

func fmtDur(us int64) string {
	switch {
	case us >= 1_000_000:
		return fmt.Sprintf("%.2fs", float64(us)/1e6)
	case us >= 1_000:
		return fmt.Sprintf("%.2fms", float64(us)/1e3)
	default:
		return fmt.Sprintf("%dµs", us)
	}
}

// fmtAttrs renders a span or event attribute map compactly, keys sorted.
func fmtAttrs(attrs map[string]any) string {
	if len(attrs) == 0 {
		return ""
	}
	keys := make([]string, 0, len(attrs))
	for k := range attrs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, 0, len(keys))
	for _, k := range keys {
		v := attrs[k]
		if f, ok := v.(float64); ok && f == float64(int64(f)) {
			v = int64(f)
		}
		parts = append(parts, fmt.Sprintf("%s=%v", k, v))
	}
	return "  {" + strings.Join(parts, " ") + "}"
}
