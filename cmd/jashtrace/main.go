// Command jashtrace is the one reader of a Jash run's record (`jash -trace
// out.jsonl`). It renders the span tree of every top-level command with
// durations, attributes, and events — each JIT decision's outcome, width,
// estimate and reason, value-flow witnesses, each plan node's bytes,
// buffering and wall time — and the critical path through each tree. With
// -check it only parses and validates the file: every root is a command
// span, every span's parent is in it, and every pipeline span carries its
// outcome and reason — the CI gate that keeps the trace format honest. With
// -chrome OUT it converts the trace to a Chrome trace_event file for
// Perfetto.
//
// Usage:
//
//	jashtrace [-check] [-events] [-chrome OUT] trace.jsonl
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
		check  = flag.Bool("check", false, "parse and validate only; print a summary line (CI gate)")
		events = flag.Bool("events", true, "show span events inline")
		chrome = flag.String("chrome", "", "write the trace as a Chrome trace_event file (for Perfetto) to this path")
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
	if *chrome != "" {
		f, err := os.Create(*chrome)
		if err != nil {
			fmt.Fprintf(os.Stderr, "jashtrace: %v\n", err)
			return 2
		}
		err = data.WriteChrome(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "jashtrace: %v\n", err)
			return 1
		}
		return 0
	}
	if *check {
		if bad := data.Check(); len(bad) > 0 {
			for _, msg := range bad {
				fmt.Fprintf(os.Stderr, "jashtrace: %s\n", msg)
			}
			return 1
		}
		roots := 0
		for _, s := range data.Spans {
			if s.Parent == 0 {
				roots++
			}
		}
		fmt.Printf("ok: %d span(s), %d root(s)\n", len(data.Spans), roots)
		return 0
	}
	renderTrees(os.Stdout, data.Spans, *events)
	return 0
}

// renderTrees prints every root span's subtree in start order, followed
// by the tree's critical path — the chain of spans whose durations bound
// the root's wall time. A span whose parent is missing (which -check
// rejects) is still rendered, as a root.
func renderTrees(w io.Writer, spans []trace.SpanRecord, events bool) {
	ids := make(map[uint64]bool, len(spans))
	for _, s := range spans {
		ids[s.ID] = true
	}
	children := map[uint64][]trace.SpanRecord{}
	var roots []trace.SpanRecord
	for _, s := range spans {
		if ids[s.Parent] {
			children[s.Parent] = append(children[s.Parent], s)
		} else {
			roots = append(roots, s)
		}
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
		fmt.Fprintf(w, "%s%s  %s%s\n", indent, s.Name, fmtDur(s.DurUS), fmtAttrs(s.Attrs))
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
