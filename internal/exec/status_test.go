package exec

import (
	"bytes"
	"io"
	"strings"
	"testing"

	"jash/internal/dfg"
	"jash/internal/spec"
	"jash/internal/vfs"
)

// laneGraph builds source → split → N command lanes → merge → stdout sink.
func laneGraph(argv []string, lanes int, lib *spec.Library) *dfg.Graph {
	g := dfg.New()
	src := g.AddNode(&dfg.Node{Kind: dfg.KindSource, Path: "/in.txt"})
	split := g.AddNode(&dfg.Node{Kind: dfg.KindSplit, Width: lanes, Dist: dfg.DistConsecutive})
	g.Connect(src, split)
	merge := g.AddNode(&dfg.Node{Kind: dfg.KindMerge, Width: lanes, Agg: spec.AggConcat})
	for i := 0; i < lanes; i++ {
		lane := g.AddNode(&dfg.Node{Kind: dfg.KindCommand, Argv: argv, Spec: lib.Resolve(argv)})
		g.ConnectPort(split, lane, i, 0)
		g.ConnectPort(lane, merge, 0, i)
	}
	sink := g.AddNode(&dfg.Node{Kind: dfg.KindSink, Path: ""})
	g.Connect(merge, sink)
	return g
}

// A parallelized stage whose every lane fails hard must surface the
// failure through the merge relay: the sequential command those lanes
// replicate would have failed too. Found by the differential fuzzer —
// a failing stage reported exit 0 and flipped `&&` control flow.
func TestFailingParallelStageStatus(t *testing.T) {
	fs := vfs.New()
	fs.WriteFile("/in.txt", []byte(strings.Repeat("hello world\n", 50)))
	lib := spec.Builtin()
	g := laneGraph([]string{"grep"}, 3, lib)
	var out, errb bytes.Buffer
	st, err := Run(g, &Env{FS: fs, Stdout: &out, Stderr: &errb})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if st < 2 {
		t.Fatalf("failing parallel stage reported status %d, want >=2\nstderr: %s", st, errb.String())
	}
}

// Status 1 is per-chunk (grep's "no match in this chunk"): it propagates
// only when every lane misses, matching the sequential command's view of
// the whole input.
func TestSoftLaneStatusCombines(t *testing.T) {
	lib := spec.Builtin()
	for _, tc := range []struct {
		name, input string
		want        int
	}{
		// "needle" sits in the first chunk only: one lane matches (0),
		// the others return 1 — sequentially the whole input matched.
		{"one-lane-matches", "needle\n" + strings.Repeat("hay\n", 60), 0},
		// No lane matches: sequentially status 1.
		{"no-lane-matches", strings.Repeat("hay\n", 60), 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fs := vfs.New()
			fs.WriteFile("/in.txt", []byte(tc.input))
			g := laneGraph([]string{"grep", "-e", "needle"}, 3, lib)
			var out, errb bytes.Buffer
			st, err := Run(g, &Env{FS: fs, Stdout: &out, Stderr: &errb})
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			if st != tc.want {
				t.Fatalf("status %d, want %d", st, tc.want)
			}
		})
	}
}

// TestAggSumMixedColumns pins the strict sum-merge contract: lanes that
// emit anything non-numeric abort the plan before a single sink byte
// escapes (so the caller falls back to the interpreter and the two paths
// agree by construction), while all-numeric lanes still sum per column.
func TestAggSumMixedColumns(t *testing.T) {
	sum := func(ins []io.Reader) (string, int, error) {
		var out bytes.Buffer
		var aborted error
		env := &Env{abort: func(err error) {
			if aborted == nil {
				aborted = err
			}
		}}
		st := runMerge(&dfg.Node{Kind: dfg.KindMerge, Agg: spec.AggSum}, ins, &out, env)
		return out.String(), st, aborted
	}

	// All-numeric lanes: columns sum across lanes.
	got, st, aborted := sum([]io.Reader{
		strings.NewReader("1 10\n2 20\n"),
		strings.NewReader("3 30\n"),
	})
	if st != 0 || aborted != nil || got != "6 60\n" {
		t.Fatalf("numeric lanes: out=%q st=%d abort=%v", got, st, aborted)
	}

	// A garbage field anywhere aborts the plan with zero output.
	for _, lanes := range [][]string{
		{"1 2\n", "3 x\n"},
		{"12.5\n"},         // floats are not the integer rows wc-style lanes emit
		{"5\n", "total\n"}, // a stray wc "total" row must not be dropped silently
	} {
		ins := make([]io.Reader, len(lanes))
		for i, l := range lanes {
			ins[i] = strings.NewReader(l)
		}
		got, st, aborted := sum(ins)
		if st == 0 {
			t.Fatalf("lanes %q: want non-zero status, got output %q", lanes, got)
		}
		if aborted == nil {
			t.Fatalf("lanes %q: plan must abort so the interpreter fallback runs", lanes)
		}
		if got != "" {
			t.Fatalf("lanes %q: %q escaped an aborted merge", lanes, got)
		}
	}
}
