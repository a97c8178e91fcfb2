package fuzz

import (
	"strings"
	"testing"
)

// Minimized reproducers of real divergences found (and fixed) by the
// differential fuzzer. Each case once made an oracle disagree with the
// `plain` reference; they are pinned here so the bugs stay dead.
//
//	cat -n   was classified Stateless and data-parallelized, restarting
//	         its line counter at every chunk boundary (seed 169).
//	grep     with no pattern was parallelized: the merge relay reported
//	         exit 0, flipping `&&` control flow, and every lane repeated
//	         the diagnostic (seed 145).
//	cut      with no -c/-f selector: same failure shape as bare grep —
//	         masked status plus multiplied stderr — and the masked `&&`
//	         let the sink's parent directory appear only under AOT
//	         (seed 145, fs divergence).
//	set -u   miss inside a list region: the worker clone exited with no
//	         error, the replay loop carried on, and the script ran past
//	         the diagnostic to exit 0 (seeds 13232 and 18264).
//	$((p=7)) was invisible to value flow: a list region was planned
//	         around "f reads /data/a.txt" while f read ./7, the file
//	         the next statement rewrites (written by hand from the
//	         analysis; the generator could not spell it then).
//	eval     under `if` (or a loop, &&, a case arm, a function with a
//	         compound body) re-assigned a redirect target and value flow
//	         kept the old path: `>$v` raced the statement reading the
//	         file v now named (found by reading Env.JoinWith; the
//	         generator's one-line production spells it now).
//	set -e   and set -u taking effect on a region's own line: the
//	         statements after the one that ends the shell had already
//	         run in their workers, and their files stayed (seeds 901 and
//	         2701 once printed as one line; fs divergence).
//	awk/sed  programs their utility rejects were classed stateless by a
//	         substring guess and split into lanes, each lane printing
//	         the diagnostic; s/a;b/X/ was cut at its ; (stderr:plain↔aot,
//	         found once the generator drew programs from a table).
//	yes      in front of a line filter and head never ended: the filter
//	         kept reading after head had gone, its writes silently
//	         dropped, so yes never met a closed pipe (hang in every
//	         oracle, seeds 2–25 once the generator drew endless
//	         producers).
func TestRegressionMinimizedReproducers(t *testing.T) {
	fixture := Generate(DefaultConfig(1)).Fixture
	cases := []struct {
		name, src string
	}{
		{"cat-n-stateful", "cut -d x -f 1 /data/nums.txt | cat -n\n"},
		{"grep-no-pattern-status", "grep </data/nums.txt && cat /data/b.txt\n"},
		{"cut-no-selector-fs", "grep </data/nums.txt && cut >>/tmp/out1.txt\n"},
		{"grep-c-chunk-status", "grep -c socket </data/nums.txt && echo found\n"},
		{"set-u-exit-in-unrolled-for", "set -u\nfor v1 in A-Z; do v2=\"$v2.0\"; echo; done\ntee /tmp/out1.txt\n"},
		{"arith-assign-rebinds-file-operand", "f() { p=/data/a.txt; : $((p=7)); cat $p >/tmp/o; }\necho old >/7\nf; echo new >7\n"},
		{"set-u-exit-in-brace-group", "set -u\n{ v1=\"$v1.42\"; v2=shell; }\ncat <<EOF\nline 0 has $v1\nEOF\n"},
		{"eval-in-if-rebinds-redirect-target", "v=/data/empty.txt; if true; then eval 'v=/tmp/out5.txt'; fi; sort /data/a.txt >$v; cat /tmp/out5.txt\n"},
		{"set-e-on-the-region-line", "set -e; false; echo a >/tmp/o1; echo b >/tmp/o2; echo c >/tmp/o3\n"},
		{"set-u-on-the-line-before", "set -u\nv1=\"$v1.pipe\"; echo hi >>/tmp/out1.txt; echo a >/tmp/o2; echo b >/tmp/o3\n"},
		{"awk-rejected-program-split-into-lanes", "cat /data/a.txt | awk '{n++; print n}' | wc -l\n"},
		{"sed-semicolon-inside-s", "cat /data/a.txt | sed 's/a;b/X/'\n"},
		{"filter-outlives-closed-reader", "yes unix | rev | head -n 1\n"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ep := RunEpisode(Program{Source: tc.src, Fixture: fixture}, RunOpts{})
			for _, d := range ep.Divergences {
				t.Errorf("%s: %s (%s)", tc.name, d.Detail, d.Sig)
			}
		})
	}
}

// The printer once rendered a background statement followed by another
// statement as `a &; b`, which does not re-parse — every oracle saw a
// parse error instead of the program. The generator's round-trip gate
// caught it; pin the composite shape here end to end.
func TestRegressionBackgroundSeparators(t *testing.T) {
	fixture := Generate(DefaultConfig(1)).Fixture
	src := "for v in a b; do cat /data/empty.txt & echo it: $v; done\n" +
		"{ head -n 1 /data/a.txt & }\n" +
		"if true; then tail -n 1 /data/b.txt & fi\n"
	ep := RunEpisode(Program{Source: src, Fixture: fixture}, RunOpts{})
	for _, o := range ep.Outcomes {
		if strings.Contains(o.Err, "syntax error") {
			t.Fatalf("%s: %s", o.Oracle, o.Err)
		}
	}
	for _, d := range ep.Divergences {
		t.Errorf("%s (%s)", d.Detail, d.Sig)
	}
}
