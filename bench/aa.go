package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"strconv"
)

// An A/A comparison asks whether the instrument agrees with itself: two
// sets of runs of the same code, alternating so that a drift of the host
// falls on both, must differ by less than the bounds that will later
// judge a change. Each run is a process of its own, as the driver's are.

// childRun runs this same binary once and returns its result line.
func childRun(exe string, w *workloadSpec, seed uint64, seconds int) (*result, error) {
	cmd := exec.Command(exe, "-workload", w.name, "-seed", strconv.FormatUint(seed, 10),
		"-seconds", strconv.Itoa(seconds), "-trace", "0")
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, io.Discard
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s seed %d: %w", w.name, seed, err)
	}
	lines := bytes.Split(bytes.TrimSpace(stdout.Bytes()), []byte{'\n'})
	var r result
	if err := json.Unmarshal(lines[len(lines)-1], &r); err != nil {
		return nil, fmt.Errorf("%s seed %d: result line: %w", w.name, seed, err)
	}
	return &r, nil
}

// compareSets prints one metric's two sets side by side and reports
// whether their medians differ by more than the bound.
func compareSets(out io.Writer, s metricSpec, a, b []float64) bool {
	aq1, amed, aq3 := quartiles(a)
	bq1, bmed, bq3 := quartiles(b)
	diff := (bmed - amed) / amed
	verdict := "ok"
	exceeded := math.Abs(diff) > s.bound
	if exceeded {
		verdict = "EXCEEDED"
	}
	fmt.Fprintf(out, "  %-16s A %10.4f [%10.4f %10.4f]  B %10.4f [%10.4f %10.4f] %-3s diff %+6.2f%%  bound %4.1f%%  spread A %4.1f%% B %4.1f%%  %s\n",
		s.name, amed, aq1, aq3, bmed, bq1, bq3, s.unit, diff*100, s.bound*100,
		(aq3-aq1)/amed*100, (bq3-bq1)/bmed*100, verdict)
	// A tail is worth a line only with at least ten samples beyond it.
	for _, p := range []float64{99, 90} {
		if samplesBeyond(len(a), p) >= 10 {
			fmt.Fprintf(out, "  %-16s A p%.0f %10.4f  B p%.0f %10.4f %s\n", "", p, percentile(a, p), p, percentile(b, p), s.unit)
			break
		}
	}
	return exceeded
}

// runAA runs 2n runs per workload and returns the process exit code.
func runAA(out io.Writer, selected []*workloadSpec, n int, seed uint64, seconds int) int {
	if n < 2 {
		fmt.Fprintln(os.Stderr, "bench: -aa needs at least 2 runs per set")
		return 2
	}
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	code := 0
	for _, w := range selected {
		sets := [2]map[string][]float64{{}, {}}
		failed := 0
		for pair := 0; pair < n; pair++ {
			// Both runs of a pair measure the same inputs; which set
			// goes first alternates.
			for k := 0; k < 2; k++ {
				set := (pair + k) % 2
				r, err := childRun(exe, w, seed+uint64(pair), seconds)
				if err != nil {
					fmt.Fprintf(os.Stderr, "bench: %v\n", err)
					return 1
				}
				failed += r.Failed
				for name, v := range r.Metrics {
					sets[set][name] = append(sets[set][name], v.Value)
				}
			}
		}
		fmt.Fprintf(out, "%s: 2 sets of %d runs of %d s, seeds %d..%d, failed ops %d\n",
			w.name, n, seconds, seed, seed+uint64(n)-1, failed)
		if failed > 0 {
			code = 1
		}
		for _, s := range endToEnd {
			if compareSets(out, s, sets[0][s.name], sets[1][s.name]) {
				code = 1
			}
		}
	}
	return code
}
