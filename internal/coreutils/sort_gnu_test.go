package coreutils

import (
	"bytes"
	"fmt"
	"io"
	"math/rand/v2"
	"os"
	"os/exec"
	"strings"
	"testing"

	"jash/internal/pipe"
	"jash/internal/vfs"
)

// gnuSort is the host's GNU sort, the reference for TestSortMatchesGNU.
const gnuSort = "/usr/bin/sort"

// sortInputs returns seeded random inputs that reach sort's edges: an
// empty input, a missing final newline, a line longer than a pipe block,
// many equal keys, blank-led fields, and -n values such as -0, 01 and
// 1.50.
func sortInputs() []string {
	words := []string{"a", "b", "B", "ab", "a:b", "-0", "0", "01", "1", "1.50", "1.5", "-1", "10", "+2", ".5", "x", ""}
	seps := []string{" ", "  ", "\t", ":", " :"}
	ins := []string{"", "b\na", "one line without newline"}
	for seed := uint64(1); seed <= 12; seed++ {
		r := rand.New(rand.NewPCG(seed, 35))
		nWords := 2 + r.IntN(len(words)-2)
		if seed%4 == 0 {
			nWords = 2 // many equal keys
		}
		var b strings.Builder
		lines := 1 + r.IntN(60)
		for i := 0; i < lines; i++ {
			if r.IntN(4) == 0 {
				b.WriteString(seps[r.IntN(3)]) // a blank-led first field
			}
			for f := r.IntN(4); f >= 0; f-- {
				b.WriteString(words[r.IntN(nWords)])
				if f > 0 {
					b.WriteString(seps[r.IntN(len(seps))])
				}
			}
			if i < lines-1 || seed%3 != 0 {
				b.WriteByte('\n')
			}
		}
		if seed == 5 {
			b.WriteString("b " + strings.Repeat("z", pipe.BlockSize+100) + "\n")
		}
		ins = append(ins, b.String())
	}
	return ins
}

// sortFlagSets crosses -n, -r, -u, -k N[,M] and -t:.
func sortFlagSets() [][]string {
	var sets [][]string
	for _, keys := range [][]string{nil, {"-k1"}, {"-k2"}, {"-k2,2"}, {"-k1,2"}, {"-k2.2"}, {"-k1.2,2.1"}, {"-k3,3"}} {
		for _, tab := range [][]string{nil, {"-t:"}} {
			for bits := 0; bits < 8; bits++ {
				var set []string
				for i, f := range []string{"-n", "-r", "-u"} {
					if bits&(1<<i) != 0 {
						set = append(set, f)
					}
				}
				set = append(append(set, tab...), keys...)
				sets = append(sets, set)
			}
		}
	}
	return sets
}

// TestSortMatchesGNU runs every input under every flag set through this
// sort and the host's GNU sort (LC_ALL=C) and requires the same bytes. It
// also requires that splitting the input into 2–4 contiguous lanes,
// sorting each and merging them with `sort -m` and the same flags is
// byte-identical to the whole sort: the order-aware merge's contract.
// It skips where GNU sort is not installed, so the suite stays hermetic.
func TestSortMatchesGNU(t *testing.T) {
	if _, err := os.Stat(gnuSort); err != nil {
		t.Skipf("%s not installed", gnuSort)
	}
	for i, in := range sortInputs() {
		for _, flags := range sortFlagSets() {
			name := fmt.Sprintf("input%d %s", i, strings.Join(flags, " "))
			cmd := exec.Command(gnuSort, flags...)
			cmd.Env = []string{"LC_ALL=C"}
			cmd.Stdin = strings.NewReader(in)
			want, err := cmd.Output()
			if err != nil {
				t.Fatalf("%s: GNU sort: %v", name, err)
			}
			got, errs, st := run(t, vfs.New(), in, append([]string{"sort"}, flags...)...)
			if st != 0 || got != string(want) {
				t.Errorf("%s: got %q (st=%d errs=%q), GNU sort %q", name, got, st, errs, want)
				continue
			}
			for lanes := 2; lanes <= 4; lanes++ {
				if merged := sortLanes(t, in, lanes, flags); merged != got {
					t.Errorf("%s: %d lanes merged %q, whole sort %q", name, lanes, merged, got)
				}
			}
		}
	}
}

// sortLanes splits in into n contiguous runs of lines, sorts each, and
// merges the sorted runs the way the executor's merge node does.
func sortLanes(t *testing.T, in string, n int, flags []string) string {
	t.Helper()
	lines := strings.SplitAfter(in, "\n")
	var ins []io.Reader
	for i := 0; i < n; i++ {
		lane := strings.Join(lines[i*len(lines)/n:(i+1)*len(lines)/n], "")
		out, errs, st := run(t, vfs.New(), lane, append([]string{"sort"}, flags...)...)
		if st != 0 {
			t.Fatalf("lane %d: st=%d errs=%q", i, st, errs)
		}
		ins = append(ins, strings.NewReader(out))
	}
	var out, errb bytes.Buffer
	c := &Context{FS: vfs.New(), Dir: "/", Stdout: &out, Stderr: &errb}
	if st := MergeSortedStreams(c, append([]string{"sort", "-m"}, flags...), ins); st != 0 {
		t.Fatalf("merge: st=%d errs=%q", st, errb.String())
	}
	return out.String()
}
