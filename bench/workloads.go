package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"

	"jash/internal/core"
	"jash/internal/workload"
)

// file is one named byte string: an input placed in the VFS before the
// ops, or an output the reference says the script must leave behind.
type file struct {
	path string
	data []byte
}

// workloadSpec is one benchmark workload: a fixed script over inputs generated
// from the seed. Sizes are constants; scale only exists so the tier-1
// smoke test can run the same code at 1/64 size.
type workloadSpec struct {
	name string
	// why is the one-line reason the workload exists (BENCHMARK.json).
	why    string
	script string
	// inputs generates the VFS contents from the seed.
	inputs func(seed uint64, scale int) []file
	// reference computes, in plain Go, what the script must produce.
	reference func(in []file) (outputs []file, stdout []byte)
	// outputs are removed before every op so a stale file from the
	// previous op can never satisfy the check.
	outputs []string
	// gate fails the run loudly when the op did not take the execution
	// path the workload exists to measure.
	gate func(st *core.Stats, inputs int) error
}

const (
	wordfreqBytes    = 16 << 20
	filterChainBytes = 32 << 20
	listWriteBytes   = 8 << 20 // per input, four inputs
	mixFiles         = 64
	mixLines         = 200
	mixLoopIters     = 100
)

const (
	wordfreqScript    = "cat /words | tr A-Z a-z | sort | uniq -c >/freq\n"
	filterChainScript = "grep -v zzz </words | tr a-z A-Z | cut -c 1-40 | wc -l >/count\n"
	listWriteScript   = "tr a-z A-Z </w0 >/o0; sed s/the/THE/ </w1 >/o1; cut -c 1-60 </w2 >/o2; grep -v zzz </w3 >/o3\n"
)

// mixScript is the per-command-fixed-cost workload: per log file three
// small pipelines the JIT can compile once it knows "$f", one pipeline it
// must hand to the interpreter (a compound stage), and a pure control-flow
// loop. mixReference mirrors it line for line.
const mixScript = `classify() {
	case "$1" in
	/api/*) kind=api ;;
	/static/*) kind=static ;;
	/log*) kind=auth ;;
	*) kind=page ;;
	esac
}
mkdir -p /out
total=0
for f in /logs/f*; do
	base=${f##*/}
	grep ' 200 ' "$f" | cut -d ' ' -f 1 | sort -u | wc -l >"/out/$base.clients"
	cut -d ' ' -f 8 "$f" | sort | uniq -c >"/out/$base.status"
	n=$(grep -c ' 404 ' "$f")
	grep ' 500 ' "$f" | cut -d ' ' -f 6 | while read p; do classify "$p"; echo "$kind"; done | sort | uniq -c >"/out/$base.kinds"
	i=0
	while [ "$i" -lt 100 ]; do
		i=$((i + 1))
		t=${f##*/}
		case $((i % 3)) in
		0) q=/api/$t ;;
		1) q=/static/$t ;;
		*) q=/$t ;;
		esac
		classify "$q"
		total=$((total + (n + i) % 7 + ${#kind}))
	done
done
echo "$total"
`

// mixPipelinesPerFile is how many pipelines of mixScript the JIT can
// compile per log file.
const mixPipelinesPerFile = 3

func scaled(n, scale int) int {
	if n /= scale; n < 1 {
		return 1
	}
	return n
}

func wordsInput(path string, size int) func(uint64, int) []file {
	return func(seed uint64, scale int) []file {
		return []file{{path, workload.Words(seed, scaled(size, scale))}}
	}
}

// optimizedGate requires the single pipeline of a data workload to have
// run on the dataflow executor, not the interpreter.
func optimizedGate(st *core.Stats, _ int) error {
	if st.Optimized != 1 || st.Fallbacks != 0 {
		return fmt.Errorf("pipeline was not JIT-optimized: optimized=%d interpreted=%d fallbacks=%d",
			st.Optimized, st.Interpreted, st.Fallbacks)
	}
	return nil
}

var workloads = []*workloadSpec{
	{
		name:      "wordfreq",
		why:       "blocking sort/uniq and the k-way merge do the work: the slow side of the 11x gap and the memory case",
		script:    wordfreqScript,
		inputs:    wordsInput("/words", wordfreqBytes),
		reference: wordfreqReference,
		outputs:   []string{"/freq"},
		gate:      optimizedGate,
	},
	{
		name:      "filter_chain",
		why:       "stateless streaming: pipes, split/merge and pooled blocks do the work and sort none, so a blocking-stage change must read no change",
		script:    filterChainScript,
		inputs:    wordsInput("/words", filterChainBytes),
		reference: filterChainReference,
		outputs:   []string{"/count"},
		gate:      optimizedGate,
	},
	{
		name:   "list_write",
		why:    "four independent statements whose output is as large as their input: list parallelism, sink commit and vfs writes dominate",
		script: listWriteScript,
		inputs: func(seed uint64, scale int) []file {
			fs := make([]file, 4)
			for i := range fs {
				fs[i] = file{fmt.Sprintf("/w%d", i), workload.Words(seed+uint64(i)*7919, scaled(listWriteBytes, scale))}
			}
			return fs
		},
		reference: listWriteReference,
		outputs:   []string{"/o0", "/o1", "/o2", "/o3"},
		gate: func(st *core.Stats, _ int) error {
			if st.ListParallel != 4 || st.Optimized != 4 || st.Fallbacks != 0 {
				return fmt.Errorf("list did not form a 4-statement region of optimized pipelines: list_parallel=%d optimized=%d fallbacks=%d",
					st.ListParallel, st.Optimized, st.Fallbacks)
			}
			return nil
		},
	},
	{
		name:   "script_mix",
		why:    "negligible bytes, thousands of commands: per-command fixed cost (parse, expand, preflight, plan, start-up, interpreter pipes) is everything; the bypass for throughput changes",
		script: mixScript,
		inputs: func(seed uint64, scale int) []file {
			fs := make([]file, scaled(mixFiles, scale))
			for i := range fs {
				fs[i] = file{fmt.Sprintf("/logs/f%02d", i), workload.AccessLog(seed*1000+uint64(i), mixLines)}
			}
			return fs
		},
		reference: mixReference,
		outputs:   []string{"/out"},
		gate: func(st *core.Stats, inputs int) error {
			if want := mixPipelinesPerFile * inputs; st.Optimized < want || st.Interpreted == 0 || st.Fallbacks != 0 {
				return fmt.Errorf("script did not both optimize and interpret pipelines: optimized=%d (want >= %d) interpreted=%d fallbacks=%d",
					st.Optimized, want, st.Interpreted, st.Fallbacks)
			}
			return nil
		},
	},
}

func findWorkload(name string) *workloadSpec {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

// inputDigest is the SHA-256 over the generated inputs (paths and bytes,
// in path order), recorded in every run's metadata so two runs can be
// shown to have measured the same bytes.
func inputDigest(in []file) string {
	sorted := append([]file(nil), in...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].path < sorted[j].path })
	h := sha256.New()
	for _, f := range sorted {
		fmt.Fprintf(h, "%s\x00%d\x00", f.path, len(f.data))
		h.Write(f.data)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func totalBytes(fs []file) int64 {
	var n int64
	for _, f := range fs {
		n += int64(len(f.data))
	}
	return n
}
