package main

import (
	"bytes"
	"fmt"
	"io"
	"runtime"
	"runtime/metrics"
	"syscall"
	"time"

	"jash/internal/core"
	"jash/internal/cost"
	"jash/internal/vfs"
)

// warmupOps run untimed at the end of every set-up so that buffer pools
// and the interpreter's closure caches are in their steady state before
// the first timed op.
const warmupOps = 2

// setupRepeats is how many times a run sets up from scratch; setup_s is
// the median, because one set-up is too short to time steadily.
const setupRepeats = 3

// instance is one workload made concrete for a seed: the VFS holding its
// inputs and the outputs the reference expects.
type instance struct {
	spec *workloadSpec
	seed uint64
	fs   *vfs.FS
	// The generated inputs live on in the VFS only; these describe them.
	inputPaths []string
	inputBytes int64
	digest     string
	want       []file
	stdout     []byte
	// tamper, when non-nil, runs between the script and its check; the
	// tests set it to corrupt an output and see the op counted as failed.
	tamper func()
}

// opResult is what one op cost — wall time, bytes allocated and GC cycles
// started while the script ran — and the session it ran on, for the
// structural gate and the decision metadata.
type opResult struct {
	wall       time.Duration
	allocBytes uint64
	gcCycles   uint32
	shell      *core.Shell
}

// setup generates the inputs from the seed, fills a fresh VFS, computes
// the reference outputs and runs the warm-up ops. It returns how long
// all of that took.
func setup(w *workloadSpec, seed uint64, scale int) (*instance, time.Duration, error) {
	start := time.Now()
	in := &instance{spec: w, seed: seed, fs: vfs.New()}
	inputs := w.inputs(seed, scale)
	for _, f := range inputs {
		if err := in.fs.WriteFile(f.path, f.data); err != nil {
			return nil, 0, fmt.Errorf("%s: fill vfs: %w", w.name, err)
		}
	}
	for _, f := range inputs {
		in.inputPaths = append(in.inputPaths, f.path)
	}
	in.inputBytes, in.digest = totalBytes(inputs), inputDigest(inputs)
	in.want, in.stdout = w.reference(inputs)
	for i := 0; i < warmupOps; i++ {
		res, err := in.op(core.ModeJash, nil)
		if err != nil {
			return nil, 0, fmt.Errorf("%s: warm-up op: %w", w.name, err)
		}
		if err := w.gate(&res.shell.Stats, len(in.inputPaths)); err != nil {
			return nil, 0, fmt.Errorf("%s: %w", w.name, err)
		}
	}
	return in, time.Since(start), nil
}

// clearOutputs removes what the previous op wrote.
func (in *instance) clearOutputs() error {
	for _, p := range in.spec.outputs {
		if err := in.fs.RemoveAll(p); err != nil {
			return err
		}
	}
	return nil
}

// newShell is the session every op runs on: core.Shell exactly as
// shipped, on the laptop profile. tweak, when non-nil, adjusts it for the
// traced pass's comparison modes.
func (in *instance) newShell(mode core.Mode, stdout io.Writer, tweak func(*core.Shell)) *core.Shell {
	sh := core.New(in.fs, cost.Laptop(), mode)
	sh.Interp.Stdout = stdout
	sh.Interp.Stderr = io.Discard
	if tweak != nil {
		tweak(sh)
	}
	return sh
}

// op runs the workload script once on a fresh Shell and checks every
// output byte against the reference. The garbage of the previous op and
// of its check is collected before the clock starts, and the counters are
// read around the script alone, so the check's copies are not charged to
// the program.
func (in *instance) op(mode core.Mode, tweak func(*core.Shell)) (opResult, error) {
	if err := in.clearOutputs(); err != nil {
		return opResult{}, err
	}
	var stdout bytes.Buffer
	sh := in.newShell(mode, &stdout, tweak)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	status, err := sh.Run(in.spec.script)
	wall := time.Since(start)
	runtime.ReadMemStats(&after)
	res := opResult{wall: wall, allocBytes: after.TotalAlloc - before.TotalAlloc,
		gcCycles: after.NumGC - before.NumGC, shell: sh}
	if err != nil {
		return res, fmt.Errorf("run: %w", err)
	}
	if status != 0 {
		return res, fmt.Errorf("exit status %d", status)
	}
	if in.tamper != nil {
		in.tamper()
	}
	return res, in.check(stdout.Bytes())
}

// check compares the op's stdout and output files with the reference.
func (in *instance) check(stdout []byte) error {
	if !bytes.Equal(stdout, in.stdout) {
		return fmt.Errorf("stdout differs from the reference (%d bytes, want %d)", len(stdout), len(in.stdout))
	}
	for _, want := range in.want {
		got, err := in.fs.ReadFile(want.path)
		if err != nil {
			return fmt.Errorf("output %s: %w", want.path, err)
		}
		if !bytes.Equal(got, want.data) {
			return fmt.Errorf("output %s differs from the reference (%d bytes, want %d)", want.path, len(got), len(want.data))
		}
	}
	return nil
}

// timed is the result of one timed region.
type timed struct {
	ops       int
	failed    int
	firstFail error
	opMS      []float64 // wall of each op, in op order
	liveMB    []float64 // /gc/heap/live:bytes sampled after each op
	wall      time.Duration
	cpu       time.Duration
	allocMB   float64 // TotalAlloc inside the ops, summed
	gcCycles  uint32  // GC cycles that started inside the ops
	decisions map[string]int
}

const heapLiveMetric = "/gc/heap/live:bytes"

// peakLivePercentile is the percentile of the per-op live-heap samples
// that peak_live_mb reports. The maximum is an extreme value: it grows
// with the number of ops a run fits in and moved 2-22% between runs of
// the same code, where the 90th percentile moved 0.1-0.6%.
const peakLivePercentile = 90

func heapLiveMB(sample []metrics.Sample) float64 {
	metrics.Read(sample)
	if sample[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return float64(sample[0].Value.Uint64()) / (1 << 20)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// runTimed is the closed loop of one client: the next op starts when the
// previous one has completed and been checked, until the run length has
// passed.
func (in *instance) runTimed(length time.Duration) (*timed, error) {
	t := &timed{decisions: map[string]int{}}
	sample := []metrics.Sample{{Name: heapLiveMetric}}
	start, cpu0 := time.Now(), cpuTime()
	for time.Since(start) < length || t.ops == 0 {
		res, err := in.op(core.ModeJash, nil)
		t.ops++
		t.opMS = append(t.opMS, ms(res.wall))
		t.allocMB += float64(res.allocBytes) / (1 << 20)
		t.gcCycles += res.gcCycles
		t.liveMB = append(t.liveMB, heapLiveMB(sample))
		if err != nil {
			if t.failed++; t.firstFail == nil {
				t.firstFail = fmt.Errorf("op %d: %w", t.ops, err)
			}
			continue
		}
		if err := in.spec.gate(&res.shell.Stats, len(in.inputPaths)); err != nil {
			return nil, fmt.Errorf("%s: op %d: %w", in.spec.name, t.ops, err)
		}
		if t.ops == 1 {
			for _, d := range res.shell.Stats.Decisions {
				t.decisions[fmt.Sprintf("%s/width=%d", d.Strategy, d.Width)]++
			}
		}
	}
	t.wall, t.cpu = time.Since(start), cpuTime()-cpu0
	return t, nil
}

// endToEndValues derives the gated metrics from a timed region.
func (t *timed) endToEndValues(setupS float64) map[string]float64 {
	return map[string]float64{
		"op_p50_ms":       median(t.opMS),
		"alloc_mb_per_op": t.allocMB / float64(t.ops),
		"peak_live_mb":    percentile(t.liveMB, peakLivePercentile),
		"setup_s":         setupS,
	}
}

// harnessValues are the timed region's context metrics (per-layer,
// ungated).
func (t *timed) harnessValues() map[string]float64 {
	return map[string]float64{
		"harness.wall_s":           t.wall.Seconds(),
		"harness.cpu_ms_per_op":    ms(t.cpu) / float64(t.ops),
		"harness.op_min_ms":        percentile(t.opMS, 0),
		"harness.op_p90_ms":        percentile(t.opMS, 90),
		"harness.gc_cycles_per_op": float64(t.gcCycles) / float64(t.ops),
	}
}
