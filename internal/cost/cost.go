// Package cost implements the cost-aware dataflow model of §3.2: given a
// dataflow graph, the sizes and devices of its inputs, and a resource
// profile (cores + storage devices with live burst-credit state), it
// predicts execution time. The model captures exactly the effects Figure 1
// turns on:
//
//   - a pipeline stage is a single-threaded process, so a sequential
//     pipeline cannot go faster than its slowest stage (U2);
//   - parallel lanes multiply usable cores but also multiply concurrent
//     streams on the device, degrading effective op size;
//   - PaSh-style buffered staging moves every byte through storage twice
//     more, which a burst-bucket device (gp2) absorbs only while credits
//     last.
//
// The estimator is analytic per phase (no time-stepping): each phase's
// duration is the max of its CPU bound, its slowest-stage bound, and its
// device bounds; burst credits carry across phases through
// storage.State.Settle.
package cost

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"jash/internal/dfg"
	"jash/internal/pipe"
	"jash/internal/spec"
	"jash/internal/storage"
)

// Executor buffering constants. The cost model and the real executor
// (package exec) must agree on these: the model's I/O predictions assume
// bounded per-edge buffering, and the executor enforces it. Keeping the
// constants here (the lower layer both import) is what lets `jash -stats`
// put measured data movement next to predicted data movement.
const (
	// PipeBufferBytes is the capacity of one bounded pipe — a dataflow
	// edge or an interpreted `|` — which is one pooled block. Backpressure
	// engages when a consumer falls this far behind its producer.
	PipeBufferBytes = pipe.BlockSize
	// SplitChunkBytes is the block size the streaming splitter forwards:
	// it reads at most this much before handing complete lines to a lane.
	SplitChunkBytes = pipe.BlockSize
	// SplitLaneFallbackBytes is the per-lane quota the consecutive
	// splitter uses when the input volume is unknown (terminal stdin):
	// lanes 0..n-2 receive this much each and the last lane the rest.
	SplitLaneFallbackBytes = 1 << 20
)

// Self-healing executor knobs. The supervisor (package exec) and the JIT
// circuit breaker (package core) share this block so `jash -stats` can
// explain retry and quarantine behaviour in the model's own terms.
const (
	// RetryBackoffBase is the first retry's backoff; each further attempt
	// doubles it (with jitter) up to RetryBackoffMax. The cap is kept well
	// under any plausible -stall-timeout so a backing-off node is never
	// mistaken for a stalled one.
	RetryBackoffBase = 1 * time.Millisecond
	RetryBackoffMax  = 20 * time.Millisecond
	// StallPollDivisor sets how often the watchdog samples progress
	// counters: stall-timeout / divisor per sample, so a stall is detected
	// within (1 + 1/divisor) × the configured timeout.
	StallPollDivisor = 4
	// BreakerThreshold is the number of consecutive plan failures
	// after which the JIT quarantines a region (interprets it directly).
	BreakerThreshold = 3
	// BreakerDecay is the quarantine duration; after it elapses
	// one half-open probe compilation is allowed through.
	BreakerDecay = 30 * time.Second
)

// Profile describes the machine a plan would run on.
type Profile struct {
	Name string
	// Cores is the number of usable CPU cores.
	Cores int
	// BaseRate is the single-core streaming rate in bytes/sec for a
	// command with CPUFactor 1 (a plain copy).
	BaseRate float64
	// Devices maps device names to their live state. The map is shared
	// with the caller: estimates made with ephemeral=false consume burst
	// credits, modelling back-to-back executions.
	Devices map[string]*storage.State
	// BufferDevice names the device buffered edges stage through.
	BufferDevice string
}

// Clone copies the profile with independent device states, for what-if
// estimation that must not disturb live credit balances.
func (p *Profile) Clone() *Profile {
	cp := *p
	cp.Devices = make(map[string]*storage.State, len(p.Devices))
	for k, v := range p.Devices {
		cp.Devices[k] = v.Clone()
	}
	return &cp
}

// Device returns the named device state, or an unlimited fallback.
func (p *Profile) Device(name string) *storage.State {
	if d, ok := p.Devices[name]; ok {
		return d
	}
	if d, ok := p.Devices["default"]; ok {
		return d
	}
	return storage.NewState(storage.Unlimited())
}

// StandardEC2 models the paper's c5.2xlarge with a gp2 volume (Figure 1's
// "Standard" configuration).
func StandardEC2() *Profile {
	return &Profile{
		Name:     "standard-gp2",
		Cores:    8,
		BaseRate: 400 << 20,
		Devices: map[string]*storage.State{
			"default": storage.NewState(storage.GP2()),
		},
		BufferDevice: "default",
	}
}

// IOOptEC2 models c5.2xlarge with a gp3 volume (Figure 1's "IO-opt").
func IOOptEC2() *Profile {
	return &Profile{
		Name:     "io-opt-gp3",
		Cores:    8,
		BaseRate: 400 << 20,
		Devices: map[string]*storage.State{
			"default": storage.NewState(storage.GP3()),
		},
		BufferDevice: "default",
	}
}

// Laptop is a small 4-core machine with an unconstrained local disk, for
// tests and the quickstart example.
func Laptop() *Profile {
	return &Profile{
		Name:     "laptop",
		Cores:    4,
		BaseRate: 400 << 20,
		Devices: map[string]*storage.State{
			"default": storage.NewState(storage.Unlimited()),
		},
		BufferDevice: "default",
	}
}

// Inputs supplies runtime facts about a graph's inputs — the information
// the JIT gathers by probing the filesystem at dispatch time.
type Inputs struct {
	// Size returns a file's size in bytes; nil means 0 for everything.
	Size func(path string) int64
	// DeviceOf returns the device holding a path; nil means "default".
	DeviceOf func(path string) string
	// StdinBytes is the volume arriving on an unnamed stdin source.
	StdinBytes int64
}

func (in Inputs) size(path string) int64 {
	if path == "" {
		return in.StdinBytes
	}
	if in.Size == nil {
		return 0
	}
	return in.Size(path)
}

func (in Inputs) device(path string) string {
	if in.DeviceOf == nil {
		return "default"
	}
	return in.DeviceOf(path)
}

// Estimate is a predicted execution with its per-phase breakdown.
type Estimate struct {
	Seconds float64
	Phases  []PhaseEstimate
}

// PhaseEstimate explains one phase's duration.
type PhaseEstimate struct {
	Seconds    float64
	CPUBound   float64
	StageBound float64
	IOBound    float64
	// Bottleneck names the binding constraint: "cpu", "stage", or
	// "io:<device>".
	Bottleneck string
	// Bytes processed (input volume) in this phase.
	Bytes int64
}

func (e Estimate) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%.2fs", e.Seconds)
	for i, ph := range e.Phases {
		fmt.Fprintf(&b, " [phase %d: %.2fs %s]", i+1, ph.Seconds, ph.Bottleneck)
	}
	return b.String()
}

// EstimateGraph predicts the graph's execution time on the profile.
// When ephemeral is true, device credit balances are left untouched
// (what-if mode); otherwise the estimate consumes credits, modelling an
// actual run for back-to-back estimation sequences.
func EstimateGraph(g *dfg.Graph, in Inputs, prof *Profile, ephemeral bool) (Estimate, error) {
	order, err := g.TopoSort()
	if err != nil {
		return Estimate{}, err
	}
	// 1. Propagate data volumes along edges.
	edgeVol := map[*dfg.Edge]float64{}
	nodeIn := map[int]float64{}
	for _, n := range order {
		var input float64
		for _, e := range g.In(n.ID) {
			input += edgeVol[e]
		}
		nodeIn[n.ID] = input
		outs := g.Out(n.ID)
		var output float64
		switch n.Kind {
		case dfg.KindSource:
			output = float64(in.size(n.Path))
		case dfg.KindCommand:
			ratio := 1.0
			if n.Spec != nil {
				ratio = n.Spec.OutputRatio
			}
			output = input * ratio
		case dfg.KindSplit:
			// Consecutive chunks: each lane gets an equal share.
			for _, e := range outs {
				edgeVol[e] = input / float64(len(outs))
			}
			continue
		case dfg.KindMerge, dfg.KindSink:
			output = input
		}
		for _, e := range outs {
			edgeVol[e] = output
		}
	}
	// 2. Assign phases: buffered edges are phase boundaries.
	phase := map[int]int{}
	maxPhase := 0
	for _, n := range order {
		p := 0
		for _, e := range g.In(n.ID) {
			ep := phase[e.From]
			if e.Buffered {
				ep++
			}
			if ep > p {
				p = ep
			}
		}
		phase[n.ID] = p
		if p > maxPhase {
			maxPhase = p
		}
	}
	// 3. Evaluate each phase.
	devs := prof.Devices
	if ephemeral {
		devs = prof.Clone().Devices
	}
	deviceOf := func(name string) *storage.State {
		if d, ok := devs[name]; ok {
			return d
		}
		if d, ok := devs["default"]; ok {
			return d
		}
		return storage.NewState(storage.Unlimited())
	}
	est := Estimate{}
	for p := 0; p <= maxPhase; p++ {
		var cpuWork float64 // core-seconds
		var stageBound float64
		var phaseBytes float64
		devBytes := map[string]float64{} // device -> bytes moved
		devStreams := map[string]int{}   // device -> concurrent streams
		addIO := func(dev string, bytes float64) {
			if bytes <= 0 {
				return
			}
			devBytes[dev] += bytes
			devStreams[dev]++
		}
		for _, n := range order {
			if phase[n.ID] != p {
				continue
			}
			switch n.Kind {
			case dfg.KindSource:
				out := g.Out(n.ID)
				var vol float64
				for _, e := range out {
					vol += edgeVol[e]
				}
				addIO(in.device(n.Path), vol)
				phaseBytes += vol
			case dfg.KindSink:
				if n.Path != "" {
					addIO(in.device(n.Path), nodeIn[n.ID])
				}
			case dfg.KindCommand, dfg.KindMerge:
				factor := 2.0 // merge default: comparable to a cheap filter
				if n.Kind == dfg.KindCommand && n.Spec != nil {
					factor = n.Spec.CPUFactor
				}
				if n.Kind == dfg.KindMerge && n.Agg == spec.AggConcat {
					factor = 0.5 // concatenation is nearly free
				}
				t := nodeIn[n.ID] * factor / prof.BaseRate
				cpuWork += t
				if t > stageBound {
					stageBound = t
				}
			}
			// Buffered edges: producer writes now, consumer reads next phase.
			for _, e := range g.Out(n.ID) {
				if e.Buffered {
					addIO(prof.BufferDevice, edgeVol[e])
				}
			}
			for _, e := range g.In(n.ID) {
				if e.Buffered {
					addIO(prof.BufferDevice, edgeVol[e])
				}
			}
		}
		cpuBound := cpuWork / float64(prof.Cores)
		ioBound := 0.0
		ioDev := ""
		for dev, bytes := range devBytes {
			t := deviceOf(dev).MinTime(bytes, devStreams[dev])
			if t > ioBound {
				ioBound = t
				ioDev = dev
			}
		}
		ph := PhaseEstimate{
			CPUBound:   cpuBound,
			StageBound: stageBound,
			IOBound:    ioBound,
			Bytes:      int64(phaseBytes),
		}
		ph.Seconds = cpuBound
		ph.Bottleneck = "cpu"
		if stageBound > ph.Seconds {
			ph.Seconds = stageBound
			ph.Bottleneck = "stage"
		}
		if ioBound > ph.Seconds {
			ph.Seconds = ioBound
			ph.Bottleneck = "io:" + ioDev
		}
		// Settle credits for the phase's actual duration.
		for dev, bytes := range devBytes {
			deviceOf(dev).Settle(bytes, devStreams[dev], ph.Seconds)
		}
		est.Phases = append(est.Phases, ph)
		est.Seconds += ph.Seconds
	}
	return est, nil
}

// Explain renders a human-readable estimate breakdown table.
func Explain(e Estimate) string {
	var b strings.Builder
	fmt.Fprintf(&b, "total %.2fs over %d phase(s)\n", e.Seconds, len(e.Phases))
	for i, ph := range e.Phases {
		fmt.Fprintf(&b, "  phase %d: %8.2fs  cpu=%.2fs stage=%.2fs io=%.2fs  bottleneck=%s  bytes=%d\n",
			i+1, ph.Seconds, ph.CPUBound, ph.StageBound, ph.IOBound, ph.Bottleneck, ph.Bytes)
	}
	return b.String()
}

// SortedDeviceNames lists a profile's devices, for stable output.
func (p *Profile) SortedDeviceNames() []string {
	names := make([]string, 0, len(p.Devices))
	for n := range p.Devices {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
