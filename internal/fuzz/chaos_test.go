package fuzz

import (
	"flag"
	"testing"
)

var chaosN = flag.Int("fuzz.chaos", 0, "run N chaos episodes per layer (overrides the default smoke count)")

// TestChaosInvariants soaks generated programs under seeded fault
// injection at every layer and asserts the PR 4 recovery contract: no
// escaped panic, no hang, no leaked goroutine — and for exec-layer
// faults, byte-identical journaled recovery or a clean failure. The
// default count keeps `go test` fast; -fuzz.chaos=N scales it up for
// soak runs (the acceptance soak uses 10000 episodes across layers).
func TestChaosInvariants(t *testing.T) {
	perLayer := 40
	if *chaosN > 0 {
		perLayer = *chaosN
	} else if testing.Short() {
		perLayer = 10
	}
	for _, layer := range []string{"exec", "interp", "both"} {
		layer := layer
		t.Run(layer, func(t *testing.T) {
			for i := 0; i < perLayer; i++ {
				seed := uint64(1000*len(layer)) + uint64(i)
				p := Generate(DefaultConfig(seed))
				ep := ChaosEpisode(p, ChaosOpts{Seed: int64(seed), Layer: layer})
				for _, d := range ep.Divergences {
					t.Errorf("seed %d layer %s: %s (%s)\nprogram:\n%s",
						seed, layer, d.Detail, d.Sig, p.Source)
				}
				if t.Failed() && i > 10 {
					t.Fatalf("stopping after repeated invariant violations")
				}
			}
		})
	}
}

// Seed 4515 under exec-layer chaos, found by the 10k-episode soak: a
// ModeStall fault fired in one list-parallel plan while a sibling plan
// had rebound the injector's shared release channel, so the stalled node
// waited on a teardown that never came — the run hung past the watchdog
// and leaked its goroutines. Stalls now wait on the teardown channel of
// the run that performed the operation (faultinject.CheckRelease).
func TestChaosStallReleaseScopedToRun(t *testing.T) {
	p := Generate(DefaultConfig(4515))
	ep := ChaosEpisode(p, ChaosOpts{Seed: 4515, Layer: "exec"})
	for _, d := range ep.Divergences {
		t.Errorf("seed 4515 layer exec: %s (%s)", d.Detail, d.Sig)
	}
}

// Seed 7130 under exec-layer chaos, found by the 10k-episode soak: a
// ModePanic fault on a file sink's read unwound past the sink body's
// commit, so the vfs file never received the bytes the sink's counter
// had already journaled — and the mid-stream fallback, trusting that
// counter, skipped that many bytes of replayed output. One loop
// iteration's `>>` append vanished while the run reported status 0. The
// sink now commits its line-aligned prefix from a defer, so the counted
// offset and the file agree even when the sink dies by panic.
func TestChaosSinkCommitSurvivesPanic(t *testing.T) {
	p := Generate(DefaultConfig(7130))
	ep := ChaosEpisode(p, ChaosOpts{Seed: 7130, Layer: "exec"})
	for _, d := range ep.Divergences {
		t.Errorf("seed 7130 layer exec: %s (%s)", d.Detail, d.Sig)
	}
}

// Seeds 560 and 130 under exec-layer chaos, found by a 2,000-seed soak:
// with an in-place retry budget armed, a source panicked after its first
// write. Its zero-copy copy (countingReader.WriteTo) counts bytes only
// when the copy returns, so the retry gate read "no byte escaped" while a
// block was already downstream; the source re-ran from the top and `cat`
// printed those lines twice, with status 0. Nothing retries in place now:
// a fault tears the plan down and the journaled fallback re-runs it.
func TestChaosRetryNeverDuplicatesOutput(t *testing.T) {
	for _, seed := range []uint64{560, 130} {
		p := Generate(DefaultConfig(seed))
		ep := ChaosEpisode(p, ChaosOpts{Seed: int64(seed), Layer: "exec"})
		for _, d := range ep.Divergences {
			t.Errorf("seed %d layer exec: %s (%s)", seed, d.Detail, d.Sig)
		}
	}
}
