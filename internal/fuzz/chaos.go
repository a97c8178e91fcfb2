package fuzz

import (
	"fmt"
	"time"

	"jash/internal/exec/faultinject"
)

// ChaosOpts configures one chaos episode: seeded probabilistic fault
// injection at both the executor boundary (plan node reads/writes/opens)
// and the interpreter boundary (command dispatch, redirection opens,
// expansion), replayed against a clean run of the same program.
type ChaosOpts struct {
	// Seed drives both injectors; one seed reproduces one episode.
	Seed int64
	// PFail, PPanic, PStall are per-operation probabilities (defaults
	// 0.02 / 0.005 / 0.005).
	PFail, PPanic, PStall float64
	// Oracle is the engine under chaos (default "listpar" — the widest
	// surface: JIT plans, list parallelism, journaled fallback).
	Oracle string
	// Layer selects where faults are armed. "exec" (default) injects at
	// plan nodes, where a failed plan's journaled fallback owes
	// byte-identical recovery or a clean failure. "interp" injects at command dispatch,
	// redirection opens, and expansion — those faults surface as ordinary
	// command failures a script may legitimately absorb (`||`, `if`), so
	// only the crash invariants (no panic, hang, or leak) apply. "both"
	// arms the two together, likewise crash-only.
	Layer string
	// Timeout bounds each run (default 10s: stalls must end within it).
	Timeout time.Duration
}

func (c ChaosOpts) withDefaults() ChaosOpts {
	if c.PFail == 0 && c.PPanic == 0 && c.PStall == 0 {
		c.PFail, c.PPanic, c.PStall = 0.02, 0.005, 0.005
	}
	if c.Oracle == "" {
		c.Oracle = "listpar"
	}
	if c.Layer == "" {
		c.Layer = "exec"
	}
	if c.Timeout <= 0 {
		c.Timeout = 10 * time.Second
	}
	return c
}

// ChaosEpisode runs the program clean, then again with seeded fault
// injection armed, and checks the recovery invariants:
//
//   - the chaotic run must never panic, hang past the watchdog, or leak
//     goroutines, no matter what was injected;
//   - it must either recover to the clean run's exact bytes (stdout,
//     status, final filesystem) — the journaled fallback's replay
//     contract — or fail cleanly, surfacing a non-zero status or an
//     error.
//
// Stderr is exempt from the byte-identity clause: recovery is allowed to
// narrate (fallback diagnostics), silently diverging output is not.
func ChaosEpisode(p Program, copts ChaosOpts) *Episode {
	copts = copts.withDefaults()
	base := RunOpts{Timeout: copts.Timeout, Oracles: []string{copts.Oracle}}

	clean := RunOracle(copts.Oracle, p, base)

	chaotic := base
	chaotic.StallTimeout = 250 * time.Millisecond
	if copts.Layer == "exec" || copts.Layer == "both" {
		chaotic.ExecFaults = func() *faultinject.Set {
			return faultinject.NewChaos(faultinject.ChaosConfig{
				Seed: copts.Seed, PFail: copts.PFail,
				PPanic: copts.PPanic, PStall: copts.PStall,
			})
		}
	}
	if copts.Layer == "interp" || copts.Layer == "both" {
		// The interpreter boundary gets an offset seed so the two
		// injectors draw independent streams. No stalls here: the
		// interpreter runs commands inline and has no stall watchdog of
		// its own, so an injected stall would only test the run timeout.
		chaotic.InterpFaults = func() *faultinject.Set {
			return faultinject.NewChaos(faultinject.ChaosConfig{
				Seed: copts.Seed + 1, PFail: copts.PFail,
				PPanic: copts.PPanic, PStall: 0,
			})
		}
	}
	faulted := RunOracle(copts.Oracle, p, chaotic)

	ep := &Episode{Program: p, Outcomes: []Outcome{clean, faulted}}
	ep.Divergences = chaosInvariants(clean, faulted, copts.Layer == "exec")
	return ep
}

// chaosInvariants checks the faulted outcome against the clean one. The
// returned divergences use chaos-specific signatures so triage keeps
// chaos findings apart from differential ones. The recovered-or-failed-
// cleanly clause applies only to exec-layer chaos (strong == true);
// interpreter-layer faults legitimately alter control flow.
func chaosInvariants(clean, faulted Outcome, strong bool) []Divergence {
	var out []Divergence
	if clean.Crashed() {
		// A crashing clean run is a plain bug; the differential harness
		// owns that case. Report it and stop: there is no baseline left
		// to hold the chaotic run to.
		out = append(out, Divergence{
			Kind: "panic", Oracle: "chaos:clean",
			Detail: "clean baseline crashed: " + firstLine(clean.Panic),
			Sig:    "chaos:clean-crash",
		})
		return out
	}
	if faulted.Panic != "" {
		out = append(out, Divergence{
			Kind: "panic", Oracle: "chaos",
			Detail: fmt.Sprintf("panic escaped containment at %s: %s",
				faulted.PanicSite, firstLine(faulted.Panic)),
			Sig: "chaos:panic:" + faulted.PanicSite,
		})
	}
	if faulted.Hung {
		out = append(out, Divergence{
			Kind: "hang", Oracle: "chaos",
			Detail: "chaotic run exceeded the watchdog (stall not healed)",
			Sig:    "chaos:hang",
		})
	}
	if faulted.Leaked > 0 {
		out = append(out, Divergence{
			Kind: "leak", Oracle: "chaos",
			Detail: fmt.Sprintf("%d goroutines outlived the chaotic run", faulted.Leaked),
			Sig:    "chaos:leak",
		})
	}
	if len(out) > 0 || !strong {
		return out
	}
	// Recovered-or-failed-cleanly: byte identity, or a surfaced failure.
	identical := faulted.Status == clean.Status &&
		faulted.Stdout == clean.Stdout && faulted.FSDump == clean.FSDump
	failedCleanly := faulted.Status != 0 || faulted.Err != ""
	if !identical && !failedCleanly {
		detail := "chaotic run claimed success with diverging "
		switch {
		case faulted.Stdout != clean.Stdout:
			out = append(out, Divergence{
				Kind: "stdout", Oracle: "chaos",
				Detail: detail + diffDetail("stdout", clean.Stdout, faulted.Stdout),
				Sig:    "chaos:stdout:" + diffShape(clean.Stdout, faulted.Stdout),
			})
		case faulted.FSDump != clean.FSDump:
			out = append(out, Divergence{
				Kind: "fs", Oracle: "chaos",
				Detail: detail + diffDetail("fs", clean.FSDump, faulted.FSDump),
				Sig:    "chaos:fs:" + diffShape(clean.FSDump, faulted.FSDump),
			})
		default:
			out = append(out, Divergence{
				Kind: "status", Oracle: "chaos",
				Detail: fmt.Sprintf("%sstatus %d, clean %d", detail, faulted.Status, clean.Status),
				Sig:    fmt.Sprintf("chaos:status:%d≠%d", faulted.Status, clean.Status),
			})
		}
	}
	return out
}
