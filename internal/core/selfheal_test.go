package core

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"jash/internal/cost"
	"jash/internal/exec/faultinject"
	"jash/internal/vfs"
)

// fileSinkOracle runs the script in bash mode and returns the sink
// file's final content and the exit status.
func fileSinkOracle(t *testing.T, setup func(fs *vfs.FS), script string) ([]byte, int) {
	t.Helper()
	fs := vfs.New()
	setup(fs)
	s, _, _ := newShell(fs, cost.IOOptEC2(), ModeBash)
	st, err := s.Run(script)
	if err != nil {
		t.Fatalf("oracle: %v", err)
	}
	data, err := fs.ReadFile("/out")
	if err != nil {
		t.Fatalf("oracle sink: %v", err)
	}
	return data, st
}

// TestMidStreamJournaledFileSink fails an optimized plan after it has
// committed bytes to a file sink, for both truncating and appending
// redirections. The journaled fallback must resume past the committed
// line-aligned prefix so the final file is byte-identical to the
// interpreter's — no duplicated and no missing lines.
func TestMidStreamJournaledFileSink(t *testing.T) {
	for _, tc := range []struct {
		name   string
		script string
		setup  func(fs *vfs.FS)
	}{
		{
			name:   "truncate",
			script: "cat /big | tr A-Z a-z > /out\n",
			setup:  func(fs *vfs.FS) { wordsFile(fs, "/big", 80_000) },
		},
		{
			name:   "append",
			script: "cat /big | tr A-Z a-z >> /out\n",
			setup: func(fs *vfs.FS) {
				wordsFile(fs, "/big", 80_000)
				fs.WriteFile("/out", []byte("header kept intact\n"))
			},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want, wantSt := fileSinkOracle(t, tc.setup, tc.script)

			fs := vfs.New()
			tc.setup(fs)
			s, out, errs := newShell(fs, cost.IOOptEC2(), ModeJash)
			s.Faults = faultinject.NewSet(faultinject.Rule{
				Node: "tr", Op: faultinject.OpWrite, Nth: 8,
			})
			st, err := s.Run(tc.script)
			if err != nil {
				t.Fatalf("Run: %v (stderr=%q)", err, errs.String())
			}
			if s.Faults.Fired() == 0 {
				t.Fatal("fault never fired; plan was not optimized")
			}
			if st != wantSt {
				t.Fatalf("st=%d want %d (stderr=%q)", st, wantSt, errs.String())
			}
			if s.Stats.Fallbacks != 1 {
				t.Fatalf("Fallbacks=%d, want 1", s.Stats.Fallbacks)
			}
			got, ferr := fs.ReadFile("/out")
			if ferr != nil {
				t.Fatal(ferr)
			}
			if string(got) != string(want) {
				t.Fatalf("sink diverged after journaled fallback: got %d bytes, want %d",
					len(got), len(want))
			}
			if out.Len() != 0 {
				t.Fatalf("stdout leaked %q during file-sink fallback", out.String())
			}
			d, ok := s.LastDecision()
			if !ok || d.Strategy != "fallback-interpret" || !strings.Contains(d.Reason, "mid-stream") {
				t.Fatalf("decision = %+v, want mid-stream fallback-interpret", d)
			}
		})
	}
}

// TestChaosShellDifferential is the end-to-end chaos acceptance check:
// seeded random faults in the optimized executor must never change what
// the user sees. Whatever the executor suffers — errors, panics, stalls
// — the journaled fallback alone finishes the job, and the session
// output stays byte-identical with matching exit status. A fresh shell
// per seed keeps the circuit breaker out of the picture.
func TestChaosShellDifferential(t *testing.T) {
	want, wantSt := interpreterOracle(t, fig1Script, 2000)
	for seed := int64(1); seed <= 6; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			fs := vfs.New()
			wordsFile(fs, "/big", 2000)
			s, out, errs := newShell(fs, cost.IOOptEC2(), ModeJash)
			s.StallTimeout = 300 * time.Millisecond
			s.Faults = faultinject.NewChaos(faultinject.ChaosConfig{
				Seed: seed, PFail: 0.01, PPanic: 0.005, PStall: 0.003,
			})
			st, err := s.Run(fig1Script)
			if err != nil {
				t.Fatalf("Run: %v (stderr=%q)", err, errs.String())
			}
			if st != wantSt || out.String() != want {
				t.Fatalf("chaos run diverged: st=%d want %d, identical=%v",
					st, wantSt, out.String() == want)
			}
		})
	}
}

// TestQuarantineAndHalfOpen drives a region to the breaker threshold,
// checks the JIT refuses to compile it (quarantine decision, correct
// interpreted output), and then steps the breaker clock past the decay
// so the half-open probe re-admits the region for good.
func TestQuarantineAndHalfOpen(t *testing.T) {
	want, wantSt := interpreterOracle(t, fig1Script, 2000)
	fs := vfs.New()
	wordsFile(fs, "/big", 2000)
	s, out, errs := newShell(fs, cost.IOOptEC2(), ModeJash)

	run := func(label string) int {
		t.Helper()
		out.Reset()
		st, err := s.Run(fig1Script)
		if err != nil {
			t.Fatalf("%s: Run: %v (stderr=%q)", label, err, errs.String())
		}
		if st != wantSt || out.String() != want {
			t.Fatalf("%s: output diverged (st=%d)", label, st)
		}
		return st
	}

	// Fail the same region BreakerThreshold times: each run arms a fresh
	// one-shot plan fault, fails the plan, and falls back correctly.
	for i := 0; i < cost.BreakerThreshold; i++ {
		s.Faults = faultinject.NewSet(faultinject.Rule{
			Node: "tr", Op: faultinject.OpRead, Nth: 2,
		})
		run(fmt.Sprintf("failure %d", i+1))
	}
	s.Faults = nil

	// The breaker is open: the JIT must refuse the region.
	run("quarantined")
	d, ok := s.LastDecision()
	if !ok || d.Strategy != "quarantine" {
		t.Fatalf("decision = %+v, want quarantine", d)
	}
	if s.Stats.Quarantined != 1 {
		t.Fatalf("Quarantined=%d, want 1", s.Stats.Quarantined)
	}
	run("still quarantined")
	if d, _ := s.LastDecision(); d.Strategy != "quarantine" {
		t.Fatalf("decision = %+v, want quarantine before decay", d)
	}

	// Step the breaker's clock past the decay: the next run is the
	// half-open probe; its success closes the breaker.
	s.now = func() time.Time { return time.Now().Add(cost.BreakerDecay + time.Minute) }
	run("half-open probe")
	if d, _ := s.LastDecision(); d.Strategy == "quarantine" || d.Strategy == "interpret" {
		t.Fatalf("decision = %+v, want a compiled strategy for the probe", d)
	}
	if len(s.breakers) != 0 {
		t.Fatalf("breaker ledger not cleared after probe success: %v", s.breakers)
	}
	run("re-admitted")
	if d, _ := s.LastDecision(); d.Strategy == "quarantine" {
		t.Fatalf("region still quarantined after successful probe: %+v", d)
	}
}

// TestTimeoutRunsPendingTraps: a session deadline must give the script's
// INT/TERM/EXIT handlers their last word before Run reports 124.
func TestTimeoutRunsPendingTraps(t *testing.T) {
	fs := vfs.New()
	s, out, _ := newShell(fs, cost.Laptop(), ModeJash)
	if _, err := s.Run("trap 'echo caught-int' INT\ntrap 'echo last-word' EXIT\n"); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s.Ctx = ctx
	st, err := s.Run("echo never-reached\n")
	if st != 124 || err == nil {
		t.Fatalf("st=%d err=%v, want 124 with a deadline error", st, err)
	}
	got := out.String()
	if !strings.Contains(got, "caught-int") || !strings.Contains(got, "last-word") {
		t.Fatalf("traps did not run before exit 124: %q", got)
	}
	if strings.Contains(got, "never-reached") {
		t.Fatalf("statement ran despite expired deadline: %q", got)
	}
}
