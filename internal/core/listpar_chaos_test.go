package core

import (
	"strings"
	"testing"

	"jash/internal/cost"
	"jash/internal/exec/faultinject"
	"jash/internal/vfs"
)

// chaosListFS seeds the three disjoint inputs for the faulted-region
// script: two small grep targets flanking one large streaming input so
// the middle statement has emitted real bytes into its journal buffer
// by the time the fault strikes.
func chaosListFS() *vfs.FS {
	fs := vfs.New()
	wordsFile(fs, "/small0", 300)
	wordsFile(fs, "/big", 80000)
	wordsFile(fs, "/small2", 400)
	return fs
}

// chaosListScript is a 3-statement proven-parallel list. Only statement 2
// contains a tr node, so a Node:"tr" fault rule deterministically selects
// the middle lane of the region even though the lanes run concurrently.
const chaosListScript = "grep -c Apple /small0; cat /big | tr A-Z a-z; grep -c banana /small2\n"

// TestListRegionFaultStatement2JournaledReplay injects a mid-stream write
// fault into statement 2 of a parallelized list — after its pipeline has
// already committed hundreds of KiB into the per-statement journal
// buffer. The worker's journaled fallback must recover it (the
// interpreter re-runs the region, skipping the committed line-aligned
// prefix), and the region replay must then deliver stdout, stderr, and
// status byte-identical to an unfaulted sequential run.
func TestListRegionFaultStatement2JournaledReplay(t *testing.T) {
	// Oracle: the same script, no faults, no list parallelism.
	oracle, oout, oerr := newShell(chaosListFS(), cost.StandardEC2(), ModeJash)
	oracle.NoListParallel = true
	wantSt, err := oracle.Run(chaosListScript)
	if err != nil {
		t.Fatalf("oracle: %v", err)
	}

	// Faulted parallel run: the 8th tr write (~448 KiB emitted) fails
	// mid-stream inside the region's middle lane.
	s, out, errb := newShell(chaosListFS(), cost.StandardEC2(), ModeJash)
	s.Faults = faultinject.NewSet(faultinject.Rule{
		Node: "tr", Op: faultinject.OpWrite, Nth: 8,
	})
	st, err := s.Run(chaosListScript)
	if err != nil {
		t.Fatalf("faulted run: %v", err)
	}
	if s.Faults.Fired() == 0 {
		t.Fatal("fault never fired")
	}
	if s.Stats.ListParallel != 3 {
		t.Fatalf("region did not form: ListParallel=%d decisions=%+v",
			s.Stats.ListParallel, s.Stats.Decisions)
	}
	if s.Stats.Fallbacks != 1 {
		t.Errorf("fallbacks=%d, want 1 (journaled recovery inside the lane)", s.Stats.Fallbacks)
	}
	if st != wantSt {
		t.Errorf("status %d, oracle %d (stderr %q)", st, wantSt, errb.String())
	}
	if out.String() != oout.String() {
		t.Errorf("replay not byte-identical: got %d bytes, oracle %d bytes",
			out.Len(), oout.Len())
	}
	if errb.String() != oerr.String() {
		t.Errorf("stderr diverged: %q vs %q", errb.String(), oerr.String())
	}
	// The lane's recovery must be visible in the decision log: a
	// fallback-interpret decision naming the mid-stream cause, alongside
	// the parallel-list decision for the region itself.
	if d, ok := findDecision(s, "fallback-interpret"); !ok ||
		!strings.Contains(d.Reason, "fault injected") {
		t.Errorf("fallback decision missing or causeless: %+v", s.Stats.Decisions)
	}
	if _, ok := findDecision(s, "parallel-list"); !ok {
		t.Errorf("parallel-list decision missing: %+v", s.Stats.Decisions)
	}
}
