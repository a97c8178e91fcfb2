package fuzz

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"jash/internal/interp"
	"jash/internal/vfs"
)

// plantedOracle is a deliberately broken engine: a reference (`plain`) run
// whose stdout silently uppercases every "unix". The harness's acceptance
// bar is that its own pipeline catches exactly this kind of subtle data
// bug — finds it, buckets it under a stable signature, and shrinks the
// triggering program to a tiny reproducer.
func plantedOracle(src string, fs *vfs.FS, ctx context.Context,
	stdout, stderr *bytes.Buffer) (int, string) {
	var inner bytes.Buffer
	in := interp.New(fs)
	in.Stdout, in.Stderr = &inner, stderr
	in.NoCompile = true
	in.Ctx = ctx
	status, err := in.RunScript(src)
	stdout.WriteString(strings.ReplaceAll(inner.String(), "unix", "UNIX"))
	if err != nil {
		return status, err.Error()
	}
	return status, ""
}

// plantedOpts runs the reference against the planted oracle only: the
// harness must convict the broken engine on its own.
func plantedOpts() RunOpts {
	return RunOpts{
		Oracles: []string{"plain", "planted"},
		Extra:   map[string]OracleFunc{"planted": plantedOracle},
	}
}

// findPlanted scans seeds until the planted bug first manifests.
func findPlanted(t *testing.T) *Episode {
	t.Helper()
	opts := plantedOpts()
	for seed := uint64(1); seed <= 300; seed++ {
		ep := RunEpisode(Generate(DefaultConfig(seed)), opts)
		if !ep.Clean() {
			return ep
		}
	}
	t.Fatal("300 seeds never triggered the planted oracle bug")
	return nil
}

// The planted bug must be caught and land in a stdout bucket naming the
// planted oracle.
func TestPlantedOracleBugCaught(t *testing.T) {
	ep := findPlanted(t)
	tr := NewTriage()
	tr.Add(ep)
	found := false
	for _, b := range tr.Buckets() {
		if b.Kind == "stdout" && strings.Contains(b.Sig, "planted") {
			found = true
		}
	}
	if !found {
		t.Fatalf("planted bug not bucketed as a planted stdout divergence: %+v", ep.Divergences)
	}
}

// The minimizer must shrink the planted divergence to a near-minimal
// program (≤13 AST nodes — `echo unix` is 5, and the here-document it lands
// on carries its body as a word of three) and do so deterministically.
func TestPlantedOracleBugMinimized(t *testing.T) {
	ep := findPlanted(t)
	var target Divergence
	for _, d := range ep.Divergences {
		if d.Kind == "stdout" && d.Oracle == "planted" {
			target = d
			break
		}
	}
	if target.Sig == "" {
		t.Fatalf("no planted stdout divergence in %+v", ep.Divergences)
	}
	opts := plantedOpts()
	min1 := MinimizeDivergence(ep, target, opts, 600)
	min2 := MinimizeDivergence(ep, target, opts, 600)
	if min1.Source != min2.Source {
		t.Errorf("minimization not deterministic:\n--- first\n%s\n--- second\n%s",
			min1.Source, min2.Source)
	}
	if n := CountNodes(min1.Script); n > 13 {
		t.Errorf("minimized reproducer has %d AST nodes, want <=13:\n%s", n, min1.Source)
	}
	// The shrunken program must still witness the planted bug.
	re := RunEpisode(min1, opts)
	still := false
	for _, d := range re.Divergences {
		if d.Class() == target.Class() {
			still = true
		}
	}
	if !still {
		t.Errorf("minimized program no longer reproduces %s:\n%s", target.Class(), min1.Source)
	}
}

// A saved corpus entry that is still dirty must survive the trip the
// driver's second run takes it on: load, re-run, bucket, minimize. The
// loaded program used to carry its text but no tree, and triage (which
// sizes reproducers by AST nodes) dereferenced nil. An entry that no
// longer parses is skipped and named, not fatal.
func TestCorpusReloadedDirtyEntryIsReported(t *testing.T) {
	ep := findPlanted(t)
	c := Corpus{Dir: t.TempDir()}
	if err := c.SaveEpisode(ep); err != nil {
		t.Fatal(err)
	}
	stale := filepath.Join(c.Dir, "corpus", "seed-stale.sh")
	if err := os.WriteFile(stale, []byte("# seed 0\nif then fi (\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	progs, skipped, err := c.LoadCorpus()
	if err != nil {
		t.Fatal(err)
	}
	if len(skipped) != 1 || !strings.Contains(skipped[0].Error(), "seed-stale.sh") {
		t.Errorf("skipped = %v, want the one stale entry", skipped)
	}
	if len(progs) != 1 {
		t.Fatalf("loaded %d programs, want 1", len(progs))
	}
	p := progs[0]
	p.Fixture = ep.Fixture
	re := RunEpisode(p, plantedOpts())
	if re.Clean() {
		t.Fatalf("reloaded entry no longer diverges:\n%s", p.Source)
	}
	tr := NewTriage()
	if fresh := tr.Add(re); fresh == 0 {
		t.Fatal("reloaded divergence opened no bucket")
	}
	for _, b := range tr.Buckets() {
		if b.ReproNodes != CountNodes(ep.Script) {
			t.Errorf("bucket %s sized the reloaded program at %d nodes, the original has %d",
				b.Sig, b.ReproNodes, CountNodes(ep.Script))
		}
	}
	min := MinimizeDivergence(re, re.Divergences[0], plantedOpts(), 200)
	if n := CountNodes(min.Script); n == 0 || n > CountNodes(ep.Script) {
		t.Errorf("minimized reloaded program has %d nodes (original %d)", n, CountNodes(ep.Script))
	}
}
