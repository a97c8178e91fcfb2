package analysis

import (
	"testing"

	"jash/internal/spec"
)

// opsOf summarizes an argv and returns the per-path ops.
func opsOf(t *testing.T, argv ...string) *Summary {
	t.Helper()
	return SummarizeArgv(spec.Builtin(), argv)
}

// --- mutator table audit: commands that used to fall to ⊤ ---

func TestLnEffects(t *testing.T) {
	s := opsOf(t, "ln", "/src", "/link")
	if s.Paths["/src"]&OpRead == 0 {
		t.Errorf("hard link source not read: %v", s.Paths)
	}
	if s.Paths["/link"] != OpCreate {
		t.Errorf("ln without -f must create the link and nothing else: %v", s.Paths)
	}
	if s.Unknown != 0 {
		t.Errorf("ln fell to ⊤: %v", s.Unknown)
	}
	// -s: symlinks never read the source inode.
	s = opsOf(t, "ln", "-s", "/src", "/link")
	if op, ok := s.Paths["/src"]; ok && op&OpRead != 0 {
		t.Errorf("symlink source read: %v", s.Paths)
	}
	// -f: replaces an existing target.
	s = opsOf(t, "ln", "-f", "/src", "/link")
	if s.Paths["/link"] != OpCreate|OpWrite {
		t.Errorf("ln -f must create or overwrite the link: %v", s.Paths)
	}
}

func TestDdEffects(t *testing.T) {
	s := opsOf(t, "dd", "if=/in", "of=/out")
	if s.Paths["/in"] != OpRead {
		t.Errorf("if= not a read: %v", s.Paths)
	}
	if s.Paths["/out"]&(OpWrite|OpCreate) != OpWrite|OpCreate {
		t.Errorf("of= not a write: %v", s.Paths)
	}
	if s.ReadsStdin || s.WritesStdout {
		t.Errorf("dd with both files should not touch std streams")
	}
	if s.Unknown != 0 {
		t.Errorf("dd fell to ⊤: %v", s.Unknown)
	}
	// Without of=/if= the streams take over.
	s = opsOf(t, "dd", "if=/in")
	if !s.WritesStdout || s.ReadsStdin {
		t.Errorf("dd if= only: stdout=%v stdin=%v", s.WritesStdout, s.ReadsStdin)
	}
	s = opsOf(t, "dd", "of=/out")
	if !s.ReadsStdin || s.WritesStdout {
		t.Errorf("dd of= only: stdout=%v stdin=%v", s.WritesStdout, s.ReadsStdin)
	}
}

func TestTruncateEffects(t *testing.T) {
	s := opsOf(t, "truncate", "-s", "0", "/f")
	if s.Paths["/f"] != OpWrite|OpCreate {
		t.Errorf("truncate -s 0: %v", s.Paths)
	}
	if s.Unknown != 0 {
		t.Errorf("truncate fell to ⊤: %v", s.Unknown)
	}
	// -c: never creates.
	if opsOf(t, "truncate", "-c", "-s", "0", "/f").Paths["/f"]&OpCreate != 0 {
		t.Errorf("truncate -c should not create")
	}
}

func TestInstallEffects(t *testing.T) {
	s := opsOf(t, "install", "-m", "755", "/src", "/dst")
	if s.Paths["/src"] != OpRead || s.Paths["/dst"]&(OpWrite|OpCreate) == 0 {
		t.Errorf("install cp-shape: %v", s.Paths)
	}
	if s.Unknown != 0 {
		t.Errorf("install fell to ⊤: %v", s.Unknown)
	}
	s = opsOf(t, "install", "-d", "/d1", "/d2")
	for _, p := range []string{"/d1", "/d2"} {
		if s.Paths[p] != OpCreate {
			t.Errorf("install -d %s: %v", p, s.Paths[p])
		}
	}
}

func TestSplitEffects(t *testing.T) {
	// The read side is precise; the chunk writes stay ⊤ (names depend on
	// input size).
	s := opsOf(t, "split", "-l", "100", "/in")
	if s.Paths["/in"] != OpRead {
		t.Errorf("split input not read: %v", s.Paths)
	}
	if s.Unknown&(OpWrite|OpCreate) != OpWrite|OpCreate {
		t.Errorf("split chunk writes must stay ⊤: %v", s.Unknown)
	}
	if !opsOf(t, "split").ReadsStdin {
		t.Errorf("split with no operand reads stdin")
	}
}

func TestConcretizedMergesThroughUnionAndNormalize(t *testing.T) {
	a := NewSummary()
	a.Concretized = 2
	a.Witnesses = []string{"$f ⇒ /a"}
	b := NewSummary()
	b.Concretized = 1
	b.Witnesses = []string{"$g ⇒ /b"}
	a.Union(b)
	if a.Concretized != 3 || len(a.Witnesses) != 2 {
		t.Errorf("Union lost concretization: %d %v", a.Concretized, a.Witnesses)
	}
	n := a.Normalize("/")
	if n.Concretized != 3 || len(n.Witnesses) != 2 {
		t.Errorf("Normalize lost concretization: %d %v", n.Concretized, n.Witnesses)
	}
}
