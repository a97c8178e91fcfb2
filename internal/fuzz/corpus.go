package fuzz

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"jash/internal/syntax"
)

// Corpus persists fuzzing artifacts on the host filesystem:
//
//	<dir>/corpus/seed-<n>.sh        programs that ever diverged (pre-fix
//	                                regression food for future runs)
//	<dir>/crashes/<slug>/repro.sh   smallest reproducer for one signature
//	<dir>/crashes/<slug>/meta.txt   signature, seeds, divergence detail
//
// Everything is plain text so a failing CI run can upload the directory
// and a human can replay any entry with `jashfuzz -replay <file>`.
type Corpus struct {
	Dir string
}

// SaveEpisode records a diverging episode's program into the corpus.
func (c Corpus) SaveEpisode(ep *Episode) error {
	if c.Dir == "" {
		return nil
	}
	dir := filepath.Join(c.Dir, "corpus")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	name := fmt.Sprintf("seed-%d.sh", ep.Seed)
	body := fmt.Sprintf("# seed %d — %d divergence(s)\n%s", ep.Seed, len(ep.Divergences), ep.Source)
	return os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644)
}

// SaveBuckets writes one crash directory per triage bucket, preferring
// the minimized reproducer when the minimizer has run.
func (c Corpus) SaveBuckets(t *Triage) error {
	if c.Dir == "" {
		return nil
	}
	for _, b := range t.Buckets() {
		dir := filepath.Join(c.Dir, "crashes", slug(b.Sig))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
		repro := b.Minimized
		if repro == "" {
			repro = b.Repro
		}
		if err := os.WriteFile(filepath.Join(dir, "repro.sh"), []byte(repro), 0o644); err != nil {
			return err
		}
		var meta strings.Builder
		fmt.Fprintf(&meta, "signature: %s\nkind: %s\ncount: %d\ndetail: %s\n",
			b.Sig, b.Kind, b.Count, b.Detail)
		fmt.Fprintf(&meta, "repro-seed: %d\nrepro-nodes: %d\n", b.ReproSeed, b.ReproNodes)
		if b.Minimized != "" {
			fmt.Fprintf(&meta, "minimized-nodes: %d\n", b.MinimizedNodes)
		}
		seeds := make([]string, len(b.Seeds))
		for i, s := range b.Seeds {
			seeds[i] = fmt.Sprint(s)
		}
		fmt.Fprintf(&meta, "seeds: %s\n", strings.Join(seeds, " "))
		if err := os.WriteFile(filepath.Join(dir, "meta.txt"), []byte(meta.String()), 0o644); err != nil {
			return err
		}
	}
	return nil
}

// LoadCorpus returns the persisted corpus programs, sorted by filename,
// so a soak run can replay past divergences before exploring new seeds.
// Each program is parsed on load — triage and the minimizer work on the
// tree, not the text. An entry that no longer parses (the grammar moved
// under it) is returned in skipped, one error per file, and is not fatal.
func (c Corpus) LoadCorpus() (progs []Program, skipped []error, err error) {
	if c.Dir == "" {
		return nil, nil, nil
	}
	dir := filepath.Join(c.Dir, "corpus")
	entries, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil, nil
		}
		return nil, nil, err
	}
	names := []string{}
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".sh") {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	for _, name := range names {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			return nil, nil, err
		}
		src := stripComments(string(data))
		if strings.TrimSpace(src) == "" {
			continue
		}
		sc, err := syntax.Parse(src)
		if err != nil {
			skipped = append(skipped, fmt.Errorf("%s: %w", name, err))
			continue
		}
		progs = append(progs, Program{Script: sc, Source: src})
	}
	return progs, skipped, nil
}

// stripComments removes full-line comments (the corpus header); the shell
// grammar here has no comment syntax, so they must not reach the parser.
func stripComments(src string) string {
	var b strings.Builder
	for _, line := range strings.Split(src, "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "#") {
			continue
		}
		b.WriteString(line)
		b.WriteByte('\n')
	}
	return strings.TrimRight(b.String(), "\n") + "\n"
}

// slug converts a triage signature into a filesystem-safe directory name.
func slug(sig string) string {
	var b strings.Builder
	for _, r := range sig {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '-', r == '.':
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	s := b.String()
	if len(s) > 120 {
		s = s[:120]
	}
	return s
}
