// Package incr is the incremental computation framework §4 of the paper
// sketches: PaSh-style command specifications expose which commands
// process lines independently, and the JIT knows the latest state of a
// script's inputs — together that is enough to avoid re-executing work
// whose inputs did not change.
//
// Two levels of reuse:
//
//   - Memoization: a dataflow region keyed by its canonical script and
//     the digests of its input files replays its cached output when
//     nothing changed (re-running a build/data script verbatim).
//   - Line-level incrementality: when a region is built solely from
//     Stateless commands (each input line processed independently,
//     order-preserving) and an input only *grew*, only the appended
//     suffix is processed and the result appended to the cached output —
//     the log-processing pattern.
//
// Aggregating commands (sort, wc) fall back to full re-execution when
// their inputs change; their cache entries still serve exact re-runs.
package incr

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sync"

	"jash/internal/dfg"
	"jash/internal/exec"
	"jash/internal/spec"
)

// Stats counts cache outcomes.
type Stats struct {
	Hits        int   // full memo hits (nothing re-executed)
	Incremental int   // suffix-only executions
	Misses      int   // full executions
	BytesSaved  int64 // input bytes *not* reprocessed thanks to caching
}

// Cache stores memoized region results. Safe for concurrent use.
type Cache struct {
	mu      sync.Mutex
	entries map[string]*entry
}

type entry struct {
	// inputs maps each input path to what its content was.
	inputs map[string]input
	output []byte
	status int
	// stateless marks entries eligible for suffix incrementality.
	stateless bool
}

// input is what an entry keeps of one input's content: its length and
// digest, never a copy of its bytes.
type input struct {
	size int
	sum  string
}

// NewCache returns an empty cache.
func NewCache() *Cache {
	return &Cache{entries: map[string]*entry{}}
}

// Len reports the number of cached regions.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Runner executes dataflow graphs through the cache.
type Runner struct {
	Cache *Cache
	Stats Stats
}

// NewRunner returns a runner over a fresh cache.
func NewRunner() *Runner {
	return &Runner{Cache: NewCache()}
}

// digest hashes file contents.
func digest(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// digests hashes data in one pass: its digest, and, when 0 <= at <=
// len(data), the digest of data[:at] ("" otherwise).
func digests(data []byte, at int) (sum, prefix string) {
	h := sha256.New()
	if at >= 0 && at <= len(data) {
		h.Write(data[:at])
		prefix = hex.EncodeToString(h.Sum(nil))
		data = data[at:]
	}
	h.Write(data)
	return hex.EncodeToString(h.Sum(nil)), prefix
}

// regionKey identifies a graph by its canonical unparse (stable across
// re-parses of the same script text).
func regionKey(g *dfg.Graph) string {
	return g.Script()
}

// statelessOnly reports whether every processing node is order-preserving
// and line-independent, making suffix incrementality sound.
func statelessOnly(g *dfg.Graph) bool {
	for _, n := range g.Nodes {
		switch n.Kind {
		case dfg.KindCommand:
			if n.Spec == nil || n.Spec.Class != spec.Stateless {
				return false
			}
		case dfg.KindMerge:
			if n.Agg != spec.AggConcat {
				return false
			}
		}
	}
	return true
}

// Run executes the graph with caching. The graph's sink must be stdout
// (Path == "") — file sinks would need output invalidation tracking —
// otherwise it executes uncached. The returned kind is "hit",
// "incremental", or "miss". A failed execution writes none of its
// captured output to env.Stdout.
func (r *Runner) Run(g *dfg.Graph, env *exec.Env) (status int, kind string, err error) {
	sink := g.Sink()
	if sink == nil || sink.Path != "" {
		r.Stats.Misses++
		st, err := exec.Run(g, env)
		return st, "miss", err
	}
	key := regionKey(g)
	r.Cache.mu.Lock()
	ent := r.Cache.entries[key]
	r.Cache.mu.Unlock()
	// Gather current input contents, and hash each once: the whole, and
	// on the way the length the cached entry saw.
	inputs, sums, prefixes := map[string][]byte{}, map[string]input{}, map[string]string{}
	for _, src := range g.Sources() {
		if src.Path == "" {
			// Unknown stdin volume: not cacheable.
			r.Stats.Misses++
			st, err := exec.Run(g, env)
			return st, "miss", err
		}
		data, rerr := env.FS.ReadFile(src.Path)
		if rerr != nil {
			r.Stats.Misses++
			st, err := exec.Run(g, env)
			return st, "miss", err
		}
		at := -1
		if ent != nil {
			if old, ok := ent.inputs[src.Path]; ok {
				at = old.size
			}
		}
		sum, prefix := digests(data, at)
		inputs[src.Path], sums[src.Path], prefixes[src.Path] = data, input{len(data), sum}, prefix
	}

	if ent != nil {
		if match, total := sameDigests(ent, sums); match {
			r.Stats.Hits++
			r.Stats.BytesSaved += total
			if env.Stdout != nil {
				env.Stdout.Write(ent.output)
			}
			return ent.status, "hit", nil
		}
		if ent.stateless {
			if grown, suffixes := onlyAppends(ent, inputs, prefixes); grown {
				return r.runSuffix(g, env, ent, inputs, sums, suffixes)
			}
		}
	}
	// Full execution, capturing output for the cache.
	var buf bytes.Buffer
	subEnv := *env
	subEnv.Stdout = &buf
	st, runErr := exec.Run(g, &subEnv)
	if runErr != nil {
		r.Stats.Misses++
		return st, "miss", runErr
	}
	if env.Stdout != nil {
		env.Stdout.Write(buf.Bytes())
	}
	r.Stats.Misses++
	r.store(key, g, sums, buf.Bytes(), st)
	return st, "miss", nil
}

// store caches a region's output for its inputs, as sums describes them.
func (r *Runner) store(key string, g *dfg.Graph, sums map[string]input, output []byte, status int) {
	ent := &entry{inputs: sums, output: output, status: status, stateless: statelessOnly(g)}
	r.Cache.mu.Lock()
	r.Cache.entries[key] = ent
	r.Cache.mu.Unlock()
}

// sameDigests reports whether every input in sums is the cached one, and
// the total input volume (for the bytes-saved accounting).
func sameDigests(ent *entry, sums map[string]input) (bool, int64) {
	if len(ent.inputs) != len(sums) {
		return false, 0
	}
	var total int64
	for p, in := range sums {
		if ent.inputs[p] != in {
			return false, 0
		}
		total += int64(in.size)
	}
	return true, total
}

// onlyAppends reports whether every changed input merely grew — the digest
// of its first size bytes, in prefixes, is still the cached one — returning
// the appended suffixes.
func onlyAppends(ent *entry, inputs map[string][]byte, prefixes map[string]string) (bool, map[string][]byte) {
	if len(ent.inputs) != len(inputs) {
		return false, nil
	}
	suffixes := map[string][]byte{}
	for p, data := range inputs {
		old, ok := ent.inputs[p]
		if !ok || len(data) < old.size || prefixes[p] != old.sum {
			return false, nil
		}
		// Suffix must start at a line boundary (old content ended in \n,
		// or nothing was appended).
		if old.size > 0 && data[old.size-1] != '\n' && len(data) > old.size {
			return false, nil
		}
		suffixes[p] = data[old.size:]
	}
	return true, suffixes
}

// runSuffix executes the region over only the appended input suffixes and
// appends the result to the cached output.
func (r *Runner) runSuffix(g *dfg.Graph, env *exec.Env, ent *entry, inputs map[string][]byte, sums map[string]input, suffixes map[string][]byte) (int, string, error) {
	// Build a shadow graph whose sources read the suffixes from temp files.
	ng := g.Clone()
	var temps []string
	for _, n := range ng.Nodes {
		if n.Kind != dfg.KindSource || n.Path == "" {
			continue
		}
		tmp := fmt.Sprintf("/.jash-tmp/incr-%s", digest([]byte(n.Path))[:16])
		if err := env.FS.WriteFile(tmp, suffixes[n.Path]); err != nil {
			r.Stats.Misses++
			st, e := exec.Run(g, env)
			return st, "miss", e
		}
		temps = append(temps, tmp)
		n.Path = tmp
	}
	defer func() {
		for _, p := range temps {
			env.FS.Remove(p)
		}
	}()
	var buf bytes.Buffer
	subEnv := *env
	subEnv.Stdout = &buf
	st, err := exec.Run(ng, &subEnv)
	if err != nil {
		r.Stats.Misses++
		st2, e := exec.Run(g, env)
		return st2, "miss", e
	}
	var saved int64
	for p, data := range inputs {
		saved += int64(len(data)) - int64(len(suffixes[p]))
	}
	r.Stats.Incremental++
	r.Stats.BytesSaved += saved
	newOut := append(append([]byte(nil), ent.output...), buf.Bytes()...)
	if env.Stdout != nil {
		env.Stdout.Write(newOut)
	}
	r.store(regionKey(g), g, sums, newOut, st)
	return st, "incremental", nil
}
