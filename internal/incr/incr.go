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
	"context"
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
	// digests maps each input path to the content digest it had.
	digests map[string]string
	// contents keeps raw inputs for stateless suffix detection.
	contents map[string][]byte
	output   []byte
	status   int
	// stateless marks entries eligible for suffix incrementality.
	stateless bool
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
// "incremental", or "miss".
func (r *Runner) Run(g *dfg.Graph, env *exec.Env) (status int, kind string, err error) {
	return r.RunContext(context.Background(), g, env)
}

// RunContext is Run under a cancellation context, threaded through to the
// underlying executor. A failed execution never writes captured output to
// env.Stdout, and resets Metrics.SinkBytes to the bytes that actually
// reached the caller (zero), so a fault-tolerant caller can always fall
// back to re-running the region another way.
func (r *Runner) RunContext(ctx context.Context, g *dfg.Graph, env *exec.Env) (status int, kind string, err error) {
	sink := g.Sink()
	if sink == nil || sink.Path != "" {
		r.Stats.Misses++
		st, err := exec.RunContext(ctx, g, env)
		return st, "miss", err
	}
	// Gather current input contents.
	inputs := map[string][]byte{}
	for _, src := range g.Sources() {
		if src.Path == "" {
			// Unknown stdin volume: not cacheable.
			r.Stats.Misses++
			st, err := exec.RunContext(ctx, g, env)
			return st, "miss", err
		}
		data, rerr := env.FS.ReadFile(src.Path)
		if rerr != nil {
			r.Stats.Misses++
			st, err := exec.RunContext(ctx, g, env)
			return st, "miss", err
		}
		inputs[src.Path] = data
	}
	key := regionKey(g)
	r.Cache.mu.Lock()
	ent := r.Cache.entries[key]
	r.Cache.mu.Unlock()

	if ent != nil {
		if match, total := sameDigests(ent, inputs); match {
			r.Stats.Hits++
			r.Stats.BytesSaved += total
			if env.Stdout != nil {
				env.Stdout.Write(ent.output)
			}
			return ent.status, "hit", nil
		}
		if ent.stateless {
			if grown, suffixes := onlyAppends(ent, inputs); grown {
				return r.runSuffix(ctx, g, env, ent, inputs, suffixes)
			}
		}
	}
	// Full execution, capturing output for the cache.
	var buf bytes.Buffer
	subEnv := *env
	subEnv.Stdout = &buf
	st, runErr := exec.RunContext(ctx, g, &subEnv)
	if runErr != nil {
		// The captured output is discarded, so nothing reached the
		// caller's stdout: report zero sink bytes for the fallback rule.
		if env.Metrics != nil {
			env.Metrics.SinkBytes = 0
		}
		r.Stats.Misses++
		return st, "miss", runErr
	}
	if env.Stdout != nil {
		env.Stdout.Write(buf.Bytes())
	}
	r.Stats.Misses++
	r.store(key, g, inputs, buf.Bytes(), st)
	return st, "miss", nil
}

func (r *Runner) store(key string, g *dfg.Graph, inputs map[string][]byte, output []byte, status int) {
	ent := &entry{
		digests:   map[string]string{},
		contents:  map[string][]byte{},
		output:    append([]byte(nil), output...),
		status:    status,
		stateless: statelessOnly(g),
	}
	for p, data := range inputs {
		ent.digests[p] = digest(data)
		ent.contents[p] = append([]byte(nil), data...)
	}
	r.Cache.mu.Lock()
	r.Cache.entries[key] = ent
	r.Cache.mu.Unlock()
}

// sameDigests reports whether every input matches the cached digest, and
// the total input volume (for the bytes-saved accounting).
func sameDigests(ent *entry, inputs map[string][]byte) (bool, int64) {
	if len(ent.digests) != len(inputs) {
		return false, 0
	}
	var total int64
	for p, data := range inputs {
		if ent.digests[p] != digest(data) {
			return false, 0
		}
		total += int64(len(data))
	}
	return true, total
}

// onlyAppends reports whether every changed input merely grew, returning
// the appended suffixes.
func onlyAppends(ent *entry, inputs map[string][]byte) (bool, map[string][]byte) {
	if len(ent.contents) != len(inputs) {
		return false, nil
	}
	suffixes := map[string][]byte{}
	for p, data := range inputs {
		old, ok := ent.contents[p]
		if !ok || len(data) < len(old) || !bytes.HasPrefix(data, old) {
			return false, nil
		}
		// Suffix must start at a line boundary (old content ended in \n,
		// or nothing was appended).
		if len(old) > 0 && old[len(old)-1] != '\n' && len(data) > len(old) {
			return false, nil
		}
		suffixes[p] = data[len(old):]
	}
	return true, suffixes
}

// runSuffix executes the region over only the appended input suffixes and
// appends the result to the cached output.
func (r *Runner) runSuffix(ctx context.Context, g *dfg.Graph, env *exec.Env, ent *entry, inputs, suffixes map[string][]byte) (int, string, error) {
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
			st, e := exec.RunContext(ctx, g, env)
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
	st, err := exec.RunContext(ctx, ng, &subEnv)
	if err != nil {
		r.Stats.Misses++
		st2, e := exec.RunContext(ctx, g, env)
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
	// Update the cache in place.
	key := regionKey(g)
	nent := &entry{
		digests:   map[string]string{},
		contents:  map[string][]byte{},
		output:    newOut,
		status:    st,
		stateless: true,
	}
	for p, data := range inputs {
		nent.digests[p] = digest(data)
		nent.contents[p] = append([]byte(nil), data...)
	}
	r.Cache.mu.Lock()
	r.Cache.entries[key] = nent
	r.Cache.mu.Unlock()
	return st, "incremental", nil
}
