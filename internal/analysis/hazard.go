package analysis

import (
	"fmt"
	"sort"

	"jash/internal/dfg"
	"jash/internal/spec"
)

// HazardKind classifies a detected conflict.
type HazardKind int

const (
	// WriteWrite: two concurrent nodes both mutate the same path.
	WriteWrite HazardKind = iota
	// ReadWrite: one concurrent node reads a path another mutates —
	// the read-after-write race (`... f ... | sort >f`).
	ReadWrite
	// TopConflict: a node's ⊤ effect (dynamic path, unknown command)
	// may alias a path another node touches.
	TopConflict
)

var hazardKindNames = [...]string{"write-write", "read-after-write", "may-alias(⊤)"}

func (k HazardKind) String() string { return hazardKindNames[k] }

// Hazard is one conflict between two concurrently-executing parties.
type Hazard struct {
	Kind HazardKind
	// Path is the contended path ("(dynamic)" for ⊤ conflicts).
	Path string
	// A and B label the conflicting parties (node labels or stage
	// indices), A being the writer for ReadWrite hazards.
	A, B string
}

func (h Hazard) String() string {
	return fmt.Sprintf("%s on %s between %s and %s", h.Kind, h.Path, h.A, h.B)
}

// Conflicts computes the hazards between two summaries that would run
// concurrently. Paths must already be normalized to a common directory.
// Concrete-vs-concrete conflicts need the same path; a ⊤ write on either
// side conflicts with any concrete access on the other (but ⊤-vs-⊤ is
// not reported: two unknown commands yield no actionable diagnostic).
func Conflicts(a, b *Summary, aLabel, bLabel string) []Hazard {
	var hs []Hazard
	paths := make([]string, 0, len(a.Paths))
	for p := range a.Paths {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		aOp := a.Paths[p]
		bOp, ok := b.Paths[p]
		if ok {
			switch {
			case aOp.Writes() && bOp.Writes():
				hs = append(hs, Hazard{Kind: WriteWrite, Path: p, A: aLabel, B: bLabel})
			case aOp.Writes() && bOp.Reads():
				hs = append(hs, Hazard{Kind: ReadWrite, Path: p, A: aLabel, B: bLabel})
			case aOp.Reads() && bOp.Writes():
				hs = append(hs, Hazard{Kind: ReadWrite, Path: p, A: bLabel, B: aLabel})
			}
		}
		if b.Unknown.Writes() && (aOp.Reads() || aOp.Writes()) {
			hs = append(hs, Hazard{Kind: TopConflict, Path: p, A: bLabel, B: aLabel})
		}
	}
	if a.Unknown.Writes() {
		bPaths := make([]string, 0, len(b.Paths))
		for p := range b.Paths {
			bPaths = append(bPaths, p)
		}
		sort.Strings(bPaths)
		for _, p := range bPaths {
			if op := b.Paths[p]; op.Reads() || op.Writes() {
				hs = append(hs, Hazard{Kind: TopConflict, Path: p, A: aLabel, B: bLabel})
			}
		}
	}
	return hs
}

// GraphHazards is the JIT preflight: it summarizes every node of a
// translated dataflow graph (sources read their path, sinks write
// theirs, commands per their resolved spec) and reports conflicts
// between any two nodes — in a dataflow plan every node runs
// concurrently. dir resolves relative paths. A clean (nil) result is
// the proof obligation core requires before compiling a region.
func GraphHazards(g *dfg.Graph, lib *spec.Library, dir string) []Hazard {
	type party struct {
		sum   *Summary
		label string
	}
	var parties []party
	for id := 1; id <= g.MaxID(); id++ {
		n := g.Nodes[id]
		if n == nil {
			continue
		}
		var s *Summary
		switch n.Kind {
		case dfg.KindSource:
			s = NewSummary()
			if n.Path == "" {
				s.ReadsStdin = true
			} else {
				s.Touch(n.Path, OpRead)
			}
		case dfg.KindSink:
			s = NewSummary()
			if n.Path == "" {
				s.WritesStdout = true
			} else {
				s.Touch(n.Path, OpWrite|OpCreate)
			}
		case dfg.KindCommand:
			// The translator stripped input operands into Source nodes;
			// what remains in argv is flags and non-file operands — but
			// write-side flags (sort -o) and mutator semantics survive in
			// the argv, and the original operand reads live in the Spec,
			// which is the stage already resolved against lib.
			if n.Spec != nil {
				s = SummarizeResolved(lib, n.Spec)
			} else {
				s = SummarizeArgv(lib, n.Argv)
			}
			// Stream plumbing is the graph's own: drop terminal markers so
			// stdin/stdout don't look shared between command nodes.
			s.ReadsStdin, s.WritesStdout = false, false
			// Reads of source-fed operands are represented by the Source
			// nodes themselves; keeping them here too would double-report
			// each conflict, but removing them would miss spec-less reads,
			// so keep them: duplicates collapse in Dedup below.
		default:
			continue // split/merge touch no files
		}
		if len(s.Paths) == 0 && s.Unknown == 0 {
			continue
		}
		s.normalizeInPlace(dir)
		parties = append(parties, party{s, n.Label()})
	}
	var hs []Hazard
	for i := 0; i < len(parties); i++ {
		for j := i + 1; j < len(parties); j++ {
			hs = append(hs, Conflicts(parties[i].sum, parties[j].sum,
				parties[i].label, parties[j].label)...)
		}
	}
	return Dedup(hs)
}

// Dedup removes hazards that restate the same (kind, path) contention
// with one party in common — e.g. a source node and the command it feeds
// both reading the path a sink clobbers.
func Dedup(hs []Hazard) []Hazard {
	seen := map[string]bool{}
	var out []Hazard
	for _, h := range hs {
		key := fmt.Sprintf("%d|%s", h.Kind, h.Path)
		if seen[key] {
			continue
		}
		seen[key] = true
		out = append(out, h)
	}
	return out
}

// ReplicationHazard reports why a node must not be replicated across
// parallel lanes: N copies of a command that writes a path race on it
// (write-write with itself), and ⊤ writes may do so. A nil error means
// the node's effects are replication-safe (pure stream transformation).
// The summary is built from the node's resolved spec alone, so the
// rewriter can call it without a library handle.
func ReplicationHazard(e *spec.Effective) error {
	if e == nil {
		return fmt.Errorf("analysis: node has no specification")
	}
	s := NewSummary()
	if m, ok := mutators[e.Name]; ok {
		applyMutator(s, m, e.Args)
	}
	if e.Class == spec.SideEffectful && !e.Generator && e.Name != "tee" {
		s.Unknown |= OpWrite | OpCreate | OpRemove
	}
	if s.Unknown.Writes() {
		return fmt.Errorf("analysis: %q may write paths the analysis cannot name (⊤); replicas would race", e.Name)
	}
	for _, p := range SortedNames(s.Paths) {
		if s.Paths[p].Writes() {
			return fmt.Errorf("analysis: %q writes %s; replicas would race on it", e.Name, p)
		}
	}
	return nil
}
