// Package spec implements the PaSh/POSH-style command specification
// language (the paper's E2): per-command annotations that classify how a
// command interacts with its input stream, whether it can be data-
// parallelized, and how partial outputs recombine. Specifications are
// written once per command (and version), can be serialized to JSON and
// shared as libraries, and are consumed by the dataflow translator, the
// rewriter, the cost model, the linter, and the inference engine.
package spec

import (
	"encoding/json"
	"fmt"
	"sort"
	"sync"
)

// Class is a command's dataflow-parallelism classification.
type Class int

const (
	// Stateless commands map each input line independently and preserve
	// order: tr, grep, cut, simple sed/awk. Splitting the input into
	// consecutive chunks and concatenating the outputs in order is an
	// identity transformation.
	Stateless Class = iota
	// Parallelizable commands are pure functions of their whole input that
	// admit a known aggregator over partial results: sort (merge with
	// sort -m), wc (sum the counters).
	Parallelizable
	// Blocking commands need their entire input (or its global structure)
	// before producing correct output and have no aggregator: uniq
	// (boundary-crossing), head/tail (global positions), shuf, comm, join.
	Blocking
	// SideEffectful commands write to the filesystem or otherwise mutate
	// state: rm, mv, tee, mkdir, xargs. The optimizer must not replicate
	// or reorder them.
	SideEffectful
)

var classNames = [...]string{"stateless", "parallelizable", "blocking", "side-effectful"}

func (c Class) String() string {
	if int(c) < len(classNames) {
		return classNames[c]
	}
	return fmt.Sprintf("class(%d)", int(c))
}

// MarshalJSON serializes the class by name.
func (c Class) MarshalJSON() ([]byte, error) { return json.Marshal(c.String()) }

// UnmarshalJSON parses a class name.
func (c *Class) UnmarshalJSON(data []byte) error {
	var s string
	if err := json.Unmarshal(data, &s); err != nil {
		return err
	}
	for i, name := range classNames {
		if name == s {
			*c = Class(i)
			return nil
		}
	}
	return fmt.Errorf("unknown class %q", s)
}

// AggKind says how partial outputs of a parallelized command recombine.
type AggKind int

const (
	// AggConcat concatenates partial outputs in input order (stateless
	// commands over consecutive chunks).
	AggConcat AggKind = iota
	// AggMergeSort merges sorted partial outputs with `sort -m`, carrying
	// the original sort flags.
	AggMergeSort
	// AggSum sums whitespace-separated numeric columns (wc, grep -c).
	AggSum
	// AggNone marks commands with no aggregator.
	AggNone
)

var aggNames = [...]string{"concat", "merge-sort", "sum", "none"}

func (a AggKind) String() string { return aggNames[a] }

// MarshalJSON serializes the aggregator kind by name.
func (a AggKind) MarshalJSON() ([]byte, error) { return json.Marshal(a.String()) }

// UnmarshalJSON parses an aggregator kind.
func (a *AggKind) UnmarshalJSON(data []byte) error {
	var s string
	if err := json.Unmarshal(data, &s); err != nil {
		return err
	}
	for i, name := range aggNames {
		if name == s {
			*a = AggKind(i)
			return nil
		}
	}
	return fmt.Errorf("unknown aggregator %q", s)
}

// Spec is one command's specification, the unit PaSh-style libraries
// share. Refine hooks (registered in Go) adjust the classification for
// specific argument vectors — e.g. `grep -c` switches from Stateless to
// Parallelizable-with-sum.
type Spec struct {
	// Name and Version identify the command this spec describes.
	Name    string `json:"name"`
	Version string `json:"version"`
	// Class is the command's default classification.
	Class Class `json:"class"`
	// Agg is the default aggregator for Parallelizable commands.
	Agg AggKind `json:"aggregator"`
	// Grammar is how the command's argv is cut up (see Scan). Builtin
	// specs take it from the one table the utilities also parse with.
	Grammar
	// Generator marks commands that read no input at all (seq, echo).
	Generator bool `json:"generator,omitempty"`
	// CPUFactor is the relative per-byte CPU cost (1.0 = pass-through
	// copy; sort ≈ 12). Calibrated against the in-process coreutils.
	CPUFactor float64 `json:"cpu_factor"`
	// OutputRatio estimates output bytes per input byte.
	OutputRatio float64 `json:"output_ratio"`
	// Summary is a one-line human description, used by jashexplain.
	Summary string `json:"summary,omitempty"`
	// FlagDocs maps flags to their meaning, used by jashexplain.
	FlagDocs map[string]string `json:"flag_docs,omitempty"`

	// refine, when non-nil, adjusts the effective spec for the scanned
	// argv (e.Parsed).
	refine func(e *Effective)
}

// Effective is a Spec resolved against a concrete argument vector.
type Effective struct {
	Spec
	// Args is the argv the spec was resolved against (args[0] = name).
	Args []string
	// Parsed is Args as the command's grammar scans it; zero for commands
	// whose operands are not inputs and for an argv the scanner rejects.
	Parsed Parsed
	// InputFiles are the operands that name input files ("-" = stdin).
	// Because options precede operands they are always the tail of Args:
	// Args[Parsed.First:].
	InputFiles []string
	// ReadsStdin reports whether the invocation reads standard input.
	ReadsStdin bool
	// Excluded is why the invocation is kept out of dataflow translation
	// (the scanner's or the script parser's error, or a fixed policy),
	// nil unless it is.
	Excluded error
}

// ArgvWithoutInputs returns a copy of Args with the input-file operands
// removed — what a dataflow node runs, since the executor feeds it
// streams — keeping options and a script operand (grep's pattern) in
// place.
func (e *Effective) ArgvWithoutInputs() []string {
	n := len(e.Args)
	if len(e.InputFiles) > 0 {
		n = e.Parsed.First
	}
	return append([]string(nil), e.Args[:n]...)
}

// Parallelizable reports whether the effective command can be split.
func (e *Effective) Parallelizable() bool {
	return e.Class == Stateless || e.Class == Parallelizable
}

// Library is a set of specs, keyed by command name.
type Library struct {
	mu    sync.RWMutex
	specs map[string]*Spec
}

// NewLibrary returns an empty library.
func NewLibrary() *Library {
	return &Library{specs: map[string]*Spec{}}
}

// Add installs (or replaces) a spec.
func (l *Library) Add(s *Spec) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.specs[s.Name] = s
}

// Lookup returns the spec for a command name.
func (l *Library) Lookup(name string) (*Spec, bool) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	s, ok := l.specs[name]
	return s, ok
}

// Names lists the commands the library covers, sorted.
func (l *Library) Names() []string {
	l.mu.RLock()
	defer l.mu.RUnlock()
	names := make([]string, 0, len(l.specs))
	for n := range l.specs {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Resolve classifies a concrete command invocation. Unknown commands get
// a conservative SideEffectful spec — the optimizer must leave them alone
// (the paper's B1: arbitrary commands have arbitrary behaviors).
func (l *Library) Resolve(args []string) *Effective {
	if len(args) == 0 {
		return &Effective{Spec: Spec{Name: "", Class: SideEffectful, Agg: AggNone, CPUFactor: 1, OutputRatio: 1}}
	}
	s, ok := l.Lookup(args[0])
	if !ok {
		return &Effective{
			Spec: Spec{Name: args[0], Class: SideEffectful, Agg: AggNone, CPUFactor: 1, OutputRatio: 1},
			Args: args,
		}
	}
	e := &Effective{Spec: *s, Args: args}
	if !s.OperandsAreInputs {
		e.ReadsStdin = !s.Generator
		return e
	}
	p, err := s.Scan(args)
	if err != nil {
		// What the planner cannot read it may not parallelize: the
		// sequential path prints the utility's one diagnostic.
		exclude(e, err)
		e.ReadsStdin = true
		return e
	}
	e.Parsed, e.InputFiles = p, p.Operands
	e.ReadsStdin = len(e.InputFiles) == 0
	for _, f := range e.InputFiles {
		if f == "-" {
			e.ReadsStdin = true
		}
	}
	if s.refine != nil {
		s.refine(e)
	}
	return e
}

// MarshalJSON serializes the whole library.
func (l *Library) MarshalJSON() ([]byte, error) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	names := make([]string, 0, len(l.specs))
	for n := range l.specs {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]*Spec, 0, len(names))
	for _, n := range names {
		out = append(out, l.specs[n])
	}
	return json.MarshalIndent(out, "", "  ")
}

// LoadJSON merges serialized specs into the library. Refine hooks cannot
// cross the serialization boundary; loaded specs keep hooks already
// registered under the same name.
func (l *Library) LoadJSON(data []byte) error {
	var specs []*Spec
	if err := json.Unmarshal(data, &specs); err != nil {
		return err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, s := range specs {
		if old, ok := l.specs[s.Name]; ok {
			s.refine = old.refine
		}
		l.specs[s.Name] = s
	}
	return nil
}
