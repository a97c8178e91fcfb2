package spec

import "strings"

// Builtin returns the ground-truth specification library for the hermetic
// coreutils, the equivalent of PaSh's shipped annotation files. CPU
// factors are relative to a plain byte copy (cat = 1). Each spec's argv
// grammar comes from the grammars table, not from its literal here.
func Builtin() *Library {
	l := NewLibrary()
	for _, s := range builtinSpecs() {
		s.Grammar = grammars[s.Name]
		l.Add(s)
	}
	return l
}

func builtinSpecs() []*Spec {
	return []*Spec{
		{
			Name: "cat", Version: "1.0", Class: Stateless, Agg: AggConcat,
			CPUFactor: 1, OutputRatio: 1,
			Summary: "concatenate files to standard output",
			FlagDocs: map[string]string{
				"-n": "number output lines",
			},
			refine: refineCat,
		},
		{
			Name: "tr", Version: "1.0", Class: Stateless, Agg: AggConcat,
			CPUFactor: 2.5, OutputRatio: 1,
			Summary: "translate, squeeze, or delete characters",
			FlagDocs: map[string]string{
				"-c": "complement SET1", "-s": "squeeze repeats", "-d": "delete characters in SET1",
			},
		},
		{
			Name: "grep", Version: "1.0", Class: Stateless, Agg: AggConcat,
			CPUFactor: 3, OutputRatio: 0.5,
			Summary: "print lines matching a pattern",
			FlagDocs: map[string]string{
				"-v": "invert match", "-i": "ignore case", "-c": "count matches",
				"-q": "quiet: status only", "-n": "prefix line numbers", "-F": "fixed-string match",
				"-e": "the pattern, so every operand is a file",
			},
			refine: refineGrep,
		},
		{
			Name: "cut", Version: "1.0", Class: Stateless, Agg: AggConcat,
			CPUFactor: 2, OutputRatio: 0.3,
			Summary: "select character or field columns from each line",
			FlagDocs: map[string]string{
				"-c": "select character positions", "-f": "select fields", "-d": "field delimiter",
			},
			refine: refineCut,
		},
		{
			Name: "sort", Version: "1.0", Class: Parallelizable, Agg: AggMergeSort,
			CPUFactor: 12, OutputRatio: 1,
			Summary: "sort lines of text",
			FlagDocs: map[string]string{
				"-n": "numeric comparison", "-r": "reverse", "-u": "unique output",
				"-m": "merge already-sorted inputs", "-k": "sort key field", "-t": "field separator",
				"-c": "check sortedness", "-o": "write the result to a file",
			},
			refine: refineSort,
		},
		{
			Name: "uniq", Version: "1.0", Class: Blocking, Agg: AggNone,
			CPUFactor: 2, OutputRatio: 0.8,
			Summary: "filter adjacent duplicate lines (boundary-crossing: not splittable)",
			FlagDocs: map[string]string{
				"-c": "prefix repetition counts", "-d": "only duplicated lines", "-u": "only unique lines",
			},
		},
		{
			Name: "wc", Version: "1.0", Class: Parallelizable, Agg: AggSum,
			CPUFactor: 2, OutputRatio: 0.000001,
			Summary: "count lines, words, and bytes",
			FlagDocs: map[string]string{
				"-l": "lines only", "-w": "words only", "-c": "bytes only",
			},
			refine: refineWc,
		},
		{
			Name: "head", Version: "1.0", Class: Blocking, Agg: AggNone,
			CPUFactor: 1, OutputRatio: 0.01,
			Summary: "output the first lines (a global prefix: not splittable)",
			FlagDocs: map[string]string{
				"-n": "line count", "-c": "byte count",
			},
		},
		{
			Name: "tail", Version: "1.0", Class: Blocking, Agg: AggNone,
			CPUFactor: 1, OutputRatio: 0.01,
			Summary: "output the last lines (a global suffix: not splittable)",
		},
		{
			Name: "sed", Version: "1.0", Class: Stateless, Agg: AggConcat,
			CPUFactor: 4, OutputRatio: 1,
			Summary: "stream editor (s///, d, p, q subset)",
			refine:  refineSed,
		},
		{
			Name: "awk", Version: "1.0", Class: Stateless, Agg: AggConcat,
			CPUFactor: 5, OutputRatio: 0.8,
			Summary: "pattern scanning and processing",
			refine:  refineAwk,
		},
		{
			Name: "comm", Version: "1.0", Class: Blocking, Agg: AggNone,
			CPUFactor: 2, OutputRatio: 0.5,
			Summary: "compare two sorted files line by line",
			FlagDocs: map[string]string{
				"-1": "suppress column 1", "-2": "suppress column 2", "-3": "suppress column 3",
			},
		},
		{
			Name: "join", Version: "1.0", Class: Blocking, Agg: AggNone,
			CPUFactor: 3, OutputRatio: 1,
			Summary: "relational join of two sorted files",
		},
		{
			Name: "shuf", Version: "1.0", Class: Blocking, Agg: AggNone,
			CPUFactor: 3, OutputRatio: 1,
			Summary: "random permutation of input lines",
		},
		{
			Name: "paste", Version: "1.0", Class: Blocking, Agg: AggNone,
			CPUFactor: 2, OutputRatio: 1,
			Summary: "merge corresponding lines of files",
		},
		{
			Name: "rev", Version: "1.0", Class: Stateless, Agg: AggConcat,
			CPUFactor: 2, OutputRatio: 1,
			Summary: "reverse each line",
		},
		{
			Name: "fold", Version: "1.0", Class: Stateless, Agg: AggConcat,
			CPUFactor: 1.5, OutputRatio: 1.05,
			Summary: "wrap lines to a width",
		},
		{
			Name: "nl", Version: "1.0", Class: Blocking, Agg: AggNone,
			CPUFactor: 1.5, OutputRatio: 1.1,
			Summary: "number lines (global counter: not splittable)",
		},
		{
			Name: "tee", Version: "1.0", Class: SideEffectful, Agg: AggNone,
			CPUFactor: 1, OutputRatio: 1,
			Summary: "copy stdin to stdout and files (writes the filesystem)",
		},
		{
			Name: "xargs", Version: "1.0", Class: SideEffectful, Agg: AggNone,
			CPUFactor: 2, OutputRatio: 1,
			Summary: "build and run command lines (arbitrary side effects)",
		},
		{
			Name: "seq", Version: "1.0", Class: SideEffectful, Agg: AggNone,
			Generator: true, CPUFactor: 1, OutputRatio: 1,
			Summary: "print a numeric sequence (generator, no input)",
		},
		{
			Name: "echo", Version: "1.0", Class: SideEffectful, Agg: AggNone,
			Generator: true, CPUFactor: 1, OutputRatio: 1,
			Summary: "print arguments (generator, no input)",
		},
		{
			Name: "wc-sum-helper", Version: "1.0", Class: Blocking, Agg: AggNone,
			CPUFactor: 1, OutputRatio: 1,
			Summary: "internal: sums numeric columns of partial wc outputs",
		},
		{
			Name: "tac", Version: "1.0", Class: Blocking, Agg: AggNone,
			CPUFactor: 2, OutputRatio: 1,
			Summary: "print lines in reverse order (whole-input)",
		},
		{
			Name: "expand", Version: "1.0", Class: Stateless, Agg: AggConcat,
			CPUFactor: 1.5, OutputRatio: 1.1,
			Summary: "convert tabs to spaces",
		},
		{
			Name: "unexpand", Version: "1.0", Class: Stateless, Agg: AggConcat,
			CPUFactor: 1.5, OutputRatio: 0.95,
			Summary: "convert leading spaces to tabs",
		},
		{
			Name: "tsort", Version: "1.0", Class: Blocking, Agg: AggNone,
			CPUFactor: 3, OutputRatio: 0.5,
			Summary: "topological sort of a partial order",
		},
	}
}

// demote marks an invocation that needs its whole input in order.
func demote(e *Effective) {
	e.Class = Blocking
	e.Agg = AggNone
}

// exclude keeps an invocation out of dataflow translation altogether.
func exclude(e *Effective) {
	e.Class = SideEffectful
	e.Agg = AggNone
}

// refineCat: -n numbers lines with a single counter across the whole
// input, so a chunked run restarts the count per chunk. Found by the
// differential fuzzer (walk↔aot stdout divergence).
func refineCat(e *Effective) {
	if e.Parsed.Has('n') {
		demote(e) // global line numbers
	}
}

// refineCut: an invocation with neither -c nor -f is invalid (cut needs a
// selection mode); like an argv the scanner rejects it must stay
// sequential so the diagnostic appears once and the failure is not masked
// by the merge.
func refineCut(e *Effective) {
	if !e.Parsed.Has('c') && !e.Parsed.Has('f') {
		exclude(e)
	}
}

// refineGrep adjusts grep's classification for flags: -c becomes
// Parallelizable with a sum aggregator; -q/-n need global context.
func refineGrep(e *Effective) {
	for _, f := range e.Parsed.Flags {
		switch f.Letter {
		case 'c':
			e.Class = Parallelizable
			e.Agg = AggSum
			e.OutputRatio = 0.000001
		case 'q': // early-exit semantics
			demote(e)
		case 'n': // global line numbers
			demote(e)
		}
	}
}

// refineWc: with explicit file operands, wc prints one row per file with
// its name (plus a total row), so the output is no longer a bare sum of
// per-chunk counts — and the executor feeds materialized ports under
// temporary names, which would corrupt the printed names. Marking it
// SideEffectful aborts dataflow translation entirely (a Blocking node
// would still enter the graph and get temp-named ports); stdin-only wc
// stays a parallel sum.
func refineWc(e *Effective) {
	if len(e.InputFiles) > 0 {
		exclude(e)
	}
}

// refineSort: -m is already a merge (stateless pass, cheap); -c checks;
// -o writes a named file, which nothing may replicate or reorder.
func refineSort(e *Effective) {
	for _, f := range e.Parsed.Flags {
		switch f.Letter {
		case 'm': // merging is already the aggregation step
			demote(e)
			e.CPUFactor = 2
		case 'c':
			demote(e)
		}
	}
	if e.Parsed.Has('o') {
		exclude(e)
	}
}

// refineSed demotes scripts with line-number or last-line addresses (2d,
// $p) and q: those depend on global positions.
func refineSed(e *Effective) {
	for _, script := range e.Parsed.Scripts() {
		for _, cmd := range strings.Split(script, ";") {
			cmd = strings.TrimSpace(cmd)
			if cmd == "" {
				continue
			}
			if cmd[0] >= '0' && cmd[0] <= '9' || cmd[0] == '$' ||
				strings.Contains(cmd, "q") && !strings.HasPrefix(cmd, "s") {
				demote(e)
				return
			}
		}
	}
}

// refineAwk demotes programs that use cross-line state: NR, BEGIN/END
// accumulation, variable assignment (x = ...), or next.
func refineAwk(e *Effective) {
	prog := e.Parsed.Scripts()[0]
	for _, marker := range []string{"NR", "BEGIN", "END", "next", "+=", "-=", "*=", "/="} {
		if strings.Contains(prog, marker) {
			demote(e)
			return
		}
	}
	if containsAssignment(prog) {
		demote(e)
	}
}

// containsAssignment detects `ident =` not part of == / != / <= / >=.
func containsAssignment(prog string) bool {
	for i := 0; i < len(prog); i++ {
		if prog[i] != '=' {
			continue
		}
		if i+1 < len(prog) && prog[i+1] == '=' {
			i++
			continue
		}
		if i > 0 {
			switch prog[i-1] {
			case '=', '!', '<', '>', '~':
				continue
			}
		}
		return true
	}
	return false
}
