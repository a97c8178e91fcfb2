package cost

// Command-list region sizing. The list parallelizer (rewrite.ParallelizeList)
// and the shell's region runner (package core) share these knobs so the
// trace's account of a region decision matches what actually ran.
const (
	// MinListStatements is the smallest run of provably independent
	// statements worth running concurrently: a "region" of one statement
	// is just the statement, and spawning a worker for it only adds
	// orchestration overhead.
	MinListStatements = 2
)

// ListRegionWidth returns how many statement workers a concurrent region
// should use: one per statement up to the machine's core count, never
// fewer than one. Unlike pipeline lanes (which split one stream), list
// workers each carry a whole statement, so there is no benefit to more
// workers than statements.
func ListRegionWidth(statements, cores int) int {
	w := statements
	if cores < w {
		w = cores
	}
	if w < 1 {
		w = 1
	}
	return w
}
