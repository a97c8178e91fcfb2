// Command jashbench regenerates the paper's evaluation: every experiment
// in DESIGN.md's index has a subcommand that prints its result table.
//
// Usage:
//
//	jashbench [experiment]
//
// where experiment is one of: fig1, temperature, spell, noregression,
// scaling, incremental, distribution, jitoverhead, datamovement, lint,
// infer, or all (the default).
//
// Measured performance — wall clock, allocation, per-layer timings — is
// not here: `go run ./bench` is the repository's benchmark.
package main

import (
	"fmt"
	"os"

	"jash/internal/bench"
)

var experiments = map[string]func() ([]bench.Row, error){
	"fig1":         func() ([]bench.Row, error) { return bench.Fig1(1 << 20) },
	"temperature":  func() ([]bench.Row, error) { return bench.Temperature(50000) },
	"spell":        func() ([]bench.Row, error) { return bench.Spell(1 << 20) },
	"noregression": bench.NoRegression,
	"scaling":      bench.ScalingWidth,
	"incremental":  func() ([]bench.Row, error) { return bench.Incremental(2 << 20) },
	"distribution": func() ([]bench.Row, error) { return bench.Distribution(2 << 20) },
	"jitoverhead":  func() ([]bench.Row, error) { return bench.JITOverhead(100) },
	"datamovement": func() ([]bench.Row, error) { return bench.DataMovement(4 << 20) },
	"lint":         bench.Lint,
	"infer":        bench.InferAgreement,
	"ablation":     bench.Ablation,
	"all":          bench.All,
}

func main() {
	name := "all"
	if len(os.Args) > 1 {
		name = os.Args[1]
	}
	run, ok := experiments[name]
	if !ok {
		fmt.Fprintf(os.Stderr, "jashbench: unknown experiment %q\navailable:", name)
		for n := range experiments {
			fmt.Fprintf(os.Stderr, " %s", n)
		}
		fmt.Fprintln(os.Stderr)
		os.Exit(2)
	}
	rows, err := run()
	if len(rows) > 0 {
		bench.Print(os.Stdout, rows)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "jashbench: %v\n", err)
		os.Exit(1)
	}
}
