// Package jash is a reproduction of "Unix Shell Programming: The Next 50
// Years" (HotOS '21): a POSIX shell with a JIT, resource-aware pipeline
// optimizer, built on a from-scratch parser (the libdash role), a
// Smoosh-style evaluator, hermetic in-process coreutils, a PaSh-style
// command-specification library, a dataflow graph rewriter, and a
// cost-aware storage/CPU model.
//
// This package is the public façade: it re-exports the pieces a
// downstream user composes. The quickstart:
//
//	fs := jash.NewFS()
//	fs.WriteFile("/data", []byte("b\na\n"))
//	sh := jash.NewShell(fs, jash.LaptopProfile(), jash.ModeJash)
//	sh.Interp.Stdout = os.Stdout
//	status, err := sh.Run("cat /data | sort\n")
//
// Subsystems with richer APIs are importable directly:
//
//	jash/internal/syntax   parser / AST / printer (libdash)
//	jash/internal/expand   word expansion + purity analysis (Smoosh)
//	jash/internal/interp   the evaluator
//	jash/internal/dfg      dataflow graphs
//	jash/internal/rewrite  parallelizing rewriter + planners
//	jash/internal/cost     the resource-aware cost model
//	jash/internal/incr     incremental (memoized) execution
//	jash/internal/cluster  distributed placement-aware execution
//	jash/internal/lint     ShellCheck-style analyses
//	jash/internal/infer    black-box spec inference
//	jash/internal/paperfig the paper's figures; `go test -v` prints them
package jash

import (
	"jash/internal/core"
	"jash/internal/cost"
	"jash/internal/infer"
	"jash/internal/lint"
	"jash/internal/spec"
	"jash/internal/vfs"
)

// Mode selects the optimization strategy.
type Mode = core.Mode

// The three systems Figure 1 compares.
const (
	// ModeBash interprets every command, never optimizing.
	ModeBash = core.ModeBash
	// ModePaSh applies the ahead-of-time PaSh plan to every pipeline.
	ModePaSh = core.ModePaSh
	// ModeJash applies the JIT, resource-aware, cost-budgeted plan.
	ModeJash = core.ModeJash
)

// Shell is a Jash session; see core.Shell.
type Shell = core.Shell

// Decision is one JIT interposition outcome.
type Decision = core.Decision

// FS is the hermetic virtual filesystem shells run over.
type FS = vfs.FS

// Profile describes the machine (cores + storage devices) plans are
// costed against.
type Profile = cost.Profile

// NewFS returns an empty virtual filesystem.
func NewFS() *FS { return vfs.New() }

// NewShell creates a shell over fs with the given resource profile and
// optimization mode.
func NewShell(fs *FS, profile *Profile, mode Mode) *Shell {
	return core.New(fs, profile, mode)
}

// LaptopProfile is a 4-core machine with unconstrained local disk.
func LaptopProfile() *Profile { return cost.Laptop() }

// StandardProfile models the paper's c5.2xlarge + gp2 volume (Figure 1's
// "Standard" configuration).
func StandardProfile() *Profile { return cost.StandardEC2() }

// IOOptProfile models c5.2xlarge + gp3 (Figure 1's "IO-opt").
func IOOptProfile() *Profile { return cost.IOOptEC2() }

// Lint runs the ShellCheck-style analyses over a script.
func Lint(src string) []lint.Finding { return lint.New().LintSource(src) }

// Finding is one lint diagnostic.
type Finding = lint.Finding

// InferSpec classifies a command's parallelizability by black-box testing.
func InferSpec(argv []string) (infer.Result, error) { return infer.Infer(argv) }

// Specs returns the builtin PaSh-style command specification library.
func Specs() *spec.Library { return spec.Builtin() }
