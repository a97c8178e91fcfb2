// Command jashc is the Jash compiler front-end: it parses a pipeline,
// translates it to a dataflow graph, shows the PaSh and Jash plans with
// their cost estimates, and exports graphs as dot or JSON — the
// inspection tool for the paper's E2/E3 machinery.
//
// Usage:
//
//	jashc [-size BYTES] [-profile standard|ioopt|laptop] [-format text|dot|json]
//	      [-plan seq|pash|jash] -c 'cat in | tr A-Z a-z | sort'
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"jash/internal/cost"
	"jash/internal/dfg"
	"jash/internal/rewrite"
	"jash/internal/spec"
	"jash/internal/syntax"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		command = flag.String("c", "", "pipeline to compile")
		size    = flag.Int64("size", 1<<30, "assumed input size in bytes for cost estimation")
		profile = flag.String("profile", "standard", "resource profile: laptop, standard, ioopt")
		format  = flag.String("format", "text", "output: text, dot, or json")
		plan    = flag.String("plan", "jash", "which plan to emit: seq, pash, or jash")
	)
	flag.Parse()
	src := *command
	if src == "" {
		data, err := io.ReadAll(os.Stdin)
		if err != nil {
			fmt.Fprintf(os.Stderr, "jashc: %v\n", err)
			return 2
		}
		src = string(data)
	}
	script, err := syntax.Parse(src)
	if err != nil {
		fmt.Fprintf(os.Stderr, "jashc: %v\n", err)
		return 2
	}
	if len(script.Stmts) != 1 {
		fmt.Fprintf(os.Stderr, "jashc: expected exactly one pipeline, got %d statements\n", len(script.Stmts))
		return 2
	}
	// Ahead of time there is no shell state and no filesystem: the region
	// former admits static words only and refuses the rest with its reason.
	g, err := dfg.FromStmt(script.Stmts[0], spec.Builtin(), nil, true)
	if err != nil {
		fmt.Fprintf(os.Stderr, "jashc: %v\n", err)
		return 1
	}
	var prof *cost.Profile
	switch *profile {
	case "laptop":
		prof = cost.Laptop()
	case "standard":
		prof = cost.StandardEC2()
	case "ioopt":
		prof = cost.IOOptEC2()
	default:
		fmt.Fprintf(os.Stderr, "jashc: unknown profile %q\n", *profile)
		return 2
	}
	in := cost.Inputs{Size: func(string) int64 { return *size }}
	var chosen *dfg.Graph
	var note string
	switch *plan {
	case "seq":
		chosen = g.Clone()
		rewrite.RemoveUselessCat(chosen)
		note = "sequential"
	case "pash":
		var dec rewrite.Decision
		chosen, dec, err = rewrite.PaShPlan(g, prof.Cores)
		note = dec.Reason
	case "jash":
		var dec rewrite.Decision
		chosen, dec, err = rewrite.JashPlan(g, in, prof)
		note = dec.Reason
	default:
		fmt.Fprintf(os.Stderr, "jashc: unknown plan %q\n", *plan)
		return 2
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "jashc: %v\n", err)
		return 1
	}
	switch *format {
	case "dot":
		fmt.Print(chosen.Dot())
	case "json":
		data, err := chosen.MarshalJSON()
		if err != nil {
			fmt.Fprintf(os.Stderr, "jashc: %v\n", err)
			return 1
		}
		fmt.Println(string(data))
	default:
		est, err := cost.EstimateGraph(chosen, in, prof, true)
		if err != nil {
			fmt.Fprintf(os.Stderr, "jashc: %v\n", err)
			return 1
		}
		fmt.Printf("plan: %s\n", note)
		fmt.Printf("script: %s\n", chosen.Script())
		fmt.Printf("estimate on %s with %s input:\n%s", prof.Name, sizeName(*size), cost.Explain(est))
	}
	return 0
}

func sizeName(b int64) string {
	switch {
	case b >= 1<<30:
		return fmt.Sprintf("%.1f GiB", float64(b)/float64(1<<30))
	case b >= 1<<20:
		return fmt.Sprintf("%.1f MiB", float64(b)/float64(1<<20))
	default:
		return fmt.Sprintf("%d B", b)
	}
}
