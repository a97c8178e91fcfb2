// Quickstart: run a shell script under the Jash JIT and watch it decide
// what to optimize. Demonstrates the façade API: build a virtual
// filesystem, pick a resource profile, run a script, inspect decisions.
package main

import (
	"fmt"
	"log"
	"os"

	"jash"
	"jash/internal/workload"
)

func main() {
	fs := jash.NewFS()
	// A 4 MB prose corpus plays the paper's "3 GB input" at laptop scale.
	fs.WriteFile("/data/words.txt", workload.Words(1, 4<<20))

	sh := jash.NewShell(fs, jash.IOOptProfile(), jash.ModeJash)
	sh.Interp.Stdout = os.Stdout
	sh.Interp.Stderr = os.Stderr

	script := `
echo "== ten most frequent words =="
cat /data/words.txt | tr A-Z a-z | tr -cs A-Za-z '\n' | sort | uniq -c | sort -rn | head -n10
`
	status, err := sh.Run(script)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nexit status: %d\n", status)
	fmt.Printf("pipelines optimized: %d, interpreted: %d\n",
		sh.Stats.Optimized, sh.Stats.Interpreted)
	// Each JIT decision: what ran, how wide, what the model predicted, why.
	for _, d := range sh.Stats.Decisions {
		fmt.Printf("  %-70.70s -> %s (width %d, est %.3fs): %s\n",
			d.Pipeline, d.Strategy, d.Width, d.EstimatedSeconds, d.Reason)
	}
}
