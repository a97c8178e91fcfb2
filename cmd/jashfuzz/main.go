// Command jashfuzz is the differential fuzzing and crash-triage driver:
// it generates seeded random shell programs, executes each under every
// engine (the interpreter with its fast paths off and on, JIT plans,
// list-parallel, AOT), diffs the observable behaviour, soaks the stack
// under chaotic fault injection, and triages whatever disagrees —
// bucketed by signature, delta-debugged to a minimal reproducer, and
// persisted for replay.
//
// Usage:
//
//	jashfuzz [-n N] [-start SEED] [-chaos N] [-chaos-layers exec,interp]
//	         [-oracles plain,compile,jit,listpar,aot] [-minimize TRIALS]
//	         [-timeout D] [-out DIR] [-replay FILE] [-q]
//
// Exit status: 0 — every episode clean; 1 — divergences or invariant
// violations found (triage report on stdout, artifacts under -out);
// 2 — usage or internal error.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"jash/internal/fuzz"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		n        = flag.Int("n", 200, "differential episodes to run")
		start    = flag.Uint64("start", 1, "first generator seed")
		chaosN   = flag.Int("chaos", 0, "chaos episodes per layer")
		layers   = flag.String("chaos-layers", "exec,interp", "comma-separated chaos layers: exec, interp, both")
		oracles  = flag.String("oracles", "", "comma-separated oracle subset (default: all five)")
		minimize = flag.Int("minimize", 400, "delta-debugging trial budget per signature (0 disables)")
		timeout  = flag.Duration("timeout", 5*time.Second, "per-oracle watchdog")
		outDir   = flag.String("out", "", "directory for corpus and crash artifacts")
		replay   = flag.String("replay", "", "replay one script file through the oracle matrix and exit")
		quiet    = flag.Bool("q", false, "suppress per-finding progress, print only the summary")
	)
	flag.Parse()

	opts := fuzz.RunOpts{Timeout: *timeout}
	if *oracles != "" {
		opts.Oracles = strings.Split(*oracles, ",")
	}
	corpus := fuzz.Corpus{Dir: *outDir}

	if *replay != "" {
		return replayFile(*replay, opts)
	}

	tr := fuzz.NewTriage()
	dirty := 0

	// Replay the persisted corpus first: past divergences are the
	// cheapest place to find regressions.
	saved, skipped, err := corpus.LoadCorpus()
	if err != nil {
		fmt.Fprintf(os.Stderr, "jashfuzz: corpus: %v\n", err)
		return 2
	}
	for _, err := range skipped {
		fmt.Fprintf(os.Stderr, "jashfuzz: corpus: skipped %v\n", err)
	}
	fixture := fuzz.Generate(fuzz.DefaultConfig(1)).Fixture
	for _, p := range saved {
		p.Fixture = fixture
		ep := fuzz.RunEpisode(p, opts)
		if !ep.Clean() {
			dirty++
			report(tr, ep, opts, *minimize, *quiet)
		}
	}

	for i := 0; i < *n; i++ {
		seed := *start + uint64(i)
		ep := fuzz.RunEpisode(fuzz.Generate(fuzz.DefaultConfig(seed)), opts)
		if !ep.Clean() {
			dirty++
			if err := corpus.SaveEpisode(ep); err != nil {
				fmt.Fprintf(os.Stderr, "jashfuzz: save: %v\n", err)
			}
			report(tr, ep, opts, *minimize, *quiet)
		}
	}

	chaosRan := 0
	for _, layer := range splitList(*layers) {
		for i := 0; i < *chaosN; i++ {
			seed := *start + uint64(i)
			p := fuzz.Generate(fuzz.DefaultConfig(seed))
			ep := fuzz.ChaosEpisode(p, fuzz.ChaosOpts{
				Seed: int64(seed), Layer: layer, Timeout: *timeout,
			})
			chaosRan++
			if !ep.Clean() {
				dirty++
				if err := corpus.SaveEpisode(ep); err != nil {
					fmt.Fprintf(os.Stderr, "jashfuzz: save: %v\n", err)
				}
				// Chaos findings are bucketed but not delta-debugged: the
				// reproducer is (program, chaos seed), and shrinking the
				// program shifts which operations the seeded injector hits.
				tr.Add(ep)
				if !*quiet {
					for _, d := range ep.Divergences {
						fmt.Printf("chaos seed %d layer %s: %s\n", seed, layer, d.Detail)
					}
				}
			}
		}
	}

	total := len(saved) + *n + chaosRan
	fmt.Printf("jashfuzz: %d episodes (%d corpus, %d generated, %d chaos), %d dirty, %d signatures\n",
		total, len(saved), *n, chaosRan, dirty, tr.Len())
	if tr.Len() > 0 {
		fmt.Print(tr.Report())
		if err := corpus.SaveBuckets(tr); err != nil {
			fmt.Fprintf(os.Stderr, "jashfuzz: save crashes: %v\n", err)
		}
		return 1
	}
	return 0
}

// report buckets the episode and, on a fresh signature, minimizes it.
func report(tr *fuzz.Triage, ep *fuzz.Episode, opts fuzz.RunOpts, budget int, quiet bool) {
	fresh := tr.Add(ep)
	if !quiet {
		for _, d := range ep.Divergences {
			fmt.Printf("seed %d: %s (%s)\n", ep.Seed, d.Detail, d.Sig)
		}
	}
	if fresh == 0 || budget <= 0 {
		return
	}
	for _, d := range ep.Divergences {
		b := tr.Bucket(d.Sig)
		if b == nil || b.Minimized != "" {
			continue
		}
		min := fuzz.MinimizeDivergence(ep, d, opts, budget)
		b.Minimized = min.Source
		b.MinimizedNodes = fuzz.CountNodes(min.Script)
	}
}

func replayFile(path string, opts fuzz.RunOpts) int {
	data, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "jashfuzz: %v\n", err)
		return 2
	}
	p := fuzz.Program{
		Source:  string(data),
		Fixture: fuzz.Generate(fuzz.DefaultConfig(1)).Fixture,
	}
	ep := fuzz.RunEpisode(p, opts)
	for _, o := range ep.Outcomes {
		fmt.Printf("--- %s: status %d\nstdout: %q\nstderr: %q\n", o.Oracle, o.Status, o.Stdout, o.Stderr)
		if o.Crashed() {
			fmt.Printf("CRASH panic=%q hung=%v leaked=%d\n", o.Panic, o.Hung, o.Leaked)
		}
	}
	if ep.Clean() {
		fmt.Println("clean: all oracles agree")
		return 0
	}
	for _, d := range ep.Divergences {
		fmt.Printf("divergence: %s (%s)\n", d.Detail, d.Sig)
	}
	return 1
}

func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}
