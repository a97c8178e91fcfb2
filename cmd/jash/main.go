// Command jash is the Jash shell: a POSIX shell interpreter with a JIT,
// resource-aware pipeline optimizer. Scripts run over a hermetic virtual
// filesystem; host files can be imported with -import, and synthetic
// corpora generated with -words. The -mode flag switches between plain
// interpretation (bash), the ahead-of-time PaSh strategy, and the full
// Jash JIT. -trace FILE is the run's record: a span tree per command, from
// parse to sink, carrying every JIT decision (strategy, width, estimate,
// reason, value-flow witnesses) and each plan node's measured bytes,
// buffering and wall time, plus the session's metrics, as JSON lines.
// jashtrace renders, checks and converts it.
//
// Usage:
//
//	jash [-mode bash|pash|jash] [-profile laptop|standard|ioopt]
//	     [-import host.txt=/vfs/path]... [-words /vfs/path=SIZE]
//	     [-retries N] [-stall-timeout D] [-timeout D]
//	     [-no-list-parallel] [-trace FILE]
//	     (-i | -c 'script' | script.sh)
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"jash/internal/core"
	"jash/internal/cost"
	"jash/internal/syntax"
	"jash/internal/trace"
	"jash/internal/vfs"
	"jash/internal/workload"
)

type multiFlag []string

func (m *multiFlag) String() string     { return strings.Join(*m, ",") }
func (m *multiFlag) Set(v string) error { *m = append(*m, v); return nil }

func main() {
	os.Exit(run())
}

func run() int {
	var (
		mode        = flag.String("mode", "jash", "optimization mode: bash, pash, or jash")
		profile     = flag.String("profile", "laptop", "resource profile: laptop, standard (gp2), or ioopt (gp3)")
		command     = flag.String("c", "", "run this script text instead of a file")
		traceOut    = flag.String("trace", "", "write the run's trace (span tree + metrics, JSON lines for jashtrace) to this file")
		timeout     = flag.Duration("timeout", 0, "bound the session; expiry tears running plans down and exits 124")
		retries     = flag.Int("retries", 0, "per-node retry budget for effect-idempotent plan nodes")
		stall       = flag.Duration("stall-timeout", 0, "abort optimized plans making no progress for this long")
		noListPar   = flag.Bool("no-list-parallel", false, "disable command-list parallelism; run every statement list in program order")
		interactive = flag.Bool("i", false, "interactive: read commands line by line with a prompt")
		imports     multiFlag
		words       multiFlag
	)
	flag.Var(&imports, "import", "copy a host file into the VFS: host.txt=/vfs/path (repeatable)")
	flag.Var(&words, "words", "generate word data in the VFS: /vfs/path=BYTES (repeatable)")
	flag.Parse()

	fs := vfs.New()
	for _, im := range imports {
		host, dest, ok := strings.Cut(im, "=")
		if !ok {
			fmt.Fprintf(os.Stderr, "jash: bad -import %q (want host=/vfs/path)\n", im)
			return 2
		}
		data, err := os.ReadFile(host)
		if err != nil {
			fmt.Fprintf(os.Stderr, "jash: %v\n", err)
			return 2
		}
		if err := fs.WriteFile(dest, data); err != nil {
			fmt.Fprintf(os.Stderr, "jash: %v\n", err)
			return 2
		}
	}
	for _, w := range words {
		dest, size, ok := strings.Cut(w, "=")
		if !ok {
			fmt.Fprintf(os.Stderr, "jash: bad -words %q (want /vfs/path=BYTES)\n", w)
			return 2
		}
		n, err := strconv.Atoi(size)
		if err != nil || n <= 0 {
			fmt.Fprintf(os.Stderr, "jash: bad -words size %q\n", size)
			return 2
		}
		if err := fs.WriteFile(dest, workload.Words(1, n)); err != nil {
			fmt.Fprintf(os.Stderr, "jash: %v\n", err)
			return 2
		}
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
		fmt.Fprintf(os.Stderr, "jash: unknown profile %q\n", *profile)
		return 2
	}
	var m core.Mode
	switch *mode {
	case "bash":
		m = core.ModeBash
	case "pash":
		m = core.ModePaSh
	case "jash":
		m = core.ModeJash
	default:
		fmt.Fprintf(os.Stderr, "jash: unknown mode %q\n", *mode)
		return 2
	}

	var tr *trace.Tracer
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fmt.Fprintf(os.Stderr, "jash: %v\n", err)
			return 2
		}
		tr = trace.New(trace.Options{Writer: f})
		defer func() {
			if err := tr.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "jash: trace: %v\n", err)
			}
			if err := f.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "jash: trace: %v\n", err)
			}
		}()
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	sh := core.New(fs, prof, m)
	// Host stdin feeds the script's commands (`printf 'b\na\n' | jash -c
	// 'sort'` must sort those lines), except when stdin supplies the script
	// text itself: interactive lines, or a script piped in.
	sh.Interp.Stdin = os.Stdin
	sh.Interp.Stdout = os.Stdout
	sh.Interp.Stderr = os.Stderr
	sh.Ctx = ctx
	sh.Retries = *retries
	sh.StallTimeout = *stall
	sh.NoListParallel = *noListPar
	if tr != nil {
		sh.EnableTracing(tr)
	}

	var src string
	switch {
	case *interactive:
		sh.Interp.Stdin = strings.NewReader("")
		return repl(sh)
	case *command != "":
		src = *command
	case flag.NArg() >= 1:
		data, err := os.ReadFile(flag.Arg(0))
		if err != nil {
			fmt.Fprintf(os.Stderr, "jash: %v\n", err)
			return 2
		}
		src = string(data)
	default:
		data, err := io.ReadAll(os.Stdin)
		if err != nil {
			fmt.Fprintf(os.Stderr, "jash: %v\n", err)
			return 2
		}
		src = string(data)
		sh.Interp.Stdin = strings.NewReader("")
	}
	status, err := sh.Run(src)
	if err != nil {
		fmt.Fprintf(os.Stderr, "jash: %v\n", err)
		if status == 0 {
			status = 2
		}
	}
	return status
}

// repl runs the line-oriented interactive loop: the same JIT architecture
// serves "both programmatic and interactive contexts" (§3.2). Input lines
// accumulate until they parse as a complete command (so multi-line
// if/for/heredocs work), then run with full shell state.
func repl(sh *core.Shell) int {
	scanner := bufio.NewScanner(os.Stdin)
	scanner.Buffer(make([]byte, 1<<20), 1<<20)
	var pending strings.Builder
	prompt := "jash$ "
	fmt.Fprint(os.Stderr, prompt)
	for scanner.Scan() {
		pending.WriteString(scanner.Text())
		pending.WriteByte('\n')
		src := pending.String()
		if _, _, err := syntax.ParseCommand(src); err != nil {
			// Incomplete construct (unterminated quote/if/heredoc): keep
			// reading continuation lines.
			fmt.Fprint(os.Stderr, "> ")
			continue
		}
		pending.Reset()
		status, err := sh.Run(src)
		if err != nil {
			fmt.Fprintf(os.Stderr, "jash: %v\n", err)
		}
		if sh.Interp.Exited {
			return status
		}
		if status != 0 {
			fmt.Fprintf(os.Stderr, "[status %d]\n", status)
		}
		fmt.Fprint(os.Stderr, prompt)
	}
	fmt.Fprintln(os.Stderr)
	// End of input ends the session: fire the EXIT trap like a real shell
	// does on a Ctrl-D logout.
	sh.Interp.RunExitTrap()
	return sh.Interp.Status
}
