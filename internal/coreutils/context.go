// Package coreutils implements the POSIX utilities the paper's pipelines
// compose — cat, tr, sort, grep, comm, and friends — as in-process stream
// transformers over the hermetic VFS. They are the "component library"
// (G1) that the shell composes and whose behaviour the PaSh-style command
// specifications in package spec describe.
//
// Each utility is a Func that reads Stdin, writes Stdout/Stderr, and
// returns a POSIX exit status. Implementations are deterministic: no wall
// clock, no host filesystem, no global state.
package coreutils

import (
	"context"
	"fmt"
	"io"
	"path"
	"sort"

	"jash/internal/vfs"
)

// Context carries the state one command invocation sees: its standard
// streams, working directory, environment, and the filesystem.
type Context struct {
	FS     *vfs.FS
	Dir    string // absolute working directory
	Stdin  io.Reader
	Stdout io.Writer
	Stderr io.Writer
	// Getenv looks up an environment variable; nil means empty environment.
	Getenv func(string) string
	// Environ lists NAME=VALUE pairs for `env`; nil means none.
	Environ func() []string
	// Ctx, when non-nil, is done once the surrounding plan or session is
	// torn down. The line cursor polls it, and a write fails once it is
	// done, so a utility stops even between pipe operations; nil means
	// never cancelled.
	Ctx context.Context
	// Abort, when non-nil, cancels the surrounding plan's context with
	// the given cause: it reports a defect that invalidates the whole
	// plan rather than just this invocation. A parallelized executor sets
	// it for lane utilities: a lane hitting the line-length limit must
	// tear the plan down (so the caller falls back to the sequential
	// path) instead of failing quietly while sibling lanes keep producing
	// output the sequential run would never emit.
	Abort context.CancelCauseFunc

	// out is the utility's buffered stdout while it runs; Stdout points
	// at it then (see run).
	out stdout
}

// Cancelled reports whether the surrounding plan has been torn down.
func (c *Context) Cancelled() bool {
	if c.Ctx == nil {
		return false
	}
	// Done is lock-free once made; Err would take the context's mutex,
	// which every stage of a plan polling the same context shares.
	select {
	case <-c.Ctx.Done():
		return true
	default:
		return false
	}
}

// cancelPollLines is how many lines a line cursor reads between Ctx
// polls: frequent enough that a torn-down plan stops a
// compute-heavy filter promptly, rare enough to stay off the hot path.
const cancelPollLines = 1024

// Lookup resolves a possibly-relative path against the working directory.
func (c *Context) Lookup(p string) string {
	if path.IsAbs(p) {
		return path.Clean(p)
	}
	dir := c.Dir
	if dir == "" {
		dir = "/"
	}
	return path.Join(dir, p)
}

// Env returns the value of an environment variable, or "".
func (c *Context) Env(name string) string {
	if c.Getenv == nil {
		return ""
	}
	return c.Getenv(name)
}

// Errorf reports a diagnostic on stderr in the conventional
// "command: message" form and returns the given status.
func (c *Context) Errorf(status int, format string, args ...any) int {
	fmt.Fprintf(c.Stderr, format+"\n", args...)
	return status
}

// Func is the implementation of one utility. args[0] is the command name.
type Func func(c *Context, args []string) int

// StatusBrokenPipe is the status of a utility whose stdout reader has
// gone: 128 + SIGPIPE, what dash's wait reports for a writer the signal
// ended.
const StatusBrokenPipe = 128 + 13

// registry maps command names to implementations.
var registry = map[string]Func{}

// Register installs a utility under the given name, behind run. It panics
// on duplicate registration, which would indicate a programming error at
// init time.
func Register(name string, fn Func) {
	if _, dup := registry[name]; dup {
		panic("coreutils: duplicate registration of " + name)
	}
	registry[name] = func(c *Context, args []string) int { return c.run(fn, args) }
}

// run is the one place a utility's stdout is decided. fn writes through
// c.out, which buffers in front of c.Stdout and keeps its first error;
// once a write has failed — the reader is gone — nothing more is written
// or read, and the utility ends with StatusBrokenPipe and no diagnostic,
// whatever fn returns, as SIGPIPE would have ended it.
func (c *Context) run(fn Func, args []string) int {
	w := c.Stdout
	c.out = newStdout(c, w)
	c.Stdout = &c.out
	status := fn(c, args)
	err := c.out.close()
	c.Stdout = w
	if err != nil {
		return StatusBrokenPipe
	}
	return status
}

// Lookup returns the implementation of a utility, if known.
func Lookup(name string) (Func, bool) {
	fn, ok := registry[name]
	return fn, ok
}

// Names returns all registered utility names, sorted.
func Names() []string {
	names := make([]string, 0, len(registry))
	for name := range registry {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// openInputs returns readers for the named operands, treating "-" and an
// empty list as stdin, mirroring how POSIX filters take file arguments.
func openInputs(c *Context, operands []string) ([]io.Reader, int) {
	if len(operands) == 0 {
		return []io.Reader{c.Stdin}, 0
	}
	var rs []io.Reader
	for _, op := range operands {
		if op == "-" {
			rs = append(rs, c.Stdin)
			continue
		}
		r, err := c.FS.Open(c.Lookup(op))
		if err != nil {
			return nil, c.Errorf(1, "%s: %v", op, err)
		}
		rs = append(rs, r)
	}
	return rs, 0
}
