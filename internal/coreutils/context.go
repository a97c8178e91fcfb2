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
	// torn down. Compute-heavy loops (yes, seq) poll it so they stop even
	// when they are between pipe operations; nil means never cancelled.
	Ctx context.Context
	// Abort, when non-nil, cancels the surrounding plan's context with
	// the given cause: it reports a defect that invalidates the whole
	// plan rather than just this invocation. A parallelized executor sets
	// it for lane utilities: a lane hitting the line-length limit must
	// tear the plan down (so the caller falls back to the sequential
	// path) instead of failing quietly while sibling lanes keep producing
	// output the sequential run would never emit.
	Abort context.CancelCauseFunc
}

// escalate routes a line-limit violation to the plan-abort hook, if any.
func (c *Context) escalate(err error) {
	if err == errLineTooLong && c.Abort != nil {
		c.Abort(err)
	}
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

// cancelPollLines is how many lines a streaming loop processes between
// Ctx polls: frequent enough that a torn-down plan stops a
// compute-heavy filter promptly, rare enough to stay off the hot path.
const cancelPollLines = 1024

// forEachLine is the cancel-aware line iterator every streaming utility
// loop uses: it behaves like the package-level forEachLine but polls
// Ctx periodically, stopping early (silently, like a consumer hangup)
// when the surrounding plan has been torn down.
func (c *Context) forEachLine(r io.Reader, fn func(line []byte) error) error {
	var err error
	if c.Ctx == nil {
		err = forEachLine(r, fn)
	} else {
		n := 0
		err = forEachLine(r, func(line []byte) error {
			n++
			if n%cancelPollLines == 0 && c.Cancelled() {
				return io.EOF
			}
			return fn(line)
		})
	}
	c.escalate(err)
	return err
}

// readLines is the Context-aware slurp: like the package-level readLines
// but escalating a line-limit violation to the plan-abort hook.
func (c *Context) readLines(r io.Reader) ([]string, error) {
	lines, err := readLines(r)
	c.escalate(err)
	return lines, err
}

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

// registry maps command names to implementations.
var registry = map[string]Func{}

// Register installs a utility under the given name. It panics on duplicate
// registration, which would indicate a programming error at init time.
func Register(name string, fn Func) {
	if _, dup := registry[name]; dup {
		panic("coreutils: duplicate registration of " + name)
	}
	registry[name] = fn
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
