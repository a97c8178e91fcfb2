package coreutils

import (
	"fmt"
	"path"
	"sort"
	"strconv"
	"strings"

	"jash/internal/spec"
	"jash/internal/vfs"
)

func init() {
	Register("ls", lsCmd)
	Register("mkdir", mkdirCmd)
	Register("rm", rmCmd)
	Register("cp", cpCmd)
	Register("mv", mvCmd)
	Register("touch", touchCmd)
	Register("basename", basenameCmd)
	Register("dirname", dirnameCmd)
	Register("find", findCmd)
	Register("test", testCmd)
	Register("[", bracketCmd)
	Register("env", envCmd)
	Register("sleep", func(*Context, []string) int { return 0 }) // virtual time: a no-op
	Register("du", duCmd)
	Register("stat", statCmd)
}

// lsCmd lists directory contents, one per line (the -1 format; also the
// only sensible format for pipelines). -a includes dotfiles, -d lists the
// directory itself, -l adds sizes.
func lsCmd(c *Context, args []string) int {
	cl, err := spec.Parse(args)
	if err != nil {
		return c.Errorf(2, "ls: %v", err)
	}
	if len(cl.Operands) == 0 {
		cl.Operands = []string{"."}
	}
	lw := newLineWriter(c.Stdout)
	defer lw.Release()
	status := 0
	for _, op := range cl.Operands {
		p := c.Lookup(op)
		info, err := c.FS.Stat(p)
		if err != nil {
			status = c.Errorf(1, "ls: %s: %v", op, err)
			continue
		}
		emit := func(fi vfs.FileInfo) {
			if cl.Has('l') {
				kind := "-"
				if fi.IsDir {
					kind = "d"
				}
				lw.WriteLine([]byte(fmt.Sprintf("%s %10d %s", kind, fi.Size, fi.Name)))
			} else {
				lw.WriteLine([]byte(fi.Name))
			}
		}
		if !info.IsDir || cl.Has('d') {
			emit(info)
			continue
		}
		entries, err := c.FS.ReadDir(p)
		if err != nil {
			status = c.Errorf(1, "ls: %s: %v", op, err)
			continue
		}
		for _, e := range entries {
			if strings.HasPrefix(e.Name, ".") && !cl.Has('a') {
				continue
			}
			emit(e)
		}
	}
	lw.Flush()
	return status
}

// mkdirCmd creates directories; -p creates parents and ignores existing.
func mkdirCmd(c *Context, args []string) int {
	cl, err := spec.Parse(args)
	if err != nil {
		return c.Errorf(2, "mkdir: %v", err)
	}
	if len(cl.Operands) == 0 {
		return c.Errorf(2, "mkdir: missing operand")
	}
	status := 0
	for _, op := range cl.Operands {
		p := c.Lookup(op)
		var e error
		if cl.Has('p') {
			e = c.FS.MkdirAll(p)
		} else {
			e = c.FS.Mkdir(p)
		}
		if e != nil {
			status = c.Errorf(1, "mkdir: %v", e)
		}
	}
	return status
}

// rmCmd removes files; -r recurses into directories, -f ignores missing
// operands.
func rmCmd(c *Context, args []string) int {
	cl, err := spec.Parse(args)
	if err != nil {
		return c.Errorf(2, "rm: %v", err)
	}
	if len(cl.Operands) == 0 && !cl.Has('f') {
		return c.Errorf(2, "rm: missing operand")
	}
	status := 0
	for _, op := range cl.Operands {
		p := c.Lookup(op)
		if !c.FS.Exists(p) {
			if !cl.Has('f') {
				status = c.Errorf(1, "rm: %s: no such file or directory", op)
			}
			continue
		}
		var e error
		if cl.Has('r') || cl.Has('R') {
			e = c.FS.RemoveAll(p)
		} else {
			e = c.FS.Remove(p)
		}
		if e != nil && !cl.Has('f') {
			status = c.Errorf(1, "rm: %v", e)
		}
	}
	return status
}

// cpCmd copies files. cp SRC DST, or cp SRC... DIR.
func cpCmd(c *Context, args []string) int {
	cl, err := spec.Parse(args)
	if err != nil {
		return c.Errorf(2, "cp: %v", err)
	}
	if len(cl.Operands) < 2 {
		return c.Errorf(2, "cp: missing operand")
	}
	dst := c.Lookup(cl.Operands[len(cl.Operands)-1])
	srcs := cl.Operands[:len(cl.Operands)-1]
	dstInfo, dstErr := c.FS.Stat(dst)
	dstIsDir := dstErr == nil && dstInfo.IsDir
	if len(srcs) > 1 && !dstIsDir {
		return c.Errorf(1, "cp: target %q is not a directory", cl.Operands[len(cl.Operands)-1])
	}
	status := 0
	for _, src := range srcs {
		data, e := c.FS.ReadFile(c.Lookup(src))
		if e != nil {
			status = c.Errorf(1, "cp: %v", e)
			continue
		}
		target := dst
		if dstIsDir {
			target = path.Join(dst, path.Base(src))
		}
		if e := c.FS.WriteFile(target, data); e != nil {
			status = c.Errorf(1, "cp: %v", e)
		}
	}
	return status
}

// mvCmd renames files. mv SRC DST, or mv SRC... DIR.
func mvCmd(c *Context, args []string) int {
	cl, err := spec.Parse(args)
	if err != nil {
		return c.Errorf(2, "mv: %v", err)
	}
	if len(cl.Operands) < 2 {
		return c.Errorf(2, "mv: missing operand")
	}
	dst := c.Lookup(cl.Operands[len(cl.Operands)-1])
	srcs := cl.Operands[:len(cl.Operands)-1]
	dstInfo, dstErr := c.FS.Stat(dst)
	dstIsDir := dstErr == nil && dstInfo.IsDir
	if len(srcs) > 1 && !dstIsDir {
		return c.Errorf(1, "mv: target %q is not a directory", cl.Operands[len(cl.Operands)-1])
	}
	status := 0
	for _, src := range srcs {
		target := dst
		if dstIsDir {
			target = path.Join(dst, path.Base(src))
		}
		if e := c.FS.Rename(c.Lookup(src), target); e != nil {
			status = c.Errorf(1, "mv: %v", e)
		}
	}
	return status
}

// touchCmd creates empty files or bumps their modification stamp.
func touchCmd(c *Context, args []string) int {
	cl, err := spec.Parse(args)
	if err != nil {
		return c.Errorf(2, "touch: %v", err)
	}
	status := 0
	for _, op := range cl.Operands {
		p := c.Lookup(op)
		if c.FS.Exists(p) {
			data, e := c.FS.ReadFile(p)
			if e == nil {
				e = c.FS.WriteFile(p, data) // rewrite to bump ModSeq
			}
			if e != nil {
				status = c.Errorf(1, "touch: %v", e)
			}
			continue
		}
		if e := c.FS.WriteFile(p, nil); e != nil {
			status = c.Errorf(1, "touch: %v", e)
		}
	}
	return status
}

// basenameCmd strips directory prefix (and an optional suffix).
func basenameCmd(c *Context, args []string) int {
	if len(args) < 2 {
		return c.Errorf(2, "basename: missing operand")
	}
	base := path.Base(args[1])
	if len(args) > 2 && base != args[2] {
		base = strings.TrimSuffix(base, args[2])
	}
	fmt.Fprintln(c.Stdout, base)
	return 0
}

// dirnameCmd strips the final path component.
func dirnameCmd(c *Context, args []string) int {
	if len(args) < 2 {
		return c.Errorf(2, "dirname: missing operand")
	}
	fmt.Fprintln(c.Stdout, path.Dir(args[1]))
	return 0
}

// findCmd walks directory trees. Supported primaries: -name PATTERN,
// -type f|d, -size +N/-N (bytes). Paths print in sorted traversal order.
func findCmd(c *Context, args []string) int {
	rest := args[1:]
	var roots []string
	i := 0
	for i < len(rest) && !strings.HasPrefix(rest[i], "-") {
		roots = append(roots, rest[i])
		i++
	}
	if len(roots) == 0 {
		roots = []string{"."}
	}
	namePat := ""
	typeFilter := byte(0)
	sizeOp, sizeVal := byte(0), int64(0)
	for i < len(rest) {
		switch rest[i] {
		case "-name":
			i++
			if i >= len(rest) {
				return c.Errorf(2, "find: -name needs a pattern")
			}
			namePat = rest[i]
		case "-type":
			i++
			if i >= len(rest) || (rest[i] != "f" && rest[i] != "d") {
				return c.Errorf(2, "find: -type needs f or d")
			}
			typeFilter = rest[i][0]
		case "-size":
			i++
			if i >= len(rest) {
				return c.Errorf(2, "find: -size needs a value")
			}
			v := rest[i]
			if v[0] == '+' || v[0] == '-' {
				sizeOp = v[0]
				v = v[1:]
			} else {
				sizeOp = '='
			}
			n, err := strconv.ParseInt(strings.TrimSuffix(v, "c"), 10, 64)
			if err != nil {
				return c.Errorf(2, "find: bad size %q", rest[i])
			}
			sizeVal = n
		default:
			return c.Errorf(2, "find: unknown primary %q", rest[i])
		}
		i++
	}
	lw := newLineWriter(c.Stdout)
	defer lw.Release()
	status := 0
	match := func(p string, fi vfs.FileInfo) bool {
		if namePat != "" && !matchName(namePat, fi.Name) {
			return false
		}
		if typeFilter == 'f' && fi.IsDir {
			return false
		}
		if typeFilter == 'd' && !fi.IsDir {
			return false
		}
		switch sizeOp {
		case '+':
			if fi.Size <= sizeVal {
				return false
			}
		case '-':
			if fi.Size >= sizeVal {
				return false
			}
		case '=':
			if fi.Size != sizeVal {
				return false
			}
		}
		return true
	}
	var walk func(display, abs string)
	walk = func(display, abs string) {
		fi, err := c.FS.Stat(abs)
		if err != nil {
			status = c.Errorf(1, "find: %s: %v", display, err)
			return
		}
		if match(display, fi) {
			lw.WriteLine([]byte(display))
		}
		if !fi.IsDir {
			return
		}
		entries, err := c.FS.ReadDir(abs)
		if err != nil {
			return
		}
		sort.Slice(entries, func(i, j int) bool { return entries[i].Name < entries[j].Name })
		for _, e := range entries {
			walk(display+"/"+e.Name, abs+"/"+e.Name)
		}
	}
	for _, root := range roots {
		walk(strings.TrimSuffix(root, "/"), c.Lookup(root))
	}
	lw.Flush()
	return status
}

func matchName(pat, name string) bool {
	// find -name uses shell patterns.
	return patMatch(pat, name)
}

// testCmd implements test(1): file tests (-e -f -d -s), string tests
// (-z -n, =, !=), integer comparisons (-eq -ne -lt -le -gt -ge), and the
// connectives ! -a -o with parentheses.
func testCmd(c *Context, args []string) int {
	return evalTest(c, args[1:])
}

// bracketCmd is `[`, requiring a closing `]`.
func bracketCmd(c *Context, args []string) int {
	rest := args[1:]
	if len(rest) == 0 || rest[len(rest)-1] != "]" {
		return c.Errorf(2, "[: missing closing ]")
	}
	return evalTest(c, rest[:len(rest)-1])
}

func evalTest(c *Context, expr []string) int {
	p := &testParser{c: c, toks: expr}
	if len(expr) == 0 {
		return 1
	}
	v, err := p.or()
	if err != nil {
		return c.Errorf(2, "test: %v", err)
	}
	if p.pos != len(p.toks) {
		return c.Errorf(2, "test: unexpected %q", p.toks[p.pos])
	}
	if v {
		return 0
	}
	return 1
}

type testParser struct {
	c    *Context
	toks []string
	pos  int
}

func (p *testParser) peek() (string, bool) {
	if p.pos < len(p.toks) {
		return p.toks[p.pos], true
	}
	return "", false
}

func (p *testParser) or() (bool, error) {
	v, err := p.and()
	if err != nil {
		return false, err
	}
	for {
		t, ok := p.peek()
		if !ok || t != "-o" {
			return v, nil
		}
		p.pos++
		w, err := p.and()
		if err != nil {
			return false, err
		}
		v = v || w
	}
}

func (p *testParser) and() (bool, error) {
	v, err := p.primary()
	if err != nil {
		return false, err
	}
	for {
		t, ok := p.peek()
		if !ok || t != "-a" {
			return v, nil
		}
		p.pos++
		w, err := p.primary()
		if err != nil {
			return false, err
		}
		v = v && w
	}
}

func (p *testParser) primary() (bool, error) {
	t, ok := p.peek()
	if !ok {
		return false, fmt.Errorf("expected expression")
	}
	switch t {
	case "!":
		p.pos++
		v, err := p.primary()
		return !v, err
	case "(", `\(`:
		p.pos++
		v, err := p.or()
		if err != nil {
			return false, err
		}
		close, ok := p.peek()
		if !ok || (close != ")" && close != `\)`) {
			return false, fmt.Errorf("missing )")
		}
		p.pos++
		return v, nil
	}
	// Unary operators.
	if strings.HasPrefix(t, "-") && len(t) == 2 && p.pos+1 < len(p.toks) {
		op := t
		arg := p.toks[p.pos+1]
		// Binary if the *next* token is a binary operator... unary wins
		// when followed by exactly one operand or a connective.
		if !isBinaryOp(arg) {
			p.pos += 2
			return p.unary(op, arg)
		}
	}
	// Binary operator form: A op B.
	if p.pos+2 < len(p.toks)+1 && p.pos+1 < len(p.toks) && isBinaryOp(p.toks[p.pos+1]) {
		a := p.toks[p.pos]
		op := p.toks[p.pos+1]
		if p.pos+2 >= len(p.toks) {
			return false, fmt.Errorf("missing operand after %q", op)
		}
		b := p.toks[p.pos+2]
		p.pos += 3
		return p.binary(a, op, b)
	}
	// Single operand: true iff non-empty.
	p.pos++
	return t != "", nil
}

func isBinaryOp(s string) bool {
	switch s {
	case "=", "!=", "-eq", "-ne", "-lt", "-le", "-gt", "-ge":
		return true
	}
	return false
}

func (p *testParser) unary(op, arg string) (bool, error) {
	switch op {
	case "-z":
		return arg == "", nil
	case "-n":
		return arg != "", nil
	case "-e":
		return p.c.FS.Exists(p.c.Lookup(arg)), nil
	case "-f":
		fi, err := p.c.FS.Stat(p.c.Lookup(arg))
		return err == nil && !fi.IsDir, nil
	case "-d":
		fi, err := p.c.FS.Stat(p.c.Lookup(arg))
		return err == nil && fi.IsDir, nil
	case "-s":
		fi, err := p.c.FS.Stat(p.c.Lookup(arg))
		return err == nil && fi.Size > 0, nil
	case "-r", "-w", "-x":
		// The VFS has no permission bits; readable/writable iff it exists.
		return p.c.FS.Exists(p.c.Lookup(arg)), nil
	case "-t":
		return false, nil // never a terminal
	}
	return false, fmt.Errorf("unknown operator %q", op)
}

func (p *testParser) binary(a, op, b string) (bool, error) {
	switch op {
	case "=":
		return a == b, nil
	case "!=":
		return a != b, nil
	}
	x, err1 := strconv.ParseInt(a, 10, 64)
	y, err2 := strconv.ParseInt(b, 10, 64)
	if err1 != nil || err2 != nil {
		return false, fmt.Errorf("integer expression expected: %q %s %q", a, op, b)
	}
	switch op {
	case "-eq":
		return x == y, nil
	case "-ne":
		return x != y, nil
	case "-lt":
		return x < y, nil
	case "-le":
		return x <= y, nil
	case "-gt":
		return x > y, nil
	case "-ge":
		return x >= y, nil
	}
	return false, fmt.Errorf("unknown operator %q", op)
}

// envCmd prints the environment, or runs a command with extra NAME=VALUE
// bindings prepended.
func envCmd(c *Context, args []string) int {
	rest := args[1:]
	extra := map[string]string{}
	i := 0
	for i < len(rest) {
		eq := strings.IndexByte(rest[i], '=')
		if eq <= 0 {
			break
		}
		extra[rest[i][:eq]] = rest[i][eq+1:]
		i++
	}
	if i >= len(rest) {
		var lines []string
		if c.Environ != nil {
			lines = c.Environ()
		}
		for k, v := range extra {
			lines = append(lines, k+"="+v)
		}
		sort.Strings(lines)
		lw := newLineWriter(c.Stdout)
		defer lw.Release()
		for _, l := range lines {
			lw.WriteLine([]byte(l))
		}
		lw.Flush()
		return 0
	}
	fn, ok := Lookup(rest[i])
	if !ok {
		return c.Errorf(127, "env: %s: command not found", rest[i])
	}
	sub := *c
	inner := c.Getenv
	sub.Getenv = func(name string) string {
		if v, ok := extra[name]; ok {
			return v
		}
		if inner != nil {
			return inner(name)
		}
		return ""
	}
	return fn(&sub, rest[i:])
}

// duCmd reports file sizes in bytes (one per operand; -s only totals).
func duCmd(c *Context, args []string) int {
	cl, err := spec.Parse(args)
	if err != nil {
		return c.Errorf(2, "du: %v", err)
	}
	if len(cl.Operands) == 0 {
		cl.Operands = []string{"."}
	}
	lw := newLineWriter(c.Stdout)
	defer lw.Release()
	status := 0
	for _, op := range cl.Operands {
		var total int64
		var walk func(p string)
		walk = func(p string) {
			fi, err := c.FS.Stat(p)
			if err != nil {
				status = c.Errorf(1, "du: %v", err)
				return
			}
			total += fi.Size
			if fi.IsDir {
				entries, _ := c.FS.ReadDir(p)
				for _, e := range entries {
					walk(p + "/" + e.Name)
				}
			}
		}
		walk(c.Lookup(op))
		lw.WriteLine([]byte(fmt.Sprintf("%d\t%s", total, op)))
	}
	lw.Flush()
	return status
}

// statCmd prints size, kind, and device for each operand, exposing the
// metadata the JIT probes.
func statCmd(c *Context, args []string) int {
	cl, err := spec.Parse(args)
	if err != nil {
		return c.Errorf(2, "stat: %v", err)
	}
	status := 0
	for _, op := range cl.Operands {
		fi, e := c.FS.Stat(c.Lookup(op))
		if e != nil {
			status = c.Errorf(1, "stat: %v", e)
			continue
		}
		kind := "file"
		if fi.IsDir {
			kind = "directory"
		}
		fmt.Fprintf(c.Stdout, "%s: %s, %d bytes, device %s\n", op, kind, fi.Size, fi.Device)
	}
	return status
}
