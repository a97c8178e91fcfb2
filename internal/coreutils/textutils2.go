package coreutils

import (
	"strings"

	"jash/internal/spec"
)

func init() {
	Register("tac", tacCmd)
	Register("expand", expandCmd)
	Register("unexpand", unexpandCmd)
	Register("tsort", tsortCmd)
}

// tacCmd prints lines in reverse order (a whole-input operation).
func tacCmd(c *Context, args []string) int {
	cl, err := spec.Parse(args)
	if err != nil {
		return c.Errorf(2, "tac: %v", err)
	}
	rs, st := openInputs(c, cl.Operands)
	if rs == nil {
		return st
	}
	lines, e := c.readLines(concatReaders(rs))
	if e != nil {
		return c.Errorf(1, "tac: %v", e)
	}
	lw := newLineWriter(c.Stdout)
	defer lw.Release()
	for i := len(lines) - 1; i >= 0; i-- {
		lw.WriteLine([]byte(lines[i]))
	}
	lw.Flush()
	return 0
}

// expandCmd converts tabs to spaces at -t N stops (default 8).
func expandCmd(c *Context, args []string) int {
	cl, err := spec.Parse(args)
	if err != nil {
		return c.Errorf(2, "expand: %v", err)
	}
	stop := 8
	if v, ok := cl.Value('t'); ok {
		stop, err = atoiPositive(v)
		if err != nil {
			return c.Errorf(2, "expand: invalid tab stop %q", v)
		}
	}
	rs, st := openInputs(c, cl.Operands)
	if rs == nil {
		return st
	}
	lw := newLineWriter(c.Stdout)
	defer lw.Release()
	e := c.forEachLine(concatReaders(rs), func(line []byte) error {
		var b strings.Builder
		col := 0
		for _, ch := range line {
			if ch == '\t' {
				n := stop - col%stop
				b.WriteString(strings.Repeat(" ", n))
				col += n
				continue
			}
			b.WriteByte(ch)
			col++
		}
		lw.WriteLine([]byte(b.String()))
		return nil
	})
	if e != nil {
		return c.Errorf(1, "expand: %v", e)
	}
	lw.Flush()
	return 0
}

// unexpandCmd converts leading runs of spaces back to tabs (-t N stops).
func unexpandCmd(c *Context, args []string) int {
	cl, err := spec.Parse(args)
	if err != nil {
		return c.Errorf(2, "unexpand: %v", err)
	}
	stop := 8
	if v, ok := cl.Value('t'); ok {
		stop, err = atoiPositive(v)
		if err != nil {
			return c.Errorf(2, "unexpand: invalid tab stop %q", v)
		}
	}
	rs, st := openInputs(c, cl.Operands)
	if rs == nil {
		return st
	}
	lw := newLineWriter(c.Stdout)
	defer lw.Release()
	e := c.forEachLine(concatReaders(rs), func(line []byte) error {
		spaces := 0
		for spaces < len(line) && line[spaces] == ' ' {
			spaces++
		}
		var b strings.Builder
		for i := 0; i < spaces/stop; i++ {
			b.WriteByte('\t')
		}
		b.WriteString(strings.Repeat(" ", spaces%stop))
		b.Write(line[spaces:])
		lw.WriteLine([]byte(b.String()))
		return nil
	})
	if e != nil {
		return c.Errorf(1, "unexpand: %v", e)
	}
	lw.Flush()
	return 0
}

// tsortCmd topologically sorts a partial order given as pairs of tokens.
func tsortCmd(c *Context, args []string) int {
	cl, err := spec.Parse(args)
	if err != nil {
		return c.Errorf(2, "tsort: %v", err)
	}
	rs, st := openInputs(c, cl.Operands)
	if rs == nil {
		return st
	}
	var tokens []string
	e := c.forEachLine(concatReaders(rs), func(line []byte) error {
		tokens = append(tokens, splitFields(string(line))...)
		return nil
	})
	if e != nil {
		return c.Errorf(1, "tsort: %v", e)
	}
	if len(tokens)%2 != 0 {
		return c.Errorf(1, "tsort: odd number of tokens")
	}
	// Kahn's algorithm with insertion-ordered nodes for determinism.
	var order []string
	indeg := map[string]int{}
	succ := map[string][]string{}
	seen := map[string]bool{}
	addNode := func(n string) {
		if !seen[n] {
			seen[n] = true
			order = append(order, n)
			indeg[n] = 0
		}
	}
	for i := 0; i < len(tokens); i += 2 {
		a, b := tokens[i], tokens[i+1]
		addNode(a)
		addNode(b)
		if a != b {
			succ[a] = append(succ[a], b)
			indeg[b]++
		}
	}
	lw := newLineWriter(c.Stdout)
	defer lw.Release()
	emitted := 0
	for emitted < len(order) {
		progressed := false
		for _, n := range order {
			if indeg[n] != 0 {
				continue
			}
			indeg[n] = -1 // emitted
			emitted++
			progressed = true
			lw.WriteLine([]byte(n))
			for _, m := range succ[n] {
				indeg[m]--
			}
		}
		if !progressed {
			lw.Flush()
			return c.Errorf(1, "tsort: input contains a cycle")
		}
	}
	lw.Flush()
	return 0
}

func atoiPositive(s string) (int, error) {
	n := 0
	if s == "" {
		return 0, errLine("empty number")
	}
	for i := 0; i < len(s); i++ {
		if s[i] < '0' || s[i] > '9' {
			return 0, errLine("not a number")
		}
		n = n*10 + int(s[i]-'0')
	}
	if n <= 0 {
		return 0, errLine("must be positive")
	}
	return n, nil
}
