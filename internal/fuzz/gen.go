// Package fuzz is the differential fuzzing and crash-triage subsystem:
// a seeded grammar-based generator of shell programs over the syntax
// package's AST, a multi-oracle harness that executes each program under
// every evaluation path of the stack (the interpreter with its fast paths
// off and on, JIT dataflow, effect-proven list parallelism, and the
// jashc-style AOT planner) inside a sandboxed VFS, a chaos mode replaying
// programs under seeded fault injection, and a triage pipeline — signature
// bucketing plus a delta-debugging minimizer — that turns every divergence,
// panic, hang, or goroutine leak into a minimal reproducer.
//
// The ShellFuzzer insight applied to Jash: hand-written suites test the
// scenarios we thought of; the generator tests the ones we did not, and
// the five oracles must agree byte-for-byte on all of them.
package fuzz

import (
	"fmt"
	"strings"

	"jash/internal/syntax"
	"jash/internal/vfs"
	"jash/internal/workload"
)

// Config parameterizes one generated program.
type Config struct {
	// Seed drives every random choice; the same seed yields the same
	// program and fixture, byte for byte.
	Seed uint64
	// MaxStmts bounds the top-level statement count (default 8).
	MaxStmts int
	// MaxDepth bounds compound-command nesting (default 3).
	MaxDepth int
	// Mutating enables filesystem-mutating commands (rm, mv, cp, tee,
	// mkdir, touch, output redirections). Default profile enables them;
	// disable for pure-streaming corpora.
	Mutating bool
}

func (c Config) withDefaults() Config {
	if c.MaxStmts <= 0 {
		c.MaxStmts = 8
	}
	if c.MaxDepth <= 0 {
		c.MaxDepth = 3
	}
	return c
}

// DefaultConfig is the smoke-test generator profile.
func DefaultConfig(seed uint64) Config {
	return Config{Seed: seed, MaxStmts: 8, MaxDepth: 3, Mutating: true}
}

// Fixture is the sandboxed VFS image a generated program starts from:
// path → contents. Every oracle builds its own FS from the same fixture,
// so filesystem effects are comparable afterwards.
type Fixture map[string]string

// Build materializes the fixture into a fresh in-memory filesystem.
func (fx Fixture) Build() *vfs.FS {
	fs := vfs.New()
	for p, data := range fx {
		fs.WriteFile(p, []byte(data))
	}
	return fs
}

// Program is one generated episode input: the AST, its printed source,
// and the filesystem image it runs against.
type Program struct {
	Seed    uint64
	Script  *syntax.Script
	Source  string
	Fixture Fixture
}

// Generate produces a deterministic program from the config. The grammar
// covers pipelines, and-or lists, redirections (including here-docs),
// if/for/while/case, functions, subshells, brace groups, traps,
// variables, parameter expansion, command substitution, arithmetic, and
// the coreutils/builtin surface — weighted toward the constructs the
// optimizing paths interpose on.
func Generate(cfg Config) Program {
	cfg = cfg.withDefaults()
	g := &gen{cfg: cfg, rng: workload.NewRNG(cfg.Seed), counters: map[string]bool{}}
	g.fixture()
	n := 2 + g.rng.Intn(cfg.MaxStmts-1)
	var stmts []*syntax.Stmt
	// Now and then a shell option first: set -u and set -f change what every
	// later word expands to, for the interpreter and for the planner's
	// early expansion alike.
	switch g.rng.Intn(16) {
	case 0:
		stmts = append(stmts, stmtOf(argv("set", "-u")))
	case 1:
		stmts = append(stmts, stmtOf(argv("set", "-f")))
	}
	for len(stmts) < n {
		stmts = append(stmts, g.stmt(0)...)
	}
	sc := &syntax.Script{Stmts: stmts}
	src := syntax.Print(sc)
	// The program is the parse of its own text — the tree every oracle
	// runs, here-document bodies lexed into words and all. (The round-trip
	// test holds that the text parses.)
	if parsed, err := syntax.Parse(src); err == nil {
		sc = parsed
	}
	return Program{Seed: cfg.Seed, Script: sc, Source: src, Fixture: g.fx}
}

// gen is the generator state for one program.
type gen struct {
	cfg  Config
	rng  *workload.RNG
	fx   Fixture
	vars []string // shell variables assigned so far
	// counters are the while-loop counters among vars: arithmetic never
	// assigns them, so every loop still ends.
	counters map[string]bool
	funcs    []string // functions declared so far
	files    []string // fixture input files
	nVar     int
	nFunc    int
	nOut     int
	nLine    int
}

// fixture seeds the input files the program's commands read. Contents are
// derived from the seed so two oracles (and two runs) see identical data.
func (g *gen) fixture() {
	g.fx = Fixture{}
	words := workload.Vocabulary(40)
	mk := func(path string, lines, perLine int) {
		var b strings.Builder
		for i := 0; i < lines; i++ {
			for j := 0; j < perLine; j++ {
				if j > 0 {
					b.WriteByte(' ')
				}
				b.WriteString(words[g.rng.Intn(len(words))])
			}
			b.WriteByte('\n')
		}
		g.fx[path] = b.String()
		g.files = append(g.files, path)
	}
	mk("/data/a.txt", 8+g.rng.Intn(40), 1+g.rng.Intn(4))
	mk("/data/b.txt", 5+g.rng.Intn(20), 1+g.rng.Intn(3))
	mk("/data/sub/c.txt", 3+g.rng.Intn(10), 1+g.rng.Intn(3))
	// A numeric column file for sort -n / cut / awk-ish consumers.
	var nums strings.Builder
	for i, n := 0, 6+g.rng.Intn(20); i < n; i++ {
		fmt.Fprintf(&nums, "%d %s\n", g.rng.Intn(500), words[g.rng.Intn(len(words))])
	}
	g.fx["/data/nums.txt"] = nums.String()
	g.files = append(g.files, "/data/nums.txt")
	g.fx["/data/empty.txt"] = ""
	g.files = append(g.files, "/data/empty.txt")
	// What hiddenFlowLine's `read v </data/ptr.txt` leaves in v (not in g.files).
	g.fx["/data/ptr.txt"] = hiddenReadTarget + "\n"
}

// pick returns an index into weights, chosen with the given relative odds.
func (g *gen) pick(weights ...int) int {
	total := 0
	for _, w := range weights {
		total += w
	}
	n := g.rng.Intn(total)
	for i, w := range weights {
		if n < w {
			return i
		}
		n -= w
	}
	return len(weights) - 1
}

func (g *gen) file() string { return g.files[g.rng.Intn(len(g.files))] }

func (g *gen) outPath() string {
	g.nOut++
	return fmt.Sprintf("/tmp/out%d.txt", g.nOut)
}

func (g *gen) newVar() string {
	g.nVar++
	name := fmt.Sprintf("v%d", g.nVar)
	g.vars = append(g.vars, name)
	return name
}

// varName returns an already-assigned variable, or assigns nothing and
// returns a (possibly unset) fallback name when none exist yet.
func (g *gen) varName() string {
	if len(g.vars) == 0 {
		return "unset0"
	}
	return g.vars[g.rng.Intn(len(g.vars))]
}

var safeLiterals = []string{
	"alpha", "beta", "gamma", "delta", "unix", "shell", "pipe", "x", "y",
	"0", "1", "2", "7", "42", "-n", "a-z", "A-Z", "the", "of", "stream",
}

func (g *gen) literal() string { return safeLiterals[g.rng.Intn(len(safeLiterals))] }

// ---- word grammar ----

func lit(s string) *syntax.Word {
	return &syntax.Word{Parts: []syntax.WordPart{&syntax.Lit{Value: s}}}
}

func word(parts ...syntax.WordPart) *syntax.Word { return &syntax.Word{Parts: parts} }

// wordFor produces one argument word: literals most of the time, with
// quoted forms, parameter expansions, command substitutions, and
// arithmetic mixed in.
func (g *gen) wordFor(depth int) *syntax.Word {
	switch g.pick(10, 3, 3, 4, 2, 2, 2) {
	case 0:
		return lit(g.literal())
	case 1:
		return word(&syntax.SglQuoted{Value: g.literal() + " " + g.literal()})
	case 2:
		return word(&syntax.DblQuoted{Parts: []syntax.WordPart{
			&syntax.Lit{Value: g.literal() + "-"},
			&syntax.ParamExp{Name: g.varName(), Brace: g.rng.Intn(2) == 0},
		}})
	case 3:
		return word(&syntax.ParamExp{Name: g.varName()})
	case 4:
		return g.paramOpWord()
	case 5:
		if depth < g.cfg.MaxDepth {
			return word(&syntax.CmdSubst{
				Stmts:     g.stmtList(depth+1, 1),
				Backquote: g.rng.Intn(4) == 0,
			})
		}
		return lit(g.literal())
	default:
		return word(arith(g.arithExpr()))
	}
}

// arith is the node the parser builds for $((expr)).
func arith(expr string) *syntax.ArithExp {
	a, err := syntax.NewArithExp(expr)
	if err != nil {
		panic(err) // the generator writes only expressions that parse
	}
	return a
}

// paramOpWord exercises the ${x...} operator sublanguage.
func (g *gen) paramOpWord() *syntax.Word {
	ops := []syntax.ParamOp{
		syntax.ParamLength, syntax.ParamDefault, syntax.ParamAssign,
		syntax.ParamAlt, syntax.ParamTrimSuffix, syntax.ParamTrimSuffixLong,
		syntax.ParamTrimPrefix, syntax.ParamTrimPrefixLong,
	}
	op := ops[g.rng.Intn(len(ops))]
	pe := &syntax.ParamExp{Name: g.varName(), Op: op, Brace: true}
	if op != syntax.ParamLength {
		// Colon variants exist only for default/assign/alt (`:-`, `:=`,
		// `:+`); the trim operators never take one.
		switch op {
		case syntax.ParamDefault, syntax.ParamAssign, syntax.ParamAlt:
			pe.Colon = g.rng.Intn(2) == 0
		}
		pe.Word = lit(g.literal())
	}
	return word(pe)
}

// arithExpr covers the arithmetic grammar: the binary operators, && || and
// ?: with an assignment or a division in the operand that may not run, and
// plain and compound assignment to a variable of the program.
func (g *gen) arithExpr() string {
	a, b := g.rng.Intn(20), 1+g.rng.Intn(9)
	switch g.pick(3, 2, 2, 1, 1, 2, 2, 2, 2, 2) {
	case 0:
		return fmt.Sprintf("%d + %d", a, b)
	case 1:
		return fmt.Sprintf("%d * %d", a, b)
	case 2:
		return fmt.Sprintf("%d %% %d", a, b)
	case 3:
		return fmt.Sprintf("(%d - %d) / %d", a*3, b, b)
	case 4:
		if len(g.vars) > 0 {
			return fmt.Sprintf("%s + %d", g.varName(), b)
		}
		return fmt.Sprintf("%d - %d", a, b)
	case 5:
		return fmt.Sprintf("%d && (%s)", a%2, g.arithAssign())
	case 6:
		return fmt.Sprintf("%d || (%s)", a%2, g.arithAssign())
	case 7:
		return fmt.Sprintf("%s > %d ? (%s) : (%s)", g.varName(), b, g.arithAssign(), g.arithAssign())
	case 8:
		return fmt.Sprintf("(%s)", g.arithAssign())
	default:
		// The divisor is 0 whenever the variable is unset or holds a word.
		v := g.varName()
		return fmt.Sprintf("%s && %d / %s", v, a, v)
	}
}

// arithAssign is a plain or compound arithmetic assignment to a variable
// assigned earlier (possibly to a file path: see fileVarStmt).
func (g *gen) arithAssign() string {
	ops := []string{"=", "=", "+=", "-=", "*=", "/=", "%=", "<<=", ">>=", "&=", "|=", "^="}
	name := g.varName()
	if g.counters[name] {
		name = "unset0"
	}
	return fmt.Sprintf("%s %s %d", name, ops[g.rng.Intn(len(ops))], 1+g.rng.Intn(9))
}

// ---- command grammar ----

func simple(args ...*syntax.Word) *syntax.SimpleCommand {
	return &syntax.SimpleCommand{Args: args}
}

func argv(names ...string) *syntax.SimpleCommand {
	ws := make([]*syntax.Word, len(names))
	for i, s := range names {
		ws[i] = lit(s)
	}
	return simple(ws...)
}

// sourceCmd generates a command that produces output without stdin.
func (g *gen) sourceCmd(depth int) *syntax.SimpleCommand {
	switch g.pick(6, 4, 3, 3, 3, 2, 2, 2, 2, 1, 1) {
	case 0:
		args := []*syntax.Word{lit("echo")}
		for i, n := 0, 1+g.rng.Intn(3); i < n; i++ {
			args = append(args, g.wordFor(depth))
		}
		return simple(args...)
	case 1:
		return argv("cat", g.file())
	case 2:
		return g.withFile(g.grepCmd())
	case 3:
		return g.withFile(g.sortCmd())
	case 4:
		return g.withFile(g.headCmd())
	case 5:
		return argv("wc", "-l", g.file())
	case 6:
		return argv("seq", "1", fmt.Sprintf("%d", 2+g.rng.Intn(9)))
	case 7:
		return simple(lit("printf"), word(&syntax.SglQuoted{Value: "%s\\n"}),
			g.wordFor(depth), lit(g.literal()))
	case 8:
		return simple(lit("cut"), lit("-d"), word(&syntax.SglQuoted{Value: " "}),
			lit("-f"), lit("1"), lit("/data/nums.txt"))
	case 9:
		return argv("ls", "/data")
	default:
		return argv("tail", "-n", fmt.Sprintf("%d", 1+g.rng.Intn(5)), g.file())
	}
}

func (g *gen) grepPattern() string {
	pats := []string{"the", "a", "unix", "shell", "z", "stream", "[aeiou]", "^t"}
	return pats[g.rng.Intn(len(pats))]
}

// grepCmd, sortCmd, headCmd and cutCmd spell their flags detached,
// clustered (a value flag ending the cluster) and attached (-n3), so every
// shape of the argv grammar reaches the planner and the utilities.
func (g *gen) grepCmd() *syntax.SimpleCommand {
	switch g.rng.Intn(5) {
	case 0:
		return argv("grep", "-v", g.grepPattern())
	case 1:
		return argv("grep", "-ie", g.grepPattern())
	}
	return argv("grep", g.grepPattern())
}

func (g *gen) sortCmd() *syntax.SimpleCommand {
	switch g.rng.Intn(6) {
	case 0:
		return argv("sort", "-r")
	case 1:
		return argv("sort", "-rk1")
	case 2:
		return argv("sort", "-t:", "-k2")
	}
	return argv("sort")
}

func (g *gen) headCmd() *syntax.SimpleCommand {
	n := 1 + g.rng.Intn(9)
	if g.rng.Intn(3) == 0 {
		return argv("head", fmt.Sprintf("-n%d", n))
	}
	return argv("head", "-n", fmt.Sprintf("%d", n))
}

func (g *gen) cutCmd() *syntax.SimpleCommand {
	if g.rng.Intn(3) == 0 {
		return argv("cut", "-sd,", "-f1")
	}
	return argv("cut", "-c", "1-3")
}

// scriptCmds are the sed and awk programs a stage draws, program last:
// what the subset runs (addresses, y, d, p, q and -n; patterns, printf,
// if, next, NR, END, -F and -v), then programs just outside it or that a
// splitter blind to s's delimiters misreads. Every engine must run the
// first alike and refuse the rest alike, with one diagnostic.
var scriptCmds = [][]string{
	{"sed", "s/the/THE/g"}, {"sed", "-n", "/e/p"}, {"sed", "2d"}, {"sed", "$d"},
	{"sed", "3q"}, {"sed", "y/abc/xyz/"}, {"sed", "/q/d;s/a/&&/2"},
	{"awk", "{print $1}"}, {"awk", "-F", "e", "{print $2}"}, {"awk", "$1 > 100 {print $2}"},
	{"awk", "/a/{next} {print}"}, {"awk", `{printf "%s|%d\n", $1, $1 * 2}`},
	{"awk", `{if (length($1) > 3) print $1; else print "short"}`},
	{"awk", "{print NR, $0}"}, {"awk", `{print "END"}`},
	{"awk", "-v", "k=2", "$1 > k {print} END {print NR}"},
	{"awk", "{n++; print n}"}, {"sed", "/a/,/b/p"}, {"sed", "s/a;b/X/"},
}

func (g *gen) scriptCmd() *syntax.SimpleCommand {
	s := scriptCmds[g.rng.Intn(len(scriptCmds))]
	c := argv(s[:len(s)-1]...)
	c.Args = append(c.Args, word(&syntax.SglQuoted{Value: s[len(s)-1]}))
	return c
}

// withFile appends a fixture file operand to a filter, which then reads
// the file and not its stdin.
func (g *gen) withFile(c *syntax.SimpleCommand) *syntax.SimpleCommand {
	c.Args = append(c.Args, lit(g.file()))
	return c
}

// stageCmd generates a stdin→stdout filter suitable as a pipeline stage.
func (g *gen) stageCmd() *syntax.SimpleCommand {
	switch g.pick(4, 4, 3, 3, 3, 3, 2, 2, 2, 2, 1, 1) {
	case 0:
		if g.rng.Intn(2) == 0 {
			return argv("tr", "a-z", "A-Z")
		}
		return argv("tr", "-d", "aeiou")
	case 1:
		return g.grepCmd()
	case 2:
		return g.sortCmd()
	case 3:
		if g.rng.Intn(2) == 0 {
			return argv("uniq")
		}
		return argv("uniq", "-c")
	case 4:
		flags := []string{"-l", "-w", "-c"}
		return argv("wc", flags[g.rng.Intn(len(flags))])
	case 5:
		return g.headCmd()
	case 6:
		return g.cutCmd()
	case 7:
		return argv("rev")
	case 8:
		return argv("cat", "-n")
	case 9:
		return g.scriptCmd()
	case 10:
		return argv("fold", "-w", "8")
	default:
		// A later stage that names a file ignores its pipe: a planner
		// that misreads which word is the file replicates it per lane.
		switch g.rng.Intn(4) {
		case 0:
			return g.withFile(g.grepCmd())
		case 1, 2:
			return g.withFile(g.scriptCmd())
		}
		return g.withFile(g.sortCmd())
	}
}

// mutatorCmd generates a filesystem-mutating command.
func (g *gen) mutatorCmd() *syntax.SimpleCommand {
	switch g.pick(3, 2, 2, 2, 2) {
	case 0:
		return argv("touch", g.outPath())
	case 1:
		return argv("mkdir", "-p", fmt.Sprintf("/tmp/d%d", g.rng.Intn(4)))
	case 2:
		return argv("cp", g.file(), g.outPath())
	case 3:
		return argv("rm", "-f", fmt.Sprintf("/tmp/out%d.txt", 1+g.rng.Intn(3)))
	default:
		return argv("mv", g.outPath(), g.outPath())
	}
}

// pipelineCmd builds a 1–4 stage pipeline with optional redirections, or
// now and then an endless one.
func (g *gen) pipelineCmd(depth int) *syntax.Pipeline {
	if g.rng.Intn(12) == 0 {
		return g.endlessPipeline()
	}
	stages := 1 + g.pick(4, 3, 2, 1)
	cmds := make([]syntax.Command, 0, stages)
	first := g.sourceCmd(depth)
	// Sometimes feed the first stage from a redirect instead of operands.
	if g.rng.Intn(4) == 0 {
		first = g.stageCmd()
		first.Redirections = append(first.Redirections, &syntax.Redirect{
			N: -1, Op: syntax.RedirIn, Target: lit(g.file()),
		})
	}
	cmds = append(cmds, first)
	for i := 1; i < stages; i++ {
		cmds = append(cmds, g.stageCmd())
	}
	if g.cfg.Mutating && g.rng.Intn(5) == 0 {
		// Route the pipeline into a file (or append, or through tee).
		last := cmds[len(cmds)-1].(*syntax.SimpleCommand)
		if g.rng.Intn(3) == 0 {
			cmds = append(cmds, argv("tee", g.outPath()))
		} else {
			op := syntax.RedirOut
			if g.rng.Intn(3) == 0 {
				op = syntax.RedirAppend
			}
			last.Redirections = append(last.Redirections, &syntax.Redirect{
				N: -1, Op: op, Target: lit(g.outPath()),
			})
		}
	}
	return &syntax.Pipeline{Cmds: cmds, Negated: g.rng.Intn(12) == 0}
}

// endlessPipeline puts an unbounded producer (yes, seq 1 N with N ≥ 10⁶,
// `while :; do echo …; done`) in front of 0–2 filters that pass each line
// on and an early-closing consumer (head -nK, sed Kq): under POSIX it ends
// only because the consumer's exit ends every writer upstream of it.
func (g *gen) endlessPipeline() *syntax.Pipeline {
	w := []string{"y", "unix", "stream", "42"}[g.rng.Intn(4)]
	cmds := []syntax.Command{argv("yes", w)}
	switch g.rng.Intn(3) {
	case 1:
		cmds[0] = argv("seq", "1", fmt.Sprint(1_000_000*(1+g.rng.Intn(30))))
	case 2:
		cmds[0] = &syntax.WhileClause{Cond: []*syntax.Stmt{stmtOf(argv(":"))},
			Body: []*syntax.Stmt{stmtOf(argv("echo", w))}}
	}
	for i := g.rng.Intn(3); i > 0; i-- {
		switch g.rng.Intn(6) {
		case 0:
			cmds = append(cmds, simple(lit("awk"), word(&syntax.SglQuoted{Value: "{print $1}"})))
		default:
			cmds = append(cmds, argv([][]string{{"tr", "a-z", "A-Z"}, {"rev"}, {"cut", "-c", "1-3"},
				{"grep", "-v", "z"}, {"sed", "s/e/E/"}}[g.rng.Intn(5)]...))
		}
	}
	k := 1 + g.rng.Intn(5)
	consumer := argv("head", "-n", fmt.Sprint(k))
	if g.rng.Intn(2) == 0 {
		consumer = argv("sed", fmt.Sprintf("%dq", k))
	}
	return &syntax.Pipeline{Cmds: append(cmds, consumer)}
}

// heredocCmd builds `cat <<EOF ... EOF` with an optionally quoted delimiter.
func (g *gen) heredocCmd() *syntax.SimpleCommand {
	quoted := g.rng.Intn(2) == 0
	var b strings.Builder
	for i, n := 0, 1+g.rng.Intn(3); i < n; i++ {
		if !quoted && g.rng.Intn(2) == 0 && len(g.vars) > 0 {
			fmt.Fprintf(&b, "line %d has $%s\n", i, g.varName())
		} else {
			fmt.Fprintf(&b, "line %d %s\n", i, g.literal())
		}
	}
	c := argv("cat")
	delim := lit("EOF")
	if quoted {
		delim = word(&syntax.SglQuoted{Value: "EOF"}) // the parser reads Quoted off the delimiter
	}
	c.Redirections = append(c.Redirections, &syntax.Redirect{
		N: -1, Op: syntax.RedirHeredoc, Target: delim, Heredoc: b.String(),
	})
	return c
}

// testCmd builds a `test` invocation usable as a condition.
func (g *gen) testCmd() *syntax.SimpleCommand {
	switch g.pick(3, 3, 2, 2, 2) {
	case 0:
		return argv("test", "-e", g.file())
	case 1:
		return simple(lit("test"),
			word(&syntax.DblQuoted{Parts: []syntax.WordPart{&syntax.ParamExp{Name: g.varName()}}}),
			lit("="), lit(g.literal()))
	case 2:
		return argv("test", fmt.Sprintf("%d", g.rng.Intn(9)), "-lt", fmt.Sprintf("%d", g.rng.Intn(9)))
	case 3:
		return argv("grep", "-q", g.grepPattern(), g.file())
	default:
		if g.rng.Intn(2) == 0 {
			return argv("true")
		}
		return argv("false")
	}
}

func stmtOf(cmd syntax.Command) *syntax.Stmt {
	return &syntax.Stmt{AndOr: &syntax.AndOr{First: &syntax.Pipeline{Cmds: []syntax.Command{cmd}}}}
}

func stmtOfPipe(pl *syntax.Pipeline) *syntax.Stmt {
	return &syntax.Stmt{AndOr: &syntax.AndOr{First: pl}}
}

// stmtList generates a short statement list for compound bodies.
func (g *gen) stmtList(depth, max int) []*syntax.Stmt {
	n := 1 + g.rng.Intn(max)
	var out []*syntax.Stmt
	for len(out) < n {
		out = append(out, g.stmt(depth)...)
	}
	return out
}

// stmt generates one (occasionally a few) top-level statements.
func (g *gen) stmt(depth int) []*syntax.Stmt {
	deep := depth >= g.cfg.MaxDepth
	choice := g.pick(
		14,                       // 0 pipeline
		5,                        // 1 assignment
		3,                        // 2 and-or list
		boolW(!deep, 3),          // 3 if
		boolW(!deep, 3),          // 4 for
		boolW(!deep, 2),          // 5 while (bounded)
		boolW(!deep, 2),          // 6 case
		boolW(!deep, 2),          // 7 function decl + call
		boolW(!deep, 2),          // 8 subshell
		boolW(!deep, 2),          // 9 brace group
		2,                        // 10 heredoc
		boolW(g.cfg.Mutating, 3), // 11 mutator
		1,                        // 12 trap
		1,                        // 13 background
		boolW(g.cfg.Mutating, 2), // 14 file operand behind a variable
		// 15 several statements on one line; 16 one such line where value
		// flow runs through a hidden assignment.
		boolW(depth == 0, 3), boolW(depth == 0 && g.cfg.Mutating, 3),
	)
	switch choice {
	case 0:
		return []*syntax.Stmt{stmtOfPipe(g.pipelineCmd(depth))}
	case 1:
		return []*syntax.Stmt{g.assignStmt(depth)}
	case 2:
		return []*syntax.Stmt{g.andOrStmt(depth)}
	case 3:
		return []*syntax.Stmt{g.ifStmt(depth)}
	case 4:
		return []*syntax.Stmt{g.forStmt(depth)}
	case 5:
		return g.whileStmts(depth)
	case 6:
		return []*syntax.Stmt{g.caseStmt(depth)}
	case 7:
		return g.funcStmts(depth)
	case 8:
		return []*syntax.Stmt{stmtOf(&syntax.Subshell{Body: g.stmtList(depth+1, 2)})}
	case 9:
		return []*syntax.Stmt{stmtOf(&syntax.BraceGroup{Body: g.stmtList(depth+1, 2)})}
	case 10:
		return []*syntax.Stmt{stmtOf(g.heredocCmd())}
	case 11:
		return []*syntax.Stmt{stmtOf(g.mutatorCmd())}
	case 12:
		return []*syntax.Stmt{stmtOf(simple(lit("trap"),
			word(&syntax.SglQuoted{Value: "echo trapped"}), lit("EXIT")))}
	case 13:
		st := stmtOfPipe(g.pipelineCmd(depth))
		st.Background = true
		return []*syntax.Stmt{st}
	case 14:
		return []*syntax.Stmt{g.fileVarStmt()}
	case 15:
		var line []*syntax.Stmt
		for n := 3 + g.rng.Intn(4); len(line) < n; {
			line = append(line, g.stmt(1)...)
		}
		return g.oneLine(line)
	default:
		return g.hiddenFlowLine()
	}
}

// oneLine marks top-level statements as starting on one source line:
// syntax.Print joins them with `;`, and the list planner takes the line as
// one unit, control flow and all.
func (g *gen) oneLine(stmts []*syntax.Stmt) []*syntax.Stmt {
	g.nLine++
	for _, st := range stmts {
		st.Position.Line = g.nLine
	}
	return stmts
}

const hiddenReadTarget = "/tmp/hidden.txt"

// hiddenFlowLine emits one line on which a path-valued variable is
// re-assigned where no assignment statement shows it — by eval, by unset
// and ${v=w}, by arithmetic, by read — under control flow, in a function
// with a compound body or in a here-document body, and then names the file
// one statement uses while the next touches the file it now names. The two
// commute only if the variable still held the old path, so a list planner
// whose value flow misses the assignment races them. (Written as text: the
// shapes are fixed, only the names vary.)
func (g *gen) hiddenFlowLine() []*syntax.Stmt {
	v, target, n := g.newVar(), g.outPath(), 1+g.rng.Intn(9)
	var hidden, doc string // the assignment; its spelling inside a here-document
	switch g.rng.Intn(4) {
	case 0:
		hidden = fmt.Sprintf("eval '%s=%s'", v, target)
	case 1:
		hidden, doc = fmt.Sprintf("unset %s; : ${%[1]s=%s}", v, target), fmt.Sprintf("unset %s; : <<E", v)
	case 2:
		target = fmt.Sprintf("/%d", n)
		hidden, doc = fmt.Sprintf(": $((%s = %d))", v, n), ": <<E"
	default:
		target = hiddenReadTarget
		hidden = fmt.Sprintf("read %s </data/ptr.txt", v)
	}
	body, wrap := "", g.rng.Intn(7)
	if doc != "" && wrap != 6 && g.rng.Intn(3) == 0 { // (6 puts the assignment on another line)
		// `: <<E` expands the body and reads none of it.
		body = hidden[strings.LastIndex(hidden, ": ")+2:] + "\nE\n"
		hidden = doc
	}
	decl := ""
	switch wrap {
	case 1:
		hidden = "if true; then " + hidden + "; fi"
	case 2:
		hidden = fmt.Sprintf("for %s in 1; do %s; done", g.newVar(), hidden)
	case 3:
		hidden = fmt.Sprintf("%s=; while test -z \"$%[1]s\"; do %[1]s=1; %s; done", g.newVar(), hidden)
	case 4:
		hidden = "case x in x) " + hidden + " ;; esac"
	case 5:
		hidden = "true && { " + hidden + "; }"
	case 6:
		g.nFunc++
		decl = fmt.Sprintf("f%d() { if true; then %s; fi; }\n", g.nFunc, hidden)
		hidden = fmt.Sprintf("f%d", g.nFunc)
	}
	// One statement goes through the variable, its neighbour names the
	// file outright: as an operand read against a write, or as a redirect
	// target written against a read.
	use := fmt.Sprintf("cat $%s; echo %s >%s", v, g.literal(), target)
	if g.rng.Intn(2) == 0 {
		use = fmt.Sprintf("echo %s >$%s; cat %s", g.literal(), v, target)
	}
	sc, err := syntax.Parse(fmt.Sprintf("%s%s=%s; %s; %s\n%s", decl, v, g.file(), hidden, use, body))
	if err != nil {
		panic(err) // a template above is malformed
	}
	if decl != "" {
		return append(g.oneLine(sc.Stmts[:1]), g.oneLine(sc.Stmts[1:])...)
	}
	return g.oneLine(sc.Stmts)
}

// fileVarStmt emits the list where value flow decides the order: a
// variable holding a fixture path, an arithmetic word that may rebind it to
// a small number, a read through the variable, and a write to the file that
// number names. The last two commute only if the variable still holds the
// path, so a list planner that misses the arithmetic assignment races them.
func (g *gen) fileVarStmt() *syntax.Stmt {
	name := g.newVar()
	n := 1 + g.rng.Intn(9)
	forms := []string{"%s = %d", "%s |= %d", "0 || (%s = %d)", "1 && (%s += %d)",
		"1 || (%s = %d)", "0 ? 0 : (%s = %d)"}
	rebind := fmt.Sprintf(forms[g.rng.Intn(len(forms))], name, n)
	write := simple(lit("echo"), lit(g.literal()))
	write.Redirections = []*syntax.Redirect{{N: -1, Op: syntax.RedirOut, Target: lit(fmt.Sprintf("/%d", n))}}
	return stmtOf(&syntax.BraceGroup{Body: []*syntax.Stmt{
		stmtOf(&syntax.SimpleCommand{Assigns: []*syntax.Assign{{Name: name, Value: lit(g.file())}}}),
		stmtOf(simple(lit(":"), word(arith(rebind)))),
		stmtOf(simple(lit("cat"), word(&syntax.ParamExp{Name: name}))),
		stmtOf(write),
	}})
}

func boolW(ok bool, w int) int {
	if ok {
		return w
	}
	return 0
}

func (g *gen) assignStmt(depth int) *syntax.Stmt {
	name := g.newVar()
	var val *syntax.Word
	switch g.pick(5, 3, 2, 2) {
	case 0:
		val = lit(g.literal())
	case 1:
		val = word(arith(g.arithExpr()))
	case 2:
		if depth < g.cfg.MaxDepth {
			val = word(&syntax.CmdSubst{Stmts: []*syntax.Stmt{stmtOf(g.sourceCmd(depth + 1))}})
			break
		}
		val = lit(g.literal())
	default:
		val = word(&syntax.DblQuoted{Parts: []syntax.WordPart{
			&syntax.ParamExp{Name: g.varName()}, &syntax.Lit{Value: "." + g.literal()},
		}})
	}
	return stmtOf(&syntax.SimpleCommand{Assigns: []*syntax.Assign{{Name: name, Value: val}}})
}

func (g *gen) andOrStmt(depth int) *syntax.Stmt {
	ao := &syntax.AndOr{First: g.pipelineCmd(depth)}
	for i, n := 0, 1+g.rng.Intn(2); i < n; i++ {
		op := syntax.AndOp
		if g.rng.Intn(2) == 0 {
			op = syntax.OrOp
		}
		ao.Rest = append(ao.Rest, syntax.AndOrPart{Op: op, Pipe: g.pipelineCmd(depth)})
	}
	return &syntax.Stmt{AndOr: ao}
}

func (g *gen) ifStmt(depth int) *syntax.Stmt {
	c := &syntax.IfClause{
		Cond: []*syntax.Stmt{stmtOf(g.testCmd())},
		Then: g.stmtList(depth+1, 2),
	}
	if g.rng.Intn(2) == 0 {
		c.Else = g.stmtList(depth+1, 2)
	}
	return stmtOf(c)
}

func (g *gen) forStmt(depth int) *syntax.Stmt {
	name := g.newVar()
	var words []*syntax.Word
	if g.rng.Intn(4) == 0 {
		// Glob iteration over the fixture tree.
		words = []*syntax.Word{lit("/data/*.txt")}
	} else {
		for i, n := 0, 2+g.rng.Intn(3); i < n; i++ {
			words = append(words, lit(g.literal()))
		}
	}
	body := g.stmtList(depth+1, 2)
	// Make the loop variable observable in at least one body statement.
	body = append(body, stmtOf(simple(lit("echo"), lit("it:"),
		word(&syntax.ParamExp{Name: name}))))
	return stmtOf(&syntax.ForClause{Name: name, InPresent: true, Words: words, Body: body})
}

// whileStmts emits the bounded counter idiom: i=0; while test $i -lt N;
// do body; i=$((i+1)); done — the only while form the generator produces,
// so every program terminates.
func (g *gen) whileStmts(depth int) []*syntax.Stmt {
	name := g.newVar()
	g.counters[name] = true
	limit := 2 + g.rng.Intn(3)
	init := stmtOf(&syntax.SimpleCommand{Assigns: []*syntax.Assign{{Name: name, Value: lit("0")}}})
	cond := stmtOf(simple(lit("test"), word(&syntax.ParamExp{Name: name}),
		lit("-lt"), lit(fmt.Sprintf("%d", limit))))
	body := g.stmtList(depth+1, 1)
	body = append(body, stmtOf(&syntax.SimpleCommand{Assigns: []*syntax.Assign{
		{Name: name, Value: word(arith(name + " + 1"))},
	}}))
	until := g.rng.Intn(6) == 0
	wc := &syntax.WhileClause{Cond: []*syntax.Stmt{cond}, Body: body}
	if until {
		// until test ! ... : flip the condition to keep termination.
		wc.Until = true
		wc.Cond = []*syntax.Stmt{stmtOf(simple(lit("test"), word(&syntax.ParamExp{Name: name}),
			lit("-ge"), lit(fmt.Sprintf("%d", limit))))}
	}
	return []*syntax.Stmt{init, stmtOf(wc)}
}

func (g *gen) caseStmt(depth int) *syntax.Stmt {
	subject := word(&syntax.ParamExp{Name: g.varName()})
	if g.rng.Intn(3) == 0 {
		subject = lit(g.literal())
	}
	items := []*syntax.CaseItem{
		{Patterns: []*syntax.Word{lit(g.literal()), lit(g.literal())},
			Body: g.stmtList(depth+1, 1)},
		{Patterns: []*syntax.Word{lit("[a-m]*")}, Body: g.stmtList(depth+1, 1)},
		{Patterns: []*syntax.Word{lit("*")}, Body: []*syntax.Stmt{stmtOf(argv("echo", "other"))}},
	}
	return stmtOf(&syntax.CaseClause{Word: subject, Items: items})
}

func (g *gen) funcStmts(depth int) []*syntax.Stmt {
	g.nFunc++
	name := fmt.Sprintf("f%d", g.nFunc)
	g.funcs = append(g.funcs, name)
	body := g.stmtList(depth+1, 2)
	// Reference a positional parameter so calls with arguments matter.
	body = append(body, stmtOf(simple(lit("echo"), lit(name+":"),
		word(&syntax.ParamExp{Name: "1"}))))
	decl := stmtOf(&syntax.FuncDecl{Name: name, Body: &syntax.BraceGroup{Body: body}})
	call := stmtOf(argv(name, g.literal()))
	return []*syntax.Stmt{decl, call}
}
