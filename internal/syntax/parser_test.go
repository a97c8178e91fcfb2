package syntax

import (
	"reflect"
	"strings"
	"testing"
)

func mustParse(t *testing.T, src string) *Script {
	t.Helper()
	s, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse(%q): %v", src, err)
	}
	return s
}

func firstSimple(t *testing.T, s *Script) *SimpleCommand {
	t.Helper()
	if len(s.Stmts) == 0 {
		t.Fatal("no statements")
	}
	sc, ok := s.Stmts[0].AndOr.First.Cmds[0].(*SimpleCommand)
	if !ok {
		t.Fatalf("first command is %T, want *SimpleCommand", s.Stmts[0].AndOr.First.Cmds[0])
	}
	return sc
}

func TestParseSimpleCommand(t *testing.T) {
	s := mustParse(t, "grep -v foo bar.txt\n")
	sc := firstSimple(t, s)
	if got := sc.Name(); got != "grep" {
		t.Errorf("Name() = %q, want grep", got)
	}
	if len(sc.Args) != 4 {
		t.Fatalf("got %d args, want 4", len(sc.Args))
	}
	if sc.Args[1].Lit() != "-v" || sc.Args[3].Lit() != "bar.txt" {
		t.Errorf("args = %q %q", sc.Args[1].Lit(), sc.Args[3].Lit())
	}
}

func TestParseAssignments(t *testing.T) {
	s := mustParse(t, "FOO=1 BAR=two baz qux")
	sc := firstSimple(t, s)
	if len(sc.Assigns) != 2 {
		t.Fatalf("got %d assigns, want 2", len(sc.Assigns))
	}
	if sc.Assigns[0].Name != "FOO" || sc.Assigns[0].Value.Lit() != "1" {
		t.Errorf("assign 0 = %s=%s", sc.Assigns[0].Name, sc.Assigns[0].Value.Lit())
	}
	if sc.Assigns[1].Name != "BAR" || sc.Assigns[1].Value.Lit() != "two" {
		t.Errorf("assign 1 = %s=%s", sc.Assigns[1].Name, sc.Assigns[1].Value.Lit())
	}
	if sc.Name() != "baz" {
		t.Errorf("Name() = %q", sc.Name())
	}
}

func TestParseAssignmentOnly(t *testing.T) {
	s := mustParse(t, "X=hello")
	sc := firstSimple(t, s)
	if len(sc.Assigns) != 1 || len(sc.Args) != 0 {
		t.Fatalf("assigns=%d args=%d", len(sc.Assigns), len(sc.Args))
	}
}

func TestAssignAfterCommandIsArg(t *testing.T) {
	s := mustParse(t, "env FOO=1")
	sc := firstSimple(t, s)
	if len(sc.Assigns) != 0 {
		t.Fatalf("FOO=1 after command name must be an argument")
	}
	if sc.Args[1].Lit() != "FOO=1" {
		t.Errorf("arg = %q", sc.Args[1].Lit())
	}
}

func TestParsePipeline(t *testing.T) {
	s := mustParse(t, "cat f | tr A-Z a-z | sort | uniq -c")
	pl := s.Stmts[0].AndOr.First
	if len(pl.Cmds) != 4 {
		t.Fatalf("got %d pipeline stages, want 4", len(pl.Cmds))
	}
	names := []string{"cat", "tr", "sort", "uniq"}
	for i, want := range names {
		sc := pl.Cmds[i].(*SimpleCommand)
		if sc.Name() != want {
			t.Errorf("stage %d = %q, want %q", i, sc.Name(), want)
		}
	}
}

func TestParseNegatedPipeline(t *testing.T) {
	s := mustParse(t, "! grep -q x f")
	if !s.Stmts[0].AndOr.First.Negated {
		t.Error("pipeline not negated")
	}
}

func TestParseAndOr(t *testing.T) {
	s := mustParse(t, "make && echo ok || echo fail")
	ao := s.Stmts[0].AndOr
	if len(ao.Rest) != 2 {
		t.Fatalf("got %d and-or parts, want 2", len(ao.Rest))
	}
	if ao.Rest[0].Op != AndOp || ao.Rest[1].Op != OrOp {
		t.Errorf("ops = %v %v", ao.Rest[0].Op, ao.Rest[1].Op)
	}
}

func TestParseBackground(t *testing.T) {
	s := mustParse(t, "sleep 10 & echo hi")
	if !s.Stmts[0].Background {
		t.Error("first statement should be background")
	}
	if s.Stmts[1].Background {
		t.Error("second statement should be foreground")
	}
}

func TestParseRedirections(t *testing.T) {
	s := mustParse(t, "sort <in >out 2>err >>append 2>&1")
	sc := firstSimple(t, s)
	if len(sc.Redirections) != 5 {
		t.Fatalf("got %d redirections, want 5", len(sc.Redirections))
	}
	checks := []struct {
		op RedirOp
		fd int
	}{
		{RedirIn, 0}, {RedirOut, 1}, {RedirOut, 2}, {RedirAppend, 1}, {RedirDupOut, 2},
	}
	for i, c := range checks {
		r := sc.Redirections[i]
		if r.Op != c.op {
			t.Errorf("redir %d op = %v, want %v", i, r.Op, c.op)
		}
		if r.DefaultFD() != c.fd {
			t.Errorf("redir %d fd = %d, want %d", i, r.DefaultFD(), c.fd)
		}
	}
}

func TestParseHeredoc(t *testing.T) {
	src := "cat <<EOF\nhello\nworld\nEOF\necho done\n"
	s := mustParse(t, src)
	sc := firstSimple(t, s)
	r := sc.Redirections[0]
	if r.Op != RedirHeredoc {
		t.Fatalf("op = %v", r.Op)
	}
	if r.Heredoc != "hello\nworld\n" {
		t.Errorf("heredoc body = %q", r.Heredoc)
	}
	if r.Quoted {
		t.Error("unquoted delimiter reported as quoted")
	}
	if len(s.Stmts) != 2 {
		t.Fatalf("got %d stmts, want 2", len(s.Stmts))
	}
}

func TestParseHeredocQuotedDelim(t *testing.T) {
	src := "cat <<'EOF'\n$HOME\nEOF\n"
	s := mustParse(t, src)
	r := firstSimple(t, s).Redirections[0]
	if !r.Quoted {
		t.Error("quoted delimiter not detected")
	}
	if r.Heredoc != "$HOME\n" {
		t.Errorf("body = %q", r.Heredoc)
	}
}

func TestParseHeredocDash(t *testing.T) {
	src := "cat <<-END\n\thello\n\tEND\n"
	s := mustParse(t, src)
	r := firstSimple(t, s).Redirections[0]
	if r.Op != RedirHeredocDash {
		t.Fatalf("op = %v", r.Op)
	}
	if r.Heredoc != "hello\n" {
		t.Errorf("body = %q (tabs should be stripped)", r.Heredoc)
	}
}

func TestParseTwoHeredocs(t *testing.T) {
	src := "paste <<A <<B\none\nA\ntwo\nB\n"
	s := mustParse(t, src)
	rs := firstSimple(t, s).Redirections
	if len(rs) != 2 {
		t.Fatalf("got %d redirs", len(rs))
	}
	if rs[0].Heredoc != "one\n" || rs[1].Heredoc != "two\n" {
		t.Errorf("bodies = %q, %q", rs[0].Heredoc, rs[1].Heredoc)
	}
}

func TestParseQuoting(t *testing.T) {
	s := mustParse(t, `echo 'single $x' "double $x" mi\ xed`)
	sc := firstSimple(t, s)
	if len(sc.Args) != 4 {
		t.Fatalf("got %d args, want 4", len(sc.Args))
	}
	sq := sc.Args[1].Parts[0].(*SglQuoted)
	if sq.Value != "single $x" {
		t.Errorf("single-quoted = %q", sq.Value)
	}
	dq := sc.Args[2].Parts[0].(*DblQuoted)
	if len(dq.Parts) != 2 {
		t.Fatalf("double-quoted has %d parts, want 2 (lit + param)", len(dq.Parts))
	}
	if _, ok := dq.Parts[1].(*ParamExp); !ok {
		t.Errorf("second dq part = %T, want *ParamExp", dq.Parts[1])
	}
	// An unquoted `\c` is its own part, c quoted: the word's text is
	// values, with no backslash left for a later layer to interpret.
	want := []WordPart{&Lit{Value: "mi"}, &SglQuoted{Value: " ", Escaped: true}, &Lit{Value: "xed"}}
	normalize(sc.Args[3])
	if !reflect.DeepEqual(sc.Args[3].Parts, want) {
		t.Errorf("escaped word = %s", PrintWord(sc.Args[3]))
	}
}

func TestParseParamExpansions(t *testing.T) {
	cases := []struct {
		src   string
		name  string
		op    ParamOp
		colon bool
	}{
		{`echo $FOO`, "FOO", ParamPlain, false},
		{`echo ${FOO}`, "FOO", ParamPlain, false},
		{`echo ${FOO:-def}`, "FOO", ParamDefault, true},
		{`echo ${FOO-def}`, "FOO", ParamDefault, false},
		{`echo ${FOO:=def}`, "FOO", ParamAssign, true},
		{`echo ${FOO:?msg}`, "FOO", ParamError, true},
		{`echo ${FOO:+alt}`, "FOO", ParamAlt, true},
		{`echo ${FOO%.txt}`, "FOO", ParamTrimSuffix, false},
		{`echo ${FOO%%.txt}`, "FOO", ParamTrimSuffixLong, false},
		{`echo ${FOO#pre}`, "FOO", ParamTrimPrefix, false},
		{`echo ${FOO##pre}`, "FOO", ParamTrimPrefixLong, false},
		{`echo ${#FOO}`, "FOO", ParamLength, false},
		{`echo $1`, "1", ParamPlain, false},
		{`echo $@`, "@", ParamPlain, false},
		{`echo $?`, "?", ParamPlain, false},
		{`echo ${10}`, "10", ParamPlain, false},
	}
	for _, c := range cases {
		s := mustParse(t, c.src)
		sc := firstSimple(t, s)
		pe, ok := sc.Args[1].Parts[0].(*ParamExp)
		if !ok {
			t.Errorf("%s: part = %T", c.src, sc.Args[1].Parts[0])
			continue
		}
		if pe.Name != c.name || pe.Op != c.op || pe.Colon != c.colon {
			t.Errorf("%s: got name=%q op=%v colon=%v", c.src, pe.Name, pe.Op, pe.Colon)
		}
	}
}

func TestParseCmdSubst(t *testing.T) {
	s := mustParse(t, `echo $(ls -l | wc -l)`)
	sc := firstSimple(t, s)
	cs, ok := sc.Args[1].Parts[0].(*CmdSubst)
	if !ok {
		t.Fatalf("part = %T", sc.Args[1].Parts[0])
	}
	if len(cs.Stmts) != 1 {
		t.Fatalf("subst has %d stmts", len(cs.Stmts))
	}
	if n := len(cs.Stmts[0].AndOr.First.Cmds); n != 2 {
		t.Errorf("nested pipeline has %d stages, want 2", n)
	}
}

func TestParseNestedCmdSubst(t *testing.T) {
	s := mustParse(t, `echo $(echo $(echo deep))`)
	sc := firstSimple(t, s)
	outer := sc.Args[1].Parts[0].(*CmdSubst)
	inner := outer.Stmts[0].AndOr.First.Cmds[0].(*SimpleCommand)
	if _, ok := inner.Args[1].Parts[0].(*CmdSubst); !ok {
		t.Errorf("inner part = %T, want *CmdSubst", inner.Args[1].Parts[0])
	}
}

func TestParseBackquote(t *testing.T) {
	s := mustParse(t, "echo `date`")
	sc := firstSimple(t, s)
	cs, ok := sc.Args[1].Parts[0].(*CmdSubst)
	if !ok || !cs.Backquote {
		t.Fatalf("part = %#v", sc.Args[1].Parts[0])
	}
	if cs.Stmts[0].AndOr.First.Cmds[0].(*SimpleCommand).Name() != "date" {
		t.Error("backquote body not parsed")
	}
}

func TestParseArith(t *testing.T) {
	s := mustParse(t, `echo $((1 + 2*3))`)
	sc := firstSimple(t, s)
	ae, ok := sc.Args[1].Parts[0].(*ArithExp)
	if !ok {
		t.Fatalf("part = %T", sc.Args[1].Parts[0])
	}
	if ae.Expr != "1 + 2*3" || ae.Parts != nil {
		t.Errorf("expr = %q, parts %v", ae.Expr, ae.Parts)
	}
}

// TestParseArithParts: text with expansions is parsed once, by the parser,
// under double-quote rules with `"` and `\` as text (a Lit holds its
// value, as any double-quoted literal does); Walk visits the parts; a
// malformed expansion is a syntax error of the script.
func TestParseArithParts(t *testing.T) {
	s := mustParse(t, `echo $(( ${x:-1} + "a\b" * $(c) ))`)
	ae := firstSimple(t, s).Args[1].Parts[0].(*ArithExp)
	if ae.Expr != ` ${x:-1} + "a\b" * $(c) ` {
		t.Errorf("expr = %q", ae.Expr)
	}
	var kinds []string
	for _, p := range ae.Parts {
		switch q := p.(type) {
		case *Lit:
			kinds = append(kinds, "lit:"+q.Value)
		case *ParamExp:
			kinds = append(kinds, "param:"+q.Name)
		case *CmdSubst:
			kinds = append(kinds, "subst")
		}
	}
	if got, want := strings.Join(kinds, "|"), `lit: |param:x|lit: + "a\b" * |subst|lit: `; got != want {
		t.Errorf("parts %s, want %s", got, want)
	}
	sawSubst := false
	Walk(s, func(n Node) bool {
		_, ok := n.(*CmdSubst)
		sawSubst = sawSubst || ok
		return true
	})
	if !sawSubst {
		t.Error("Walk does not reach the substitution inside $(( ))")
	}
	if _, err := Parse("echo a; echo $(( ${ ))"); err == nil {
		t.Error("a malformed expansion inside $(( )) parses")
	}
	built, err := NewArithExp(" ${x:-1} + \"a\\b\" * $(c) ")
	normalize(ae)
	normalize(built)
	if err != nil || !reflect.DeepEqual(built, &ArithExp{Expr: ae.Expr, Parts: ae.Parts}) {
		t.Errorf("NewArithExp = %#v, %v; want the parser's node", built, err)
	}
}

func TestParseIf(t *testing.T) {
	s := mustParse(t, "if test -f x; then echo yes; else echo no; fi")
	ic := s.Stmts[0].AndOr.First.Cmds[0].(*IfClause)
	if len(ic.Cond) != 1 || len(ic.Then) != 1 || len(ic.Else) != 1 {
		t.Fatalf("cond=%d then=%d else=%d", len(ic.Cond), len(ic.Then), len(ic.Else))
	}
}

func TestParseElifChain(t *testing.T) {
	s := mustParse(t, "if a; then b; elif c; then d; elif e; then f; else g; fi")
	ic := s.Stmts[0].AndOr.First.Cmds[0].(*IfClause)
	nested := elseAsElif(ic.Else)
	if nested == nil {
		t.Fatal("first elif missing")
	}
	nested2 := elseAsElif(nested.Else)
	if nested2 == nil {
		t.Fatal("second elif missing")
	}
	if len(nested2.Else) != 1 {
		t.Errorf("final else missing")
	}
}

func TestParseWhileUntil(t *testing.T) {
	s := mustParse(t, "while read x; do echo $x; done <f")
	wc := s.Stmts[0].AndOr.First.Cmds[0].(*WhileClause)
	if wc.Until {
		t.Error("while parsed as until")
	}
	if len(wc.Redirections) != 1 {
		t.Errorf("compound redirection missing")
	}
	s2 := mustParse(t, "until test -f done; do sleep 1; done")
	if !s2.Stmts[0].AndOr.First.Cmds[0].(*WhileClause).Until {
		t.Error("until parsed as while")
	}
}

func TestParseFor(t *testing.T) {
	s := mustParse(t, "for f in a b c; do echo $f; done")
	fc := s.Stmts[0].AndOr.First.Cmds[0].(*ForClause)
	if fc.Name != "f" || !fc.InPresent || len(fc.Words) != 3 {
		t.Fatalf("name=%q in=%v words=%d", fc.Name, fc.InPresent, len(fc.Words))
	}
}

func TestParseForNoIn(t *testing.T) {
	s := mustParse(t, "for arg; do echo $arg; done")
	fc := s.Stmts[0].AndOr.First.Cmds[0].(*ForClause)
	if fc.InPresent {
		t.Error("InPresent should be false")
	}
}

func TestParseCase(t *testing.T) {
	s := mustParse(t, `case $x in a|b) echo ab ;; *.txt) echo txt ;; *) echo other ;; esac`)
	cc := s.Stmts[0].AndOr.First.Cmds[0].(*CaseClause)
	if len(cc.Items) != 3 {
		t.Fatalf("got %d case items", len(cc.Items))
	}
	if len(cc.Items[0].Patterns) != 2 {
		t.Errorf("first item has %d patterns, want 2", len(cc.Items[0].Patterns))
	}
}

func TestParseCaseWithLParen(t *testing.T) {
	s := mustParse(t, "case $x in (a) echo a ;; esac")
	cc := s.Stmts[0].AndOr.First.Cmds[0].(*CaseClause)
	if cc.Items[0].Patterns[0].Lit() != "a" {
		t.Errorf("pattern = %q", cc.Items[0].Patterns[0].Lit())
	}
}

func TestParseSubshellAndBrace(t *testing.T) {
	s := mustParse(t, "(cd /tmp && ls) | wc -l")
	sub := s.Stmts[0].AndOr.First.Cmds[0].(*Subshell)
	if len(sub.Body) != 1 {
		t.Fatalf("subshell body = %d stmts", len(sub.Body))
	}
	s2 := mustParse(t, "{ echo a; echo b; } >out")
	bg := s2.Stmts[0].AndOr.First.Cmds[0].(*BraceGroup)
	if len(bg.Body) != 2 || len(bg.Redirections) != 1 {
		t.Fatalf("body=%d redirs=%d", len(bg.Body), len(bg.Redirections))
	}
}

func TestParseFuncDecl(t *testing.T) {
	s := mustParse(t, "greet() { echo hello; }\ngreet")
	fd, ok := s.Stmts[0].AndOr.First.Cmds[0].(*FuncDecl)
	if !ok {
		t.Fatalf("got %T", s.Stmts[0].AndOr.First.Cmds[0])
	}
	if fd.Name != "greet" {
		t.Errorf("name = %q", fd.Name)
	}
	if _, ok := fd.Body.(*BraceGroup); !ok {
		t.Errorf("body = %T", fd.Body)
	}
}

func TestParseComments(t *testing.T) {
	s := mustParse(t, "# a comment\necho hi # trailing\n")
	if len(s.Stmts) != 1 {
		t.Fatalf("got %d stmts", len(s.Stmts))
	}
	sc := firstSimple(t, s)
	if len(sc.Args) != 2 {
		t.Errorf("trailing comment leaked into args: %d", len(sc.Args))
	}
}

func TestParseLineContinuation(t *testing.T) {
	s := mustParse(t, "echo one \\\ntwo")
	sc := firstSimple(t, s)
	if len(sc.Args) != 3 {
		t.Fatalf("got %d args, want 3", len(sc.Args))
	}
}

func TestParseSpellScript(t *testing.T) {
	// The paper's §3.2 example.
	src := `FILES="$@"
cat $FILES | tr A-Z a-z |
tr -cs A-Za-z '\n' | sort -u | comm -13 $DICT -`
	s := mustParse(t, src)
	if len(s.Stmts) != 2 {
		t.Fatalf("got %d stmts, want 2", len(s.Stmts))
	}
	pl := s.Stmts[1].AndOr.First
	if len(pl.Cmds) != 5 {
		t.Fatalf("pipeline has %d stages, want 5", len(pl.Cmds))
	}
}

func TestParseTemperaturePipeline(t *testing.T) {
	// The paper's §2.1 48-character pipeline.
	src := `cut -c 89-92 | grep -v 999 | sort -rn | head -n1`
	s := mustParse(t, src)
	pl := s.Stmts[0].AndOr.First
	if len(pl.Cmds) != 4 {
		t.Fatalf("pipeline has %d stages, want 4", len(pl.Cmds))
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"echo 'unterminated",
		`echo "unterminated`,
		"echo $(unterminated",
		"if true; then echo; ",
		"case x in a) echo",
		"| starts with pipe",
		"cat <<EOF\nno terminator",
		"for 1bad in x; do :; done",
		"echo ${x!bad}",
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", src)
		}
	}
}

func TestParseErrorHasPosition(t *testing.T) {
	_, err := Parse("echo ok\necho 'bad")
	pe, ok := err.(*ParseError)
	if !ok {
		t.Fatalf("err = %T", err)
	}
	if pe.Position.Line != 2 {
		t.Errorf("error line = %d, want 2", pe.Position.Line)
	}
}

func TestParseCommandIncremental(t *testing.T) {
	src := "echo one\necho two && echo three\n"
	stmts, n, err := ParseCommand(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(stmts) != 1 {
		t.Fatalf("first call got %d stmts", len(stmts))
	}
	stmts2, n2, err := ParseCommand(src[n:])
	if err != nil {
		t.Fatal(err)
	}
	if len(stmts2) != 1 || len(stmts2[0].AndOr.Rest) != 1 {
		t.Fatalf("second call got %d stmts", len(stmts2))
	}
	if n+n2 > len(src) {
		t.Errorf("consumed %d+%d of %d bytes", n, n2, len(src))
	}
}

func TestParseCommandEmpty(t *testing.T) {
	stmts, _, err := ParseCommand("\n\n")
	if err != nil || len(stmts) != 0 {
		t.Fatalf("stmts=%d err=%v", len(stmts), err)
	}
}

func TestWalkCollectsCommands(t *testing.T) {
	s := mustParse(t, "if a; then b | c; fi; for x in 1; do d; done")
	var names []string
	Walk(s, func(n Node) bool {
		if sc, ok := n.(*SimpleCommand); ok {
			names = append(names, sc.Name())
		}
		return true
	})
	want := "a b c d"
	if got := strings.Join(names, " "); got != want {
		t.Errorf("walk order = %q, want %q", got, want)
	}
}

func TestIsStatic(t *testing.T) {
	cases := []struct {
		src    string
		static bool
	}{
		{`echo plain`, true},
		{`echo 'quoted'`, true},
		{`echo "doub le"`, true},
		{`echo $x`, false},
		{`echo "pre$x"`, false},
		{`echo $(ls)`, false},
		{"echo `ls`", false},
		{`echo $((1+1))`, false},
	}
	for _, c := range cases {
		s := mustParse(t, c.src)
		w := firstSimple(t, s).Args[1]
		if got := w.IsStatic(); got != c.static {
			t.Errorf("%s: IsStatic = %v, want %v", c.src, got, c.static)
		}
	}
}

func TestStaticValue(t *testing.T) {
	s := mustParse(t, `echo pre'mid'"end"`)
	w := firstSimple(t, s).Args[1]
	if got := w.StaticValue(); got != "premidend" {
		t.Errorf("StaticValue = %q", got)
	}
}
