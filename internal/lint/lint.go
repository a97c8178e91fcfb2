// Package lint implements the §4 "Heuristic support" direction: static
// analyses over the syntax package's ASTs, cross-checked against the
// PaSh-style specification library, in the spirit of ShellCheck. Each
// analysis targets one of the error classes U1 motivates — unquoted
// expansions that split or glob, catastrophic rm invocations, subshell
// variable loss, flags a command does not accept — and reports findings
// with positions, codes, and fix suggestions.
package lint

import (
	"fmt"
	"sort"
	"strings"

	"jash/internal/spec"
	"jash/internal/syntax"
)

// Severity grades findings.
type Severity int

const (
	// Info findings are style-level.
	Info Severity = iota
	// Warning findings risk incorrect behaviour on some inputs.
	Warning
	// Error findings are almost certainly bugs.
	Error
)

var severityNames = [...]string{"info", "warning", "error"}

func (s Severity) String() string { return severityNames[s] }

// Finding is one diagnostic.
type Finding struct {
	Code     string
	Severity Severity
	Pos      syntax.Pos
	Message  string
	// Suggestion proposes a fix, when one is mechanical.
	Suggestion string
	// Suppressed marks a finding silenced by an inline
	// `# jashlint:disable=...` directive. LintSource drops these;
	// LintSourceAll keeps them so tooling can audit suppressions.
	Suppressed bool
}

func (f Finding) String() string {
	s := fmt.Sprintf("%s %s [%s] %s", f.Pos, f.Severity, f.Code, f.Message)
	if f.Suggestion != "" {
		s += " — " + f.Suggestion
	}
	return s
}

// Linter runs the analyses. The spec library powers command-aware checks.
type Linter struct {
	Lib *spec.Library
}

// New returns a linter over the builtin specification library.
func New() *Linter { return &Linter{Lib: spec.Builtin()} }

// KnownCodes lists every diagnostic code the linter can emit, for
// validating suppression directives.
var KnownCodes = map[string]bool{
	"JSH000": true, "JSH001": true, "JSH101": true,
	"JSH201": true, "JSH202": true, "JSH203": true, "JSH204": true,
	"JSH205": true, "JSH206": true, "JSH207": true,
	"JSH301": true, "JSH302": true, "JSH303": true, "JSH304": true,
	"JSH401": true, "JSH402": true, "JSH403": true, "JSH404": true,
	"JSH405": true, "JSH406": true, "JSH407": true,
}

// LintSource parses and lints a script, folding parse errors into the
// findings (code JSH000) and honoring inline suppression comments: a
// `# jashlint:disable=JSH201[,JSH202...]` comment silences those codes
// on the following line. An unknown code in a directive is itself
// reported (JSH001).
func (l *Linter) LintSource(src string) []Finding {
	fs := l.LintSourceAll(src)
	kept := fs[:0]
	for _, f := range fs {
		if !f.Suppressed {
			kept = append(kept, f)
		}
	}
	return kept
}

// LintSourceAll is LintSource without the suppression filter: silenced
// findings are returned too, marked Suppressed, so machine consumers
// (jashlint -format json) can report suppression status per finding.
func (l *Linter) LintSourceAll(src string) []Finding {
	suppressed, dirFindings := scanSuppressions(src)
	script, err := syntax.Parse(src)
	if err != nil {
		pe, ok := err.(*syntax.ParseError)
		pos := syntax.Pos{Line: 1, Col: 1}
		msg := err.Error()
		if ok {
			pos = pe.Position
			msg = pe.Msg
		}
		return []Finding{{Code: "JSH000", Severity: Error, Pos: pos, Message: "syntax error: " + msg}}
	}
	fs := append(dirFindings, l.Lint(script)...)
	for i := range fs {
		if codes, ok := suppressed[fs[i].Pos.Line]; ok && codes[fs[i].Code] {
			fs[i].Suppressed = true
		}
	}
	sortFindings(fs)
	return fs
}

// scanSuppressions reads `# jashlint:disable=CODE[,CODE...]` comments
// from the raw source (the parser discards comments) and returns the
// per-line suppression sets — keyed by the line the directive protects,
// i.e. the one after the comment — plus JSH001 findings for directives
// naming codes the linter does not have.
func scanSuppressions(src string) (map[int]map[string]bool, []Finding) {
	const marker = "jashlint:disable="
	var suppressed map[int]map[string]bool
	var fs []Finding
	for i, line := range strings.Split(src, "\n") {
		hash := strings.Index(line, "#")
		if hash < 0 {
			continue
		}
		comment := strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(line[hash+1:]), "#"))
		if !strings.HasPrefix(comment, marker) {
			continue
		}
		lineNo := i + 1
		for _, code := range strings.Split(comment[len(marker):], ",") {
			code = strings.TrimSpace(code)
			if code == "" {
				continue
			}
			if !KnownCodes[code] {
				fs = append(fs, Finding{
					Code: "JSH001", Severity: Warning,
					Pos:        syntax.Pos{Line: lineNo, Col: hash + 1},
					Message:    fmt.Sprintf("suppression names unknown code %q", code),
					Suggestion: "check the code against the JSHxxx list in README",
				})
				continue
			}
			if suppressed == nil {
				suppressed = map[int]map[string]bool{}
			}
			if suppressed[lineNo+1] == nil {
				suppressed[lineNo+1] = map[string]bool{}
			}
			suppressed[lineNo+1][code] = true
		}
	}
	return suppressed, fs
}

// Lint analyzes a parsed script.
func (l *Linter) Lint(script *syntax.Script) []Finding {
	var fs []Finding
	add := func(f Finding) { fs = append(fs, f) }
	l.checkUnguardedCd(script, add)
	l.checkFlow(script, add)
	syntax.Walk(script, func(n syntax.Node) bool {
		switch x := n.(type) {
		case *syntax.SimpleCommand:
			l.checkSimple(x, add)
		case *syntax.Pipeline:
			l.checkPipeline(x, add)
		case *syntax.ForClause:
			l.checkFor(x, add)
		case *syntax.CmdSubst:
			if x.Backquote {
				add(Finding{
					Code: "JSH101", Severity: Info, Pos: x.Pos(),
					Message:    "backquoted command substitution",
					Suggestion: "use $(...) — it nests and reads unambiguously",
				})
			}
		}
		return true
	})
	sortFindings(fs)
	return fs
}

func sortFindings(fs []Finding) {
	sort.SliceStable(fs, func(i, j int) bool {
		if fs[i].Pos.Line != fs[j].Pos.Line {
			return fs[i].Pos.Line < fs[j].Pos.Line
		}
		return fs[i].Pos.Col < fs[j].Pos.Col
	})
}

func (l *Linter) checkSimple(sc *syntax.SimpleCommand, add func(Finding)) {
	name := sc.Name()
	// JSH201: dangerous rm with an unquoted/empty-able variable path.
	if name == "rm" {
		recursive := false
		for _, w := range sc.Args[1:] {
			if lit := w.Lit(); strings.HasPrefix(lit, "-") && strings.ContainsAny(lit, "rR") {
				recursive = true
			}
		}
		for _, w := range sc.Args[1:] {
			if isBareParam(w) {
				sev := Warning
				msg := "rm on an unquoted variable: an empty or space-containing value removes the wrong files"
				if recursive {
					sev = Error
					msg = "rm -r on an unquoted variable: an empty value can erase from '/'"
				}
				add(Finding{
					Code: "JSH201", Severity: sev, Pos: w.Pos(), Message: msg,
					Suggestion: `quote it and guard: rm -r -- "${VAR:?}"`,
				})
			}
		}
	}
	// JSH202: unquoted expansion argument (word splitting + globbing).
	if name != "" && name != "test" && name != "[" && name != "export" && name != "local" {
		for _, w := range sc.Args[1:] {
			if isBareParam(w) {
				add(Finding{
					Code: "JSH202", Severity: Warning, Pos: w.Pos(),
					Message:    fmt.Sprintf("unquoted %s undergoes word splitting and globbing", wordDesc(w)),
					Suggestion: fmt.Sprintf(`double-quote it: "%s"`, syntax.PrintWord(w)),
				})
			}
		}
	}
	// JSH203: unquoted test operands.
	if name == "test" || name == "[" {
		for _, w := range sc.Args[1:] {
			if isBareParam(w) {
				add(Finding{
					Code: "JSH203", Severity: Warning, Pos: w.Pos(),
					Message:    "unquoted test operand: an empty value breaks the expression arity",
					Suggestion: fmt.Sprintf(`quote it: "%s"`, syntax.PrintWord(w)),
				})
			}
		}
	}
	// JSH204: `x = 1` — assignment written with spaces parses as a command.
	if len(sc.Args) >= 2 && syntax.IsName(name) && sc.Args[1].Lit() == "=" {
		add(Finding{
			Code: "JSH204", Severity: Error, Pos: sc.Pos(),
			Message:    fmt.Sprintf("this runs the command %q with argument '='; assignments take no spaces", name),
			Suggestion: fmt.Sprintf("write %s=value", name),
		})
	}
	// JSH205: unknown flags, per the specification library's FlagDocs.
	if s, ok := l.Lib.Lookup(name); ok && len(s.FlagDocs) > 0 {
		for _, f := range flagsOf(sc, s) {
			flag := "-" + string(f.Letter)
			if _, known := s.FlagDocs[flag]; !known {
				add(Finding{
					Code: "JSH205", Severity: Warning, Pos: sc.Args[f.Arg].Pos(),
					Message: fmt.Sprintf("%s: flag %s is not in the command's specification (v%s)",
						name, flag, s.Version),
				})
			}
		}
	}
	// JSH304: redirecting output onto a file the command reads truncates
	// the input before it is read (`sort f >f` empties f).
	for _, r := range sc.Redirections {
		if r.Op != syntax.RedirOut && r.Op != syntax.RedirClobber {
			continue
		}
		target := syntax.PrintWord(r.Target)
		for _, w := range sc.Args[1:] {
			if syntax.PrintWord(w) == target && !strings.HasPrefix(target, "-") {
				add(Finding{
					Code: "JSH304", Severity: Error, Pos: r.Pos(),
					Message:    fmt.Sprintf("output redirection truncates %s before %s reads it", target, name),
					Suggestion: "write to a temporary file and rename, or use a different output path",
				})
			}
		}
	}
	// JSH206: read without -r mangles backslashes.
	if name == "read" {
		hasR := false
		for _, w := range sc.Args[1:] {
			if w.Lit() == "-r" {
				hasR = true
			}
		}
		if !hasR {
			add(Finding{
				Code: "JSH206", Severity: Info, Pos: sc.Pos(),
				Message:    "read without -r treats backslashes as escapes",
				Suggestion: "use read -r unless you depend on backslash continuation",
			})
		}
	}
}

func (l *Linter) checkPipeline(pl *syntax.Pipeline, add func(Finding)) {
	if len(pl.Cmds) < 2 {
		return
	}
	// JSH301: useless use of cat.
	if sc, ok := pl.Cmds[0].(*syntax.SimpleCommand); ok && sc.Name() == "cat" &&
		len(sc.Args) == 2 && len(sc.Redirections) == 0 && !strings.HasPrefix(sc.Args[1].Lit(), "-") {
		next := ""
		if sc2, ok := pl.Cmds[1].(*syntax.SimpleCommand); ok {
			next = sc2.Name()
		}
		if next != "" {
			add(Finding{
				Code: "JSH301", Severity: Info, Pos: sc.Pos(),
				Message:    "useless use of cat",
				Suggestion: fmt.Sprintf("%s <%s ... (or pass the file as an operand)", next, syntax.PrintWord(sc.Args[1])),
			})
		}
	}
	// JSH302: variables assigned in a piped while-loop don't survive.
	last := pl.Cmds[len(pl.Cmds)-1]
	if wc, ok := last.(*syntax.WhileClause); ok {
		assigned := map[string]syntax.Pos{}
		for _, st := range wc.Body {
			syntax.Walk(st, func(n syntax.Node) bool {
				if a, ok := n.(*syntax.Assign); ok {
					assigned[a.Name] = a.Pos()
				}
				if sc, ok := n.(*syntax.SimpleCommand); ok && sc.Name() == "read" {
					for _, w := range sc.Args[1:] {
						if lit := w.Lit(); lit != "" && lit != "-r" {
							assigned[lit] = w.Pos()
						}
					}
				}
				return true
			})
		}
		for name, pos := range assigned {
			add(Finding{
				Code: "JSH302", Severity: Warning, Pos: pos,
				Message:    fmt.Sprintf("variable %q is assigned in a piped loop, which runs in a subshell; the value is lost afterwards", name),
				Suggestion: "restructure as `while ...; done <file` or capture output instead",
			})
		}
	}
}

// checkUnguardedCd flags JSH207: a bare `cd` statement in a script
// without `set -e` — if the cd fails, every following command runs in the
// wrong directory. Guarded forms (`cd x || exit`, `cd x && ...`,
// `if cd x; ...`) are fine.
func (l *Linter) checkUnguardedCd(script *syntax.Script, add func(Finding)) {
	// Does the script enable errexit anywhere before the cd?
	errexitAt := -1
	for i, st := range script.Stmts {
		sc, ok := st.AndOr.First.Cmds[0].(*syntax.SimpleCommand)
		if !ok {
			continue
		}
		if sc.Name() == "set" {
			for _, w := range sc.Args[1:] {
				if lit := w.Lit(); strings.HasPrefix(lit, "-") && strings.ContainsRune(lit, 'e') {
					errexitAt = i
				}
			}
		}
	}
	for i, st := range script.Stmts {
		if errexitAt >= 0 && errexitAt < i {
			return // everything after set -e is guarded
		}
		if len(st.AndOr.Rest) > 0 {
			continue // cd x || exit / cd x && ... are guarded
		}
		if i == len(script.Stmts)-1 {
			continue // nothing after it depends on the directory
		}
		sc, ok := st.AndOr.First.Cmds[0].(*syntax.SimpleCommand)
		if !ok || sc.Name() != "cd" {
			continue
		}
		add(Finding{
			Code: "JSH207", Severity: Warning, Pos: sc.Pos(),
			Message:    "unguarded cd: if it fails, the rest of the script runs in the wrong directory",
			Suggestion: "use `cd ... || exit 1` or `set -e`",
		})
	}
}

func (l *Linter) checkFor(fc *syntax.ForClause, add func(Finding)) {
	// JSH303: iterating over $(ls ...) or unquoted command output.
	for _, w := range fc.Words {
		for _, part := range w.Parts {
			cs, ok := part.(*syntax.CmdSubst)
			if !ok || len(cs.Stmts) == 0 {
				continue
			}
			if sc, ok := cs.Stmts[0].AndOr.First.Cmds[0].(*syntax.SimpleCommand); ok && sc.Name() == "ls" {
				add(Finding{
					Code: "JSH303", Severity: Warning, Pos: cs.Pos(),
					Message:    "iterating over ls output breaks on names with spaces",
					Suggestion: "use a glob: for f in *; ...",
				})
			}
		}
	}
}

// flagsOf lists a command's option letters for JSH205. When every word is
// static the argv is known and the spec's scanner cuts it. Otherwise the
// words have no values yet and it falls back to a conservative walk over
// the leading literal words that look like options, which stops at the
// first word it cannot classify (a detached flag value included).
func flagsOf(sc *syntax.SimpleCommand, s *spec.Spec) []spec.Flag {
	argv := make([]string, 0, len(sc.Args))
	for _, w := range sc.Args {
		if !w.IsStatic() {
			break
		}
		argv = append(argv, w.StaticValue())
	}
	if len(argv) == len(sc.Args) {
		if p, err := s.Scan(argv); err == nil {
			return p.Flags
		}
	}
	var flags []spec.Flag
	for i, w := range sc.Args[1:] {
		lit := w.Lit()
		if !strings.HasPrefix(lit, "-") || lit == "-" || lit == "--" {
			break // flags precede operands
		}
		for j := 1; j < len(lit); j++ {
			flags = append(flags, spec.Flag{Letter: lit[j], Arg: i + 1})
			if strings.IndexByte(s.ValueFlags, lit[j]) >= 0 {
				break // rest of the cluster is this flag's value
			}
		}
	}
	return flags
}

// isBareParam reports whether the word is an unquoted expansion (possibly
// with adjacent literals) that will be field-split: $x, ${x}, $x.txt.
func isBareParam(w *syntax.Word) bool {
	hasParam := false
	for _, part := range w.Parts {
		switch part.(type) {
		case *syntax.ParamExp, *syntax.CmdSubst:
			hasParam = true
		case *syntax.DblQuoted, *syntax.SglQuoted:
			return false
		}
	}
	return hasParam
}

func wordDesc(w *syntax.Word) string {
	for _, part := range w.Parts {
		switch p := part.(type) {
		case *syntax.ParamExp:
			return "$" + p.Name
		case *syntax.CmdSubst:
			return "$(...)"
		}
	}
	return "expansion"
}
