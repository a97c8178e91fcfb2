package fuzz

import (
	"strings"
	"testing"

	"jash/internal/syntax"
)

// Same seed, same program — the generator must be a pure function of its
// config.
func TestGenerateDeterministic(t *testing.T) {
	for seed := uint64(1); seed <= 50; seed++ {
		a := Generate(DefaultConfig(seed))
		b := Generate(DefaultConfig(seed))
		if a.Source != b.Source {
			t.Fatalf("seed %d: generation not deterministic:\n--- first\n%s\n--- second\n%s",
				seed, a.Source, b.Source)
		}
	}
}

// Every generated program must survive a print→parse→print round trip:
// the oracles all consume the printed source, so a program that mutates
// under re-parsing would make the harness test the printer, not the
// engines.
func TestGenerateRoundTrip(t *testing.T) {
	for seed := uint64(1); seed <= 200; seed++ {
		p := Generate(DefaultConfig(seed))
		re, err := syntax.Parse(p.Source)
		if err != nil {
			t.Fatalf("seed %d: generated source does not parse: %v\n%s", seed, err, p.Source)
		}
		back := syntax.Print(re)
		if back != p.Source {
			t.Errorf("seed %d: print→parse→print not stable:\n--- printed\n%s\n--- reprinted\n%s",
				seed, p.Source, back)
		}
	}
}

// Generated programs must be non-trivial: across a window of seeds the
// grammar should exercise pipelines, loops, functions, and redirections.
func TestGenerateCoverage(t *testing.T) {
	saw := map[string]bool{}
	for seed := uint64(1); seed <= 100; seed++ {
		p := Generate(DefaultConfig(seed))
		syntax.Walk(p.Script, func(n syntax.Node) bool {
			switch x := n.(type) {
			case *syntax.Pipeline:
				if len(x.Cmds) > 1 {
					saw["pipeline"] = true
				}
			case *syntax.WhileClause:
				saw["while"] = true
			case *syntax.ForClause:
				saw["for"] = true
			case *syntax.IfClause:
				saw["if"] = true
			case *syntax.CaseClause:
				saw["case"] = true
			case *syntax.FuncDecl:
				saw["func"] = true
			case *syntax.Subshell:
				saw["subshell"] = true
			case *syntax.Redirect:
				saw["redirect"] = true
			case *syntax.CmdSubst:
				saw["cmdsubst"] = true
			case *syntax.ParamExp:
				saw["param"] = true
			case *syntax.ArithExp:
				saw["arith"] = true
				for _, op := range []string{"&&", "||", "?", "+=", "<<=", " = ", " / v"} {
					if strings.Contains(x.Expr, op) {
						saw["arith "+op] = true
					}
				}
			}
			return true
		})
	}
	for _, want := range []string{"pipeline", "while", "for", "if", "case",
		"func", "subshell", "redirect", "cmdsubst", "param", "arith",
		"arith &&", "arith ||", "arith ?", "arith +=", "arith <<=", "arith  = ", "arith  / v"} {
		if !saw[want] {
			t.Errorf("100 seeds never produced a %s", want)
		}
	}
}
