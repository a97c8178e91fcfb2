package syntax

// Walk traverses the syntax tree rooted at node in depth-first order,
// calling f for every node. If f returns false for a node, its children are
// skipped. Nil nodes are not visited.
func Walk(node Node, f func(Node) bool) {
	if node == nil || !f(node) {
		return
	}
	switch x := node.(type) {
	case *Script:
		for _, st := range x.Stmts {
			Walk(st, f)
		}
	case *Stmt:
		Walk(x.AndOr, f)
	case *AndOr:
		Walk(x.First, f)
		for _, part := range x.Rest {
			Walk(part.Pipe, f)
		}
	case *Pipeline:
		for _, c := range x.Cmds {
			Walk(c, f)
		}
	case *SimpleCommand:
		for _, a := range x.Assigns {
			Walk(a, f)
		}
		for _, w := range x.Args {
			Walk(w, f)
		}
		walkRedirs(x.Redirections, f)
	case *Assign:
		if x.Value != nil {
			Walk(x.Value, f)
		}
	case *Redirect:
		if x.Target != nil {
			Walk(x.Target, f)
		}
		if x.Body != nil {
			Walk(x.Body, f)
		}
	case *Subshell:
		walkStmts(x.Body, f)
		walkRedirs(x.Redirections, f)
	case *BraceGroup:
		walkStmts(x.Body, f)
		walkRedirs(x.Redirections, f)
	case *IfClause:
		walkStmts(x.Cond, f)
		walkStmts(x.Then, f)
		walkStmts(x.Else, f)
		walkRedirs(x.Redirections, f)
	case *WhileClause:
		walkStmts(x.Cond, f)
		walkStmts(x.Body, f)
		walkRedirs(x.Redirections, f)
	case *ForClause:
		for _, w := range x.Words {
			Walk(w, f)
		}
		walkStmts(x.Body, f)
		walkRedirs(x.Redirections, f)
	case *CaseClause:
		Walk(x.Word, f)
		for _, item := range x.Items {
			Walk(item, f)
		}
		walkRedirs(x.Redirections, f)
	case *CaseItem:
		for _, pat := range x.Patterns {
			Walk(pat, f)
		}
		walkStmts(x.Body, f)
	case *FuncDecl:
		Walk(x.Body, f)
	case *Word:
		for _, part := range x.Parts {
			Walk(part, f)
		}
	case *DblQuoted:
		for _, part := range x.Parts {
			Walk(part, f)
		}
	case *ParamExp:
		if x.Word != nil {
			Walk(x.Word, f)
		}
	case *CmdSubst:
		walkStmts(x.Stmts, f)
	case *ArithExp:
		for _, part := range x.Parts {
			Walk(part, f)
		}
	case *Lit, *SglQuoted:
		// leaves
	}
}

func walkStmts(stmts []*Stmt, f func(Node) bool) {
	for _, st := range stmts {
		Walk(st, f)
	}
}

func walkRedirs(rs []*Redirect, f func(Node) bool) {
	for _, r := range rs {
		Walk(r, f)
	}
}
