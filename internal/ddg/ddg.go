// Package ddg builds the data-dependence graph of Section VII: per-statement
// read/write sets over procedural variables, flow-dependence edges including
// loop-carried dependences, and detection of the first statement
// participating in a dependence cycle — the split point for auxiliary
// aggregate extraction.
package ddg

import (
	"sort"

	"udfdecorr/internal/ast"
)

// VarSet is a set of variable names.
type VarSet map[string]bool

// Add inserts a name.
func (s VarSet) Add(name string) { s[name] = true }

// Union merges another set.
func (s VarSet) Union(o VarSet) {
	for k := range o {
		s[k] = true
	}
}

// Sorted returns names in order (for deterministic output).
func (s VarSet) Sorted() []string {
	out := make([]string, 0, len(s))
	for k := range s {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// exprReads collects variable reads from a procedural-scope expression:
// unqualified column names and parameter references. Inside embedded
// queries only parameter references count (bare names there are table
// columns).
func exprReads(e ast.Expr, out VarSet) {
	switch x := e.(type) {
	case nil:
		return
	case *ast.ColName:
		if x.Qual == "" {
			out.Add(x.Name)
		}
	case *ast.ParamRef:
		out.Add(x.Name)
	case *ast.Lit:
	case *ast.BinExpr:
		exprReads(x.L, out)
		exprReads(x.R, out)
	case *ast.UnaryExpr:
		exprReads(x.E, out)
	case *ast.IsNullExpr:
		exprReads(x.E, out)
	case *ast.CaseExpr:
		for _, w := range x.Whens {
			exprReads(w.Cond, out)
			exprReads(w.Then, out)
		}
		exprReads(x.Else, out)
	case *ast.FuncCall:
		for _, a := range x.Args {
			exprReads(a, out)
		}
	case *ast.SubqueryExpr:
		queryReads(x.Select, out)
	case *ast.ExistsExpr:
		queryReads(x.Select, out)
	case *ast.InExpr:
		exprReads(x.E, out)
		if x.Select != nil {
			queryReads(x.Select, out)
		}
		for _, le := range x.List {
			exprReads(le, out)
		}
	}
}

// ExprReads returns the variables a procedural-scope expression reads.
func ExprReads(e ast.Expr) VarSet {
	out := VarSet{}
	exprReads(e, out)
	return out
}

// queryReads collects parameter references from an embedded query.
func queryReads(sel *ast.SelectStmt, out VarSet) {
	var visitExpr func(e ast.Expr)
	visitExpr = func(e ast.Expr) {
		switch x := e.(type) {
		case nil:
		case *ast.ParamRef:
			out.Add(x.Name)
		case *ast.BinExpr:
			visitExpr(x.L)
			visitExpr(x.R)
		case *ast.UnaryExpr:
			visitExpr(x.E)
		case *ast.IsNullExpr:
			visitExpr(x.E)
		case *ast.CaseExpr:
			for _, w := range x.Whens {
				visitExpr(w.Cond)
				visitExpr(w.Then)
			}
			visitExpr(x.Else)
		case *ast.FuncCall:
			for _, a := range x.Args {
				visitExpr(a)
			}
		case *ast.SubqueryExpr:
			queryReads(x.Select, out)
		case *ast.ExistsExpr:
			queryReads(x.Select, out)
		case *ast.InExpr:
			visitExpr(x.E)
			if x.Select != nil {
				queryReads(x.Select, out)
			}
			for _, le := range x.List {
				visitExpr(le)
			}
		}
	}
	for _, it := range sel.Items {
		visitExpr(it.Expr)
	}
	visitExpr(sel.Where)
	for _, g := range sel.GroupBy {
		visitExpr(g)
	}
	visitExpr(sel.Having)
	for _, tr := range sel.From {
		if sr, ok := tr.(*ast.SubqueryRef); ok {
			queryReads(sr.Select, out)
		}
		if fr, ok := tr.(*ast.FuncRef); ok {
			for _, a := range fr.Args {
				visitExpr(a)
			}
		}
		if jr, ok := tr.(*ast.JoinRef); ok {
			visitExpr(jr.On)
		}
	}
}

// ReadsWrites computes the read and write sets of a statement (treating
// if-blocks and loops as units).
func ReadsWrites(s ast.Stmt) (reads, writes VarSet) {
	reads, writes = VarSet{}, VarSet{}
	collect(s, reads, writes)
	return reads, writes
}

func collect(s ast.Stmt, reads, writes VarSet) {
	switch n := s.(type) {
	case *ast.DeclareStmt:
		exprReads(n.Init, reads)
		writes.Add(n.Name)
	case *ast.AssignStmt:
		exprReads(n.Expr, reads)
		writes.Add(n.Name)
	case *ast.IfStmt:
		exprReads(n.Cond, reads)
		for _, st := range n.Then {
			collect(st, reads, writes)
		}
		for _, st := range n.Else {
			collect(st, reads, writes)
		}
	case *ast.ReturnStmt:
		exprReads(n.Expr, reads)
	case *ast.SelectIntoStmt:
		queryReads(n.Select, reads)
		for _, t := range n.Select.Into {
			writes.Add(t)
		}
	case *ast.DeclareCursorStmt:
		queryReads(n.Select, reads)
	case *ast.FetchStmt:
		for _, t := range n.Into {
			writes.Add(t)
		}
		writes.Add("@@fetch_status")
	case *ast.WhileStmt:
		exprReads(n.Cond, reads)
		for _, st := range n.Body {
			collect(st, reads, writes)
		}
	case *ast.InsertStmt:
		for _, v := range n.Values {
			exprReads(v, reads)
		}
		writes.Add(n.Table)
	}
}

// Graph is the data-dependence graph of a loop body: Edges[i] lists the
// statements that depend on statement i (flow dependences, including
// loop-carried ones — in a loop, a write in one iteration reaches reads in
// the next regardless of statement order).
type Graph struct {
	Stmts []ast.Stmt
	Reads []VarSet
	Write []VarSet
	Edges [][]int
}

// Build constructs the dependence graph of a loop body.
func Build(stmts []ast.Stmt) *Graph {
	g := &Graph{Stmts: stmts}
	g.Reads = make([]VarSet, len(stmts))
	g.Write = make([]VarSet, len(stmts))
	for i, s := range stmts {
		g.Reads[i], g.Write[i] = ReadsWrites(s)
	}
	g.Edges = make([][]int, len(stmts))
	for i := range stmts {
		for j := range stmts {
			if i == j {
				// Self dependence: statement both reads and writes a var.
				dep := false
				for v := range g.Write[i] {
					if g.Reads[i][v] {
						dep = true
						break
					}
				}
				if dep {
					g.Edges[i] = append(g.Edges[i], i)
				}
				continue
			}
			dep := false
			for v := range g.Write[i] {
				if g.Reads[j][v] {
					dep = true
					break
				}
			}
			if dep {
				g.Edges[i] = append(g.Edges[i], j)
			}
		}
	}
	return g
}

// CyclicStmts returns the set of statement indexes that participate in a
// dependence cycle.
func (g *Graph) CyclicStmts() map[int]bool {
	// Tarjan-free approach: a statement is cyclic if it can reach itself.
	out := map[int]bool{}
	n := len(g.Stmts)
	reach := make([][]bool, n)
	for i := range reach {
		reach[i] = make([]bool, n)
		var stack []int
		stack = append(stack, g.Edges[i]...)
		for len(stack) > 0 {
			x := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if reach[i][x] {
				continue
			}
			reach[i][x] = true
			stack = append(stack, g.Edges[x]...)
		}
		if reach[i][i] {
			out[i] = true
		}
	}
	return out
}

// FirstCyclic returns the index of the first statement participating in a
// dependence cycle, or -1 when the loop body has no cyclic dependence.
func (g *Graph) FirstCyclic() int {
	cyc := g.CyclicStmts()
	first := -1
	for i := range cyc {
		if first < 0 || i < first {
			first = i
		}
	}
	return first
}
