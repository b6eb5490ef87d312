package engine_test

// Golden embedded-query plans: the iterative baseline spends its time in
// the queries inside UDF bodies, which EXPLAIN does not show (it plans only
// the top statement). This snapshot holds, for every query embedded in the
// benchmark UDFs, the normalized statement and the planner's choice log as
// the interpreter plans it on the benchmark dataset. Regenerate with:
//
//	go test ./internal/engine -run TestEmbeddedPlanGolden -update

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"udfdecorr/internal/algebra"
	"udfdecorr/internal/ast"
	"udfdecorr/internal/bench"
	"udfdecorr/internal/catalog"
	"udfdecorr/internal/core"
	"udfdecorr/internal/engine"
)

// benchDataset is the mid-scale dataset of the root benchmarks and the
// daemon's -dataset bench.
var benchDataset = bench.Config{Customers: 10_000, OrdersPerCustomer: 5, Parts: 20_000,
	LineitemsPerPart: 3, Categories: 200, Seed: 20140331}

func TestEmbeddedPlanGolden(t *testing.T) {
	row, err := bench.NewEngine(engine.SYS1, engine.ModeIterative, benchDataset)
	if err != nil {
		t.Fatal(err)
	}
	vecProfile := engine.SYS1
	vecProfile.Vectorized = true
	vec := engine.NewShared(row.Cat, row.Store, vecProfile, engine.ModeIterative)

	var b strings.Builder
	for _, name := range []string{"service_level", "discount", "partcount", "getcost", "totalloss"} {
		fn, ok := row.Cat.Function(name)
		if !ok {
			t.Fatalf("no UDF %s", name)
		}
		for _, rel := range embeddedQueries(t, row.Cat, fn.Def.Body) {
			// As the interpreter plans an embedded query (embeddedQuery.node).
			norm := core.Normalize(row.Cat, rel)
			_, choices, _, err := row.Planner.BuildExplain(norm)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			_, vecChoices, _, err := vec.Planner.BuildExplain(norm)
			if err != nil {
				t.Fatalf("%s vectorized: %v", name, err)
			}
			if strings.Join(choices, "\n") != strings.Join(vecChoices, "\n") {
				t.Errorf("%s: executors choose differently:\nrow %v\nvectorized %v", name, choices, vecChoices)
			}
			b.WriteString("-- " + name + " --\n")
			b.WriteString(algebra.Print(norm))
			b.WriteString("plan:\n")
			for _, c := range choices {
				b.WriteString("  " + c + "\n")
			}
			b.WriteString("\n")
		}
	}
	got := b.String()

	path := filepath.Join("testdata", "embedded_plans.golden")
	if update := flag.Lookup("update"); update != nil && update.Value.String() == "true" {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file %s (run with -update to create): %v", path, err)
	}
	if got != string(want) {
		t.Errorf("embedded plan drift\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// embeddedQueries algebrizes, in body order, every query a UDF body embeds:
// SELECT INTO and cursor queries, and the subqueries of its expressions.
func embeddedQueries(t *testing.T, cat *catalog.Catalog, body []ast.Stmt) []algebra.Rel {
	t.Helper()
	var out []algebra.Rel
	query := func(sel *ast.SelectStmt) {
		rel, err := core.NewAlgebrizer(cat).Query(sel)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, rel)
	}
	expr := func(e ast.Expr) {
		if e == nil {
			return
		}
		ae, err := core.NewAlgebrizer(cat).Expr(e)
		if err != nil {
			t.Fatal(err)
		}
		algebra.VisitExpr(ae, func(algebra.Expr) {}, func(rel algebra.Rel) { out = append(out, rel) })
	}
	var walk func([]ast.Stmt)
	walk = func(stmts []ast.Stmt) {
		for _, s := range stmts {
			switch n := s.(type) {
			case *ast.SelectIntoStmt:
				query(n.Select)
			case *ast.DeclareCursorStmt:
				query(n.Select)
			case *ast.DeclareStmt:
				expr(n.Init)
			case *ast.AssignStmt:
				expr(n.Expr)
			case *ast.ReturnStmt:
				expr(n.Expr)
			case *ast.IfStmt:
				expr(n.Cond)
				walk(n.Then)
				walk(n.Else)
			case *ast.WhileStmt:
				expr(n.Cond)
				walk(n.Body)
			}
		}
	}
	walk(body)
	return out
}
