package engine

// Golden EXPLAIN tests: the physical plan choices for representative queries
// are snapshotted pre-rewrite (iterative) and post-rewrite (decorrelated),
// so a planner or rewriter change that silently alters a plan shows up as a
// reviewable testdata diff. Regenerate with:
//
//	go test ./internal/engine -run TestExplainGolden -update

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite golden EXPLAIN files")

// explainCorpus names the representative queries. The file name keys the
// snapshot; each snapshot holds the iterative and rewrite explains.
var explainCorpus = []struct {
	name string
	sql  string
}{
	{"example1_service_level", "select custkey, service_level(custkey) from customer"},
	{"example1_filtered_outer", "select custkey, service_level(custkey) from customer where custkey <= 15"},
	{"example3_simple_expression", "select orderkey, discount_simple(totalprice) from orders"},
	{"example3_udf_in_predicate", "select orderkey from orders where discount_simple(totalprice) > 50000"},
	{"example4_single_query", "select custkey, totalbusiness(custkey) from customer"},
	{"example5_cursor_loop", "select partkey, totalloss(partkey) from partsupp"},
	{"example7_table_valued", "select ckey, price from bigorders(300000) b"},
	{"example7_tvf_joined", `select c.name, b.price from bigorders(400000) b
	                 join customer c on c.custkey = b.ckey`},
	{"example8_two_queries", "select orderkey, discount(totalprice, custkey) from orders"},
	{"min_cost_supplier_subquery", `select partsuppkey, partkey from partsupp p1
	      where supplycost = (select min(supplycost) from partsupp p2
	                          where p2.partkey = p1.partkey)`},
	{"plain_join_group_by", `select c.category, count(*), sum(o.totalprice)
	      from customer c join orders o on o.custkey = c.custkey
	      where c.custkey <= 30 group by c.category`},
}

func TestExplainGolden(t *testing.T) {
	for _, q := range explainCorpus {
		q := q
		t.Run(q.name, func(t *testing.T) {
			var b strings.Builder
			b.WriteString("query: " + strings.Join(strings.Fields(q.sql), " ") + "\n")
			for _, mode := range []Mode{ModeIterative, ModeRewrite} {
				b.WriteString("\n-- " + mode.String() + " --\n")
				b.WriteString(explain(t, fullEngine(t, mode), q.sql))
			}
			got := b.String()

			path := filepath.Join("testdata", "explain", q.name+".golden")
			if *updateGolden {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
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
				t.Errorf("EXPLAIN drift for %s\n--- got ---\n%s--- want ---\n%s", q.name, got, want)
			}
		})
	}
}

// TestExplainGoldenVectorizedHeader pins the executor line: the vectorized
// knob must be visible in EXPLAIN output without changing plan choices.
func TestExplainGoldenVectorizedHeader(t *testing.T) {
	e := fullEngine(t, ModeRewrite)
	profile := SYS1
	profile.Vectorized = true
	vec := NewShared(e.Cat, e.Store, profile, ModeRewrite)
	rowOut := explain(t, e, example1Query)
	vecOut := explain(t, vec, example1Query)
	if !strings.Contains(rowOut, "executor: row") || !strings.Contains(vecOut, "executor: vectorized") {
		t.Fatalf("executor header missing:\n%s\n%s", rowOut, vecOut)
	}
	if strings.ReplaceAll(rowOut, "executor: row", "executor: vectorized") != vecOut {
		t.Errorf("vectorization changed plan choices:\n--- row ---\n%s--- vectorized ---\n%s", rowOut, vecOut)
	}
}
