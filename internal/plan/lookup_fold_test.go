package plan

import (
	"strings"
	"testing"

	"udfdecorr/internal/core"
	"udfdecorr/internal/exec"
	"udfdecorr/internal/parser"
)

// TestProjectionFoldsIntoIndexLookup: a projection of plain columns over an
// index lookup folds into the lookup's output list on every executor,
// keeping the projection's names and order, while a DISTINCT or a computed
// projection stays a projection over a lookup that emits whole rows.
func TestProjectionFoldsIntoIndexLookup(t *testing.T) {
	p, cat := pruneDB(t)
	cases := []struct {
		name   string
		sql    string
		labels string // the row executor's plan, root first
		schema string
		rows   string
	}{
		{"renames_kept", "select amt as a, k as kk, amt from o where k = 7",
			"IndexLookup(o.k) cols=3/4", "a kk amt", "[259 7 259]"},
		{"reorder_one_column", "select v from o where k = 7",
			"IndexLookup(o.k) cols=1/4", "v", "[7]"},
		{"distinct_not_folded", "select distinct cust, v from o where k = 7",
			"Project(distinct) > IndexLookup(o.k)", "cust v", "[1007 7]"},
		{"computed_not_folded", "select amt + 1 as a1, k from o where k = 7",
			"Project > IndexLookup(o.k)", "a1 k", "[260 7]"},
	}
	for _, c := range cases {
		for _, ex := range pruneExecutors {
			t.Run(c.name+"/"+ex.name, func(t *testing.T) {
				sel, err := parser.ParseQuery(c.sql)
				if err != nil {
					t.Fatal(err)
				}
				rel, err := core.NewAlgebrizer(cat).Query(sel)
				if err != nil {
					t.Fatal(err)
				}
				q := *p
				q.Vectorized, q.Parallelism = ex.vectorized, ex.parallelism
				n, err := q.Build(core.Normalize(cat, rel))
				if err != nil {
					t.Fatal(err)
				}
				var labels []string
				for m := n; m != nil; {
					labels = append(labels, exec.PlanLabel(m))
					ch := exec.PlanChildren(m)
					if len(ch) != 1 {
						break
					}
					m = ch[0]
				}
				if ex.name == "row" && strings.Join(labels, " > ") != c.labels {
					t.Errorf("plan %q, want %q", strings.Join(labels, " > "), c.labels)
				}
				var names []string
				for _, col := range n.Schema() {
					names = append(names, col.Name)
				}
				if strings.Join(names, " ") != c.schema {
					t.Errorf("schema %v, want %s", names, c.schema)
				}
				rows, err := exec.Drain(n, exec.NewCtx(nil))
				if err != nil {
					t.Fatal(err)
				}
				if got := strings.Join(rowStrings(rows, true), " "); got != c.rows {
					t.Errorf("rows %s, want %s", got, c.rows)
				}
				for _, r := range rows {
					if len(r) != len(names) {
						t.Errorf("row %v has %d columns, want %d", r, len(r), len(names))
					}
				}
			})
		}
	}
}
