package engine_test

// Fold differential suite: cursor loops whose result is a builtin fold
// decorrelate to builtin count/sum aggregates instead of an interpreted
// auxiliary aggregate. Each variant must return the iterative rows in every
// mode, on both executors, as generated SQL and at parallelism 4, including
// on NULL terms, NULL guards and empty cursors.

import (
	"fmt"
	"strings"
	"testing"

	"udfdecorr/internal/bench"
	"udfdecorr/internal/engine"
	"udfdecorr/internal/exec"
	"udfdecorr/internal/sqlgen"
)

// foldVariant is one cursor-loop UDF over lineitem(price, qty, disc) of a
// part; fold says whether its loop must become builtin aggregates (true)
// or keep the auxiliary aggregate (false).
type foldVariant struct {
	name, decls, body, ret string
	fold                   bool
}

var foldVariants = []foldVariant{
	{"count0", "int n = 0", "n = n + 1;", "n", true},
	{"count7", "int n = 7", "n = 1 + n;", "n", true},
	{"guarded_count", "int n = 0", "if (@d < 20) n = n + 1;", "n", true},
	{"sum_plus", "int s = 0", "s = s + @p;", "s", true},
	{"sum_eplus", "int s = 0", "s = @q + s;", "s", true},
	{"sum_minus", "int s = 0", "s = s - @d;", "s", true},
	{"guarded_sum", "int s = 0", "if (@q > 3) s = s + @p * 0.1;", "s", true},
	{"null_guard", "int s = 0", "if (@d > 10) s = s - @p;", "s", true},
	{"rejecting_guard", "int s = 0", "if (@p > 300) s = s + @p;", "s", true},
	{"two_results", "int n = 0; int s = 0", "n = n + 1; if (@q > 2) s = s + @p;", "s * 1000 + n", true},
	{"two_in_one_if", "int n = 0; int s = 0", "if (@q > 2) begin n = n + 1; s = s + @d; end", "s * 1000 + n", true},
	{"sum_init5", "int s = 5", "s = s + @p * 0.01;", "s", false},
	{"null_counter", "int n", "n = n + 1;", "n", false},
}

func (v foldVariant) udf() string {
	return fmt.Sprintf(`
create function fold_%s(int pkey) returns float as
begin
  %s;
  declare c cursor for select price, qty, disc from lineitem where partkey = :pkey;
  open c;
  fetch next from c into @p, @q, @d;
  while @@FETCH_STATUS = 0
  begin
    %s
    fetch next from c into @p, @q, @d;
  end
  close c; deallocate c;
  return %s;
end
`, v.name, v.decls, v.body, v.ret)
}

func (v foldVariant) query() string {
	return fmt.Sprintf("select partkey, fold_%s(partkey) from part", v.name)
}

// foldFixture adds lineitems whose price, qty or disc is NULL (a NULL term
// or a NULL guard on some rows) and a category with no parts (an empty
// partcount cursor). Every part with partkey % 11 = 0 already has no
// lineitems.
const foldFixture = `
insert into lineitem values (9000101, 5, null, 4, 12.0);
insert into lineitem values (9000102, 6, 320.0, null, 3.0);
insert into lineitem values (9000103, 7, 410.0, 5, null);
insert into lineitem values (9000104, 8, null, null, null);
insert into category values (9000101, null);
`

// foldEngine builds an engine with the fold variants and the fixture rows.
func foldEngine(t *testing.T, profile engine.Profile, mode engine.Mode) *engine.Engine {
	t.Helper()
	e := diffEngine(t, profile, mode, bench.SmallConfig())
	var ddl strings.Builder
	for _, v := range foldVariants {
		ddl.WriteString(v.udf())
	}
	if err := e.ExecScript(ddl.String()); err != nil {
		t.Fatal(err)
	}
	if err := e.ExecScript(foldFixture); err != nil {
		t.Fatal(err)
	}
	return e
}

var foldCorpus = func() []bench.CorpusQuery {
	out := []bench.CorpusQuery{{Name: "partcount", SQL: "select categorykey, partcount(categorykey) from category", WantRewrite: true}}
	for _, v := range foldVariants {
		out = append(out, bench.CorpusQuery{Name: v.name, SQL: v.query(), WantRewrite: true})
	}
	return out
}()

// TestDifferentialFolds runs every fold variant in every mode (iterative,
// rewrite, cost-based) on both executors and as generated SQL, then on the
// parallel vectorized executor at parallelism 4.
func TestDifferentialFolds(t *testing.T) {
	for _, vectorized := range []bool{false, true} {
		profile := engine.SYS1
		profile.Vectorized = vectorized
		t.Run(fmt.Sprintf("vectorized=%v", vectorized), func(t *testing.T) {
			var engines []*engine.Engine
			for _, mode := range []engine.Mode{engine.ModeIterative, engine.ModeRewrite, engine.ModeCostBased} {
				engines = append(engines, foldEngine(t, profile, mode))
			}
			checkCorpus(t, foldCorpus, engines[0], engines[1:]...)
		})
	}

	t.Run("parallel=4", func(t *testing.T) {
		defer func(old int) { exec.MorselRows = old }(exec.MorselRows)
		exec.MorselRows = 64
		profile := engine.SYS1
		profile.Vectorized = true
		profile.Parallelism = 4
		truth := foldEngine(t, engine.SYS1, engine.ModeIterative)
		par := foldEngine(t, profile, engine.ModeRewrite)
		for _, q := range foldCorpus {
			want, err := truth.Query(q.SQL)
			if err != nil {
				t.Fatalf("%s iterative: %v", q.Name, err)
			}
			got, err := par.Query(q.SQL)
			if err != nil {
				t.Fatalf("%s parallel: %v", q.Name, err)
			}
			if !got.Rewritten {
				t.Fatalf("%s: not decorrelated", q.Name)
			}
			// Parallel partial sums may re-associate float additions.
			assertApproxMultiset(t, q.Name+": iterative vs parallel rewrite", want.Rows, got.Rows)
		}
	})
}

// TestFoldRecognition pins which variants fold: a fold registers no
// auxiliary aggregate and its rewrite makes no UDF call, the others keep
// exactly one auxiliary aggregate.
func TestFoldRecognition(t *testing.T) {
	e := foldEngine(t, engine.SYS1, engine.ModeRewrite)
	for _, v := range foldVariants {
		t.Run(v.name, func(t *testing.T) {
			res, err := e.RewriteSQL(v.query())
			if err != nil {
				t.Fatal(err)
			}
			want := 1
			if v.fold {
				want = 0
			}
			if len(res.NewAggs) != want {
				t.Fatalf("aux aggregates = %d, want %d", len(res.NewAggs), want)
			}
			r, err := e.Query(v.query())
			if err != nil {
				t.Fatal(err)
			}
			if !r.Rewritten || r.Counters.UDFCalls != 0 {
				t.Errorf("rewritten=%v udf calls=%d", r.Rewritten, r.Counters.UDFCalls)
			}
		})
	}

	// The paper's Fig. 12 loop is plain count(*): no CREATE AGGREGATE.
	res, err := e.RewriteSQL("select categorykey, partcount(categorykey) from category")
	if err != nil {
		t.Fatal(err)
	}
	sql, err := sqlgen.Generate(res.Rel)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.NewAggs) != 0 || strings.Contains(sql, "aux_agg_") || !strings.Contains(sql, "count(*)") {
		t.Errorf("partcount rewrite: %d aux aggregates, SQL:\n%s", len(res.NewAggs), sql)
	}
}
