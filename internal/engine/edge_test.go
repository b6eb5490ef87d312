package engine

import (
	"fmt"
	"strings"
	"testing"

	"udfdecorr/internal/sqltypes"
	"udfdecorr/internal/storage"
)

// TestSelfTableAliasCapture is a regression test: a UDF querying the SAME
// table as the outer query (same default alias) must not capture the
// outer's qualifier during merging — "where t.k = :k" with :k bound to the
// outer t.k once turned into the tautology "t.k = t.k".
func TestSelfTableAliasCapture(t *testing.T) {
	build := func(mode Mode) *Engine {
		e := New(SYS1, mode)
		if err := e.ExecScript(`
create table t (k int primary key, v float);
insert into t values (1, 10.5), (2, 20.5), (3, 7.25);
create function keysum(int k) returns float as
begin
  return select sum(v) from t where k = :k;
end`); err != nil {
			t.Fatal(err)
		}
		return e
	}
	it := build(ModeIterative)
	rw := build(ModeRewrite)
	q := "select k, keysum(k) from t"
	r1, err := it.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := rw.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if !r2.Rewritten {
		t.Fatal("expected decorrelation")
	}
	assertSameRows(t, r1.Rows, r2.Rows)
	// Concretely: k=1 must map to 10.5, not the grand total.
	for _, r := range r2.Rows {
		k, _ := r[0].AsInt()
		if k == 1 {
			if v, _ := r[1].AsFloat(); v != 10.5 {
				t.Fatalf("keysum(1) = %v, want 10.5 (alias capture!)", r[1])
			}
		}
	}
}

func TestExistsAndNotExists(t *testing.T) {
	for _, q := range []string{
		"select custkey from customer c where exists (select 1 from orders o where o.custkey = c.custkey)",
		"select custkey from customer c where not exists (select 1 from orders o where o.custkey = c.custkey)",
	} {
		rit, rrw := compareModes(t, q, true)
		if len(rit.Rows) == 0 {
			t.Errorf("query %q returned nothing", q)
		}
		_ = rrw
	}
}

func TestInSubquery(t *testing.T) {
	compareModes(t, "select name from customer where custkey in (select custkey from orders)", true)
	compareModes(t, "select name from customer where custkey not in (select custkey from orders)", true)
}

func TestUDFCallingUDF(t *testing.T) {
	e := fullEngine(t, ModeRewrite)
	err := e.ExecScript(`
create function double_business(int ckey) returns float as
begin
  return totalbusiness(:ckey) * 2;
end`)
	if err != nil {
		t.Fatal(err)
	}
	it := fullEngine(t, ModeIterative)
	if err := it.ExecScript(`
create function double_business(int ckey) returns float as
begin
  return totalbusiness(:ckey) * 2;
end`); err != nil {
		t.Fatal(err)
	}
	q := "select custkey, double_business(custkey) from customer"
	r1, err := it.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := e.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if !r2.Rewritten {
		t.Fatal("nested UDF call should still decorrelate")
	}
	if r2.Counters.UDFCalls != 0 {
		t.Errorf("decorrelated plan made %d UDF calls", r2.Counters.UDFCalls)
	}
	assertSameRows(t, r1.Rows, r2.Rows)
}

func TestEmptyOuterTable(t *testing.T) {
	e := New(SYS1, ModeRewrite)
	if err := e.ExecScript(paperSchema + serviceLevelUDF); err != nil {
		t.Fatal(err)
	}
	res, err := e.Query(example1Query)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 0 {
		t.Errorf("empty customer table should give no rows, got %d", len(res.Rows))
	}
}

func TestNullParameterThroughUDF(t *testing.T) {
	it := fullEngine(t, ModeIterative)
	rw := fullEngine(t, ModeRewrite)
	// A customer row with NULL category exercises NULL propagation through
	// the discount UDF's second lookup.
	null := storage.Row{sqltypes.NewInt(9999), sqltypes.NewString("nil"),
		sqltypes.Null, sqltypes.NewInt(0)}
	for _, e := range []*Engine{it, rw} {
		if err := e.Load("customer", []storage.Row{null}); err != nil {
			t.Fatal(err)
		}
		if err := e.Load("orders", []storage.Row{{
			sqltypes.NewInt(999900), sqltypes.NewInt(9999), sqltypes.NewFloat(100),
		}}); err != nil {
			t.Fatal(err)
		}
	}
	q := "select orderkey, discount(totalprice, custkey) from orders where orderkey = 999900"
	r1, err := it.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := rw.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(r1.Rows) != 1 || len(r2.Rows) != 1 {
		t.Fatalf("rows: %d vs %d", len(r1.Rows), len(r2.Rows))
	}
	if !r1.Rows[0][1].IsNull() || !r2.Rows[0][1].IsNull() {
		t.Errorf("NULL category should yield NULL discount: %v vs %v", r1.Rows[0][1], r2.Rows[0][1])
	}
}

func TestExplainOutput(t *testing.T) {
	out := explain(t, fullEngine(t, ModeRewrite), "select custkey, service_level(custkey) from customer")
	if !strings.Contains(out, "rewritten: true") {
		t.Errorf("explain should report the rewrite:\n%s", out)
	}
	if !strings.Contains(out, "Join") {
		t.Errorf("explain should show join choices:\n%s", out)
	}
	out2 := explain(t, fullEngine(t, ModeIterative), "select custkey, service_level(custkey) from customer")
	if !strings.Contains(out2, "rewritten: false") {
		t.Errorf("iterative explain:\n%s", out2)
	}
}

func TestSYS2ProfileAgrees(t *testing.T) {
	it := fullEngine(t, ModeIterative)
	sys2 := New(SYS2, ModeIterative)
	if err := sys2.ExecScript(paperSchema + serviceLevelUDF); err != nil {
		t.Fatal(err)
	}
	// Mirror the data into the SYS2 engine.
	for _, tbl := range []string{"customer", "orders"} {
		src, _ := it.Store.Table(tbl)
		if err := sys2.Load(tbl, src.Rows()); err != nil {
			t.Fatal(err)
		}
	}
	r1, err := it.Query(example1Query)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := sys2.Query(example1Query)
	if err != nil {
		t.Fatal(err)
	}
	assertSameRows(t, r1.Rows, r2.Rows)
	// SYS2 re-plans per embedded execution.
	if r2.Counters.PlanBuilds < r2.Counters.QueryExecs {
		t.Errorf("SYS2 should re-plan per execution: %d plans for %d execs",
			r2.Counters.PlanBuilds, r2.Counters.QueryExecs)
	}
	if r1.Counters.PlanBuilds >= r1.Counters.QueryExecs && r1.Counters.QueryExecs > 1 {
		t.Errorf("SYS1 should cache plans: %d plans for %d execs",
			r1.Counters.PlanBuilds, r1.Counters.QueryExecs)
	}
}

func TestCostBasedLargePrefersRewrite(t *testing.T) {
	e := fullEngine(t, ModeCostBased)
	res, err := e.Query("select custkey, service_level(custkey) from customer")
	if err != nil {
		t.Fatal(err)
	}
	if !res.Rewritten {
		t.Error("cost-based mode should decorrelate the full-table query")
	}
}

func TestTopLimitsUDFInvocations(t *testing.T) {
	e := fullEngine(t, ModeIterative)
	res, err := e.Query("select top 7 custkey, service_level(custkey) from customer")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 7 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	if res.Counters.UDFCalls != 7 {
		t.Errorf("pipelined TOP should invoke the UDF exactly 7 times, got %d", res.Counters.UDFCalls)
	}
}

func TestWhereAndSelectUDFTogether(t *testing.T) {
	compareModes(t,
		`select custkey, service_level(custkey) from customer
		 where totalbusiness(custkey) > 100000`, true)
}

func TestDistinctOverUDF(t *testing.T) {
	compareModes(t, "select distinct service_level(custkey) from customer", true)
}

func TestOrderByOverUDFResult(t *testing.T) {
	it := fullEngine(t, ModeIterative)
	rw := fullEngine(t, ModeRewrite)
	q := "select custkey, totalbusiness(custkey) tb from customer order by custkey desc"
	r1, err := it.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := rw.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if !r2.Rewritten {
		t.Fatal("expected rewrite")
	}
	// Order-sensitive comparison.
	if len(r1.Rows) != len(r2.Rows) {
		t.Fatalf("row counts differ")
	}
	for i := range r1.Rows {
		if sqltypes.KeyOf(r1.Rows[i]...) != sqltypes.KeyOf(r2.Rows[i]...) {
			t.Fatalf("row %d differs: %v vs %v", i, r1.Rows[i], r2.Rows[i])
		}
	}
}

// TestBigIntegerKeysStayDistinct: float64 rounds 2^53+1 to 2^53, so a key
// encoding that went through float64 merged the two in DISTINCT,
// count(distinct), GROUP BY and index probes, on both executors.
func TestBigIntegerKeysStayDistinct(t *testing.T) {
	for _, vectorized := range []bool{false, true} {
		for _, indexed := range []bool{false, true} {
			t.Run(fmt.Sprintf("vectorized=%v/indexed=%v", vectorized, indexed), func(t *testing.T) {
				profile := SYS1
				profile.Vectorized = vectorized
				e := New(profile, ModeIterative)
				if err := e.ExecScript(`
create table t (a int, b int);
insert into t values (9007199254740993, 1), (9007199254740992, 2);
create table u (a int, b int);
insert into u values (9007199254740993, 1), (9007199254740992, 1);`); err != nil {
					t.Fatal(err)
				}
				if indexed {
					if err := e.CreateIndex("t", "a"); err != nil {
						t.Fatal(err)
					}
				}
				for _, c := range []struct {
					q    string
					want string
				}{
					{"select distinct a from t order by a", "[[9007199254740992] [9007199254740993]]"},
					{"select count(distinct a) from t", "[[2]]"},
					{"select a, b, count(*) from u group by a, b order by a", "[[9007199254740992 1 1] [9007199254740993 1 1]]"},
					{"select b from t where a = 9007199254740993", "[[1]]"},
				} {
					res, err := e.Query(c.q)
					if err != nil {
						t.Fatalf("%s: %v", c.q, err)
					}
					if got := fmt.Sprint(res.Rows); got != c.want {
						t.Errorf("%s = %s, want %s", c.q, got, c.want)
					}
				}
			})
		}
	}
}

// TestIntFloatCompareExact: above 2^53 float64 rounds an int, so an int
// compared with a float as float64 made 9007199254740993 equal to
// 9007199254740992.0 in a filter, while the keys of a hash join, a GROUP BY
// and an index probe keep them apart. Every path must agree.
func TestIntFloatCompareExact(t *testing.T) {
	for _, vectorized := range []bool{false, true} {
		for _, indexed := range []bool{false, true} {
			t.Run(fmt.Sprintf("vectorized=%v/indexed=%v", vectorized, indexed), func(t *testing.T) {
				profile := SYS1
				profile.Vectorized = vectorized
				e := New(profile, ModeIterative)
				if err := e.ExecScript(`
create table t (a int, b int);
insert into t values (9007199254740993, 1), (9007199254740992, 2), (9007199254740991, 3), (9007199254740992.0, 4), (1, 5), (2, 6);
create table f (x float);
insert into f values (9007199254740992.0), (0.5), (1.5);`); err != nil {
					t.Fatal(err)
				}
				if indexed {
					if err := e.CreateIndex("t", "a"); err != nil {
						t.Fatal(err)
					}
				}
				query := func(q string) string {
					t.Helper()
					res, err := e.Query(q)
					if err != nil {
						t.Fatalf("%s: %v", q, err)
					}
					return fmt.Sprint(res.Rows)
				}
				for _, c := range []struct{ op, want string }{
					{"=", "[[2] [4]]"},
					{"<", "[[3] [5] [6]]"},
					{">", "[[1]]"},
				} {
					for _, q := range []string{
						"select b from t where a " + c.op + " 9007199254740992.0 order by b",
						"select t.b from t, f where t.a " + c.op + " f.x and f.x > 2.0 order by t.b",
						"select min(b) from t where a " + c.op + " 9007199254740992.0 group by b order by b",
					} {
						if got := query(q); got != c.want {
							t.Errorf("%s = %s, want %s", q, got, c.want)
						}
					}
				}
				const join = "select t.b from t, f where t.a = f.x order by t.b"
				p, err := e.Prepare(join)
				if err != nil {
					t.Fatal(err)
				}
				if choices := strings.Join(p.Choices, " "); !strings.Contains(choices, "HashJoin") && !strings.Contains(choices, "IndexNLJoin") {
					t.Fatalf("%s: plan %s hashes no key", join, choices)
				}
				if got := query(join); got != "[[2] [4]]" {
					t.Errorf("%s = %s, want [[2] [4]]", join, got)
				}
				const group = "select a, count(*) from t where a > 2 group by a order by a"
				if got := query(group); got != "[[9007199254740991 1] [9007199254740992 2] [9007199254740993 1]]" {
					t.Errorf("%s = %s", group, got)
				}
			})
		}
	}
}

// TestFloatModuloByFractionFailsSmall: float modulo truncates its operands
// to int64, and a divisor in (-1, 1) once divided by integer zero and
// panicked, while an operand int64 cannot hold wrapped (1e19 % 3.0 read
// -2). Both are statement errors now, and the engine answers the next
// statement.
func TestFloatModuloByFractionFailsSmall(t *testing.T) {
	for _, vectorized := range []bool{false, true} {
		t.Run(fmt.Sprintf("vectorized=%v", vectorized), func(t *testing.T) {
			profile := SYS1
			profile.Vectorized = vectorized
			e := New(profile, ModeIterative)
			if err := e.ExecScript(`
create table t (a int);
insert into t values (7), (8);
create table f (x float, y float);
insert into f values (1e19, 3.0), (-9.3e18, 1e300);`); err != nil {
				t.Fatal(err)
			}
			if _, err := e.Query("select a % 0.5 from t"); err == nil || !strings.Contains(err.Error(), "modulo by zero") {
				t.Fatalf("a %% 0.5: err = %v, want modulo by zero", err)
			}
			for _, q := range []string{
				"select 1e19 % 3.0",
				"select x % y from f",
				"select y % x from f where x > 0",
				"select x from f where x % 2.0 = 1",
			} {
				if _, err := e.Query(q); err == nil || !strings.Contains(err.Error(), "modulo operand out of integer range") {
					t.Errorf("%s: err = %v, want an out-of-range error", q, err)
				}
			}
			res, err := e.Query("select a % 2.5 from t order by a")
			if err != nil {
				t.Fatal(err)
			}
			if got := fmt.Sprint(res.Rows); got != "[[1] [0]]" {
				t.Fatalf("a %% 2.5 = %s, want [[1] [0]]", got)
			}
		})
	}
}

// TestExecutorsReportFirstFailingRowError: the vectorized executor once
// evaluated a CASE arm or the left side of AND/OR over the whole batch
// before the rest of the expression, so it reported a later row's error
// (division by zero at k = 1) where the row executor reported the first
// row's ('a' + 1 at k = -1). Both report the first failing row's error.
func TestExecutorsReportFirstFailingRowError(t *testing.T) {
	run := func(vectorized bool, q string) error {
		profile := SYS1
		profile.Vectorized = vectorized
		e := New(profile, ModeIterative)
		if err := e.ExecScript(`
create table t (k int, s varchar);
insert into t values (-1, 'a'), (1, 'b');`); err != nil {
			t.Fatal(err)
		}
		_, err := e.Query(q)
		return err
	}
	for _, q := range []string{
		"select case when k > 0 then 1 / (k - k) else s + 1 end from t",
		"select k from t where not (k > 0 and 1 / (k - k) > 0) and s + 1 > 0",
		"select k from t where (k < 0 and s + 1 > 0) or (k > 0 and 1 / (k - k) > 0)",
	} {
		rowErr, vecErr := run(false, q), run(true, q)
		if rowErr == nil || vecErr == nil {
			t.Fatalf("%s: row err = %v, vectorized err = %v, want both to fail", q, rowErr, vecErr)
		}
		if rowErr.Error() != vecErr.Error() {
			t.Errorf("%s: row err = %q, vectorized err = %q", q, rowErr, vecErr)
		}
		if !strings.Contains(rowErr.Error(), "arithmetic on non-numeric values 'a' + 1") {
			t.Errorf("%s: err = %q, want the first row's error", q, rowErr)
		}
	}
}

// TestVectorizedProjectionCorrelatedSubquery: a batch projection runs a
// scalar subquery through the row compiler over the whole row, so its
// correlation reads the outer column even when the projection names no
// other column before it.
func TestVectorizedProjectionCorrelatedSubquery(t *testing.T) {
	want := ""
	for _, vectorized := range []bool{false, true} {
		profile := SYS1
		profile.Vectorized = vectorized
		e := New(profile, ModeIterative)
		if err := e.ExecScript(`
create table t (a int, b varchar, k int);
insert into t values (10, 'x', 1), (20, 'y', 2), (30, 'z', 3);
create table u (k int, w int);
insert into u values (1, 5), (2, 6), (2, 7), (9, 8);`); err != nil {
			t.Fatal(err)
		}
		const q = "select a, (select count(*) from u where u.k = t.k) + a from t order by a"
		res, err := e.Query(q)
		if err != nil {
			t.Fatalf("vectorized=%v: %v", vectorized, err)
		}
		got := fmt.Sprint(res.Rows)
		if got != "[[10 11] [20 22] [30 30]]" {
			t.Errorf("vectorized=%v: %s = %s, want [[10 11] [20 22] [30 30]]", vectorized, q, got)
		}
		if want == "" {
			want = got
		} else if got != want {
			t.Errorf("executors differ: %s vs %s", want, got)
		}
	}
}
