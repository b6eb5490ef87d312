package engine

import (
	"fmt"
	"slices"
	"strings"
	"testing"
)

// bodyTestSchema has a NULL in every nullable column and a y of 0.0, the
// inputs on which scalar evaluators most easily disagree.
const bodyTestSchema = `
create table t (k int primary key, x int, y float, s varchar);
insert into t values (1, 1, 0.0, 'apple');
insert into t values (2, 7, 2.5, 'zebra');
insert into t values (3, null, -1.5, null);
insert into t values (4, 4, null, 'm');
create table u (k int primary key, w int);
insert into u values (1, 10);
insert into u values (4, 40);
insert into u values (5, 50);
create function plus1(int v) returns int as
begin
  return v + 1;
end
`

// bodyExprs are the expressions returned by the UDF bodies of
// TestUDFBodyValuesAgree, over the parameters x int, y float, s varchar.
var bodyExprs = []string{
	"x * 3 + 1",
	"y * 2.5 - x",
	"x / 2",
	"x % 3",
	"-y",
	"s || null",
	"s || x",
	"x < y",
	"s < 'm'",
	"s is null",
	"not (s = 'apple')",
	"x in (1, null)",
	"case when x > 2 then 'big' end",
	"coalesce(s, 'none')",
	"(select w from u where u.k = x)",
	"exists (select 1 from u where u.k = x)",
	"plus1(x) * 2",
}

// renderBy returns each row's rendered cells, sorted by the first column.
func renderBy(res *Result) []string {
	out := make([]string, len(res.Rows))
	for i, r := range res.Rows {
		cells := make([]string, len(r))
		for j, v := range r {
			cells[j] = v.Display()
		}
		out[i] = strings.Join(cells, "|")
	}
	slices.Sort(out)
	return out
}

// TestUDFBodyValuesAgree runs each body once per row in iterative mode and
// inlined into the decorrelated plan in rewrite mode, and compares the
// rendered values: the two modes compile a body's expressions with the same
// compiler, so they agree to the last character (-0 included, which KeyOf
// would hide).
func TestUDFBodyValuesAgree(t *testing.T) {
	var script strings.Builder
	script.WriteString(bodyTestSchema)
	for i, e := range bodyExprs {
		fmt.Fprintf(&script, "create function f%d(int x, float y, varchar s) returns int as\nbegin\n  return %s;\nend\n", i, e)
	}
	engines := map[Mode]*Engine{}
	for _, mode := range []Mode{ModeIterative, ModeRewrite} {
		e := New(SYS1, mode)
		if err := e.ExecScript(script.String()); err != nil {
			t.Fatal(err)
		}
		engines[mode] = e
	}
	for i, e := range bodyExprs {
		q := fmt.Sprintf("select k, f%d(x, y, s) from t", i)
		it, err := engines[ModeIterative].Query(q)
		if err != nil {
			t.Fatalf("%s: iterative: %v", e, err)
		}
		rw, err := engines[ModeRewrite].Query(q)
		if err != nil {
			t.Fatalf("%s: rewrite: %v", e, err)
		}
		if !rw.Rewritten {
			t.Errorf("%s: rewrite mode did not decorrelate", e)
		}
		if a, b := renderBy(it), renderBy(rw); !slices.Equal(a, b) {
			t.Errorf("%s:\n  iterative %q\n  rewrite   %q", e, a, b)
		}
	}
}

// TestUDFBodyScopeIsLexical: inner1 reads a name only its caller declares.
// Scope is lexical, so the call fails in both modes.
func TestUDFBodyScopeIsLexical(t *testing.T) {
	for _, mode := range []Mode{ModeIterative, ModeRewrite} {
		e := New(SYS1, mode)
		if err := e.ExecScript(bodyTestSchema + `
create function inner1(int a) returns int as
begin
  return a + secret;
end
create function outer1(int a) returns int as
begin
  int secret = 100;
  return inner1(a);
end`); err != nil {
			t.Fatal(err)
		}
		res, err := e.Query("select k, outer1(k) from t")
		if err == nil || !strings.Contains(err.Error(), `unknown variable "secret"`) {
			t.Errorf("%v: err = %v, want unknown variable \"secret\"", mode, err)
			if err == nil {
				t.Logf("%v: rows %q", mode, renderBy(res))
			}
		}
	}
}

// TestUDFBodyEmbeddedQueryCounters: every kind of query embedded in a body
// counts one execution per call; SYS1 plans it once, SYS2 on every
// execution.
func TestUDFBodyEmbeddedQueryCounters(t *testing.T) {
	bodies := map[string]string{
		"select into":     "int v; select w into :v from u where u.k = x; return v;",
		"scalar subquery": "return (select w from u where u.k = x);",
		"exists":          "if (exists (select 1 from u where u.k = x)) return 1; return 0;",
	}
	for _, p := range []struct {
		profile Profile
		plans   int64
	}{{SYS1, 1}, {SYS2, 4}} {
		for name, body := range bodies {
			e := New(p.profile, ModeIterative)
			if err := e.ExecScript(bodyTestSchema +
				"create function g(int x) returns int as begin " + body + " end"); err != nil {
				t.Fatal(err)
			}
			res, err := e.Query("select k, g(k) from t")
			if err != nil {
				t.Fatalf("%s %s: %v", p.profile.Name, name, err)
			}
			c := res.Counters
			if c.UDFCalls != 4 || c.QueryExecs != 4 || c.PlanBuilds != p.plans {
				t.Errorf("%s %s: udf_calls/query_execs/plan_builds = %d/%d/%d, want 4/4/%d",
					p.profile.Name, name, c.UDFCalls, c.QueryExecs, c.PlanBuilds, p.plans)
			}
		}
	}
}

// TestUDFBodyConcurrentFirstCalls: queries racing to lower a body and to
// plan its embedded query see one lowered form and the same answers (run
// under -race).
func TestUDFBodyConcurrentFirstCalls(t *testing.T) {
	for _, profile := range []Profile{SYS1, SYS2} {
		e := New(profile, ModeIterative)
		if err := e.ExecScript(bodyTestSchema + `
create function g(int x) returns int as
begin
  int v;
  select w into :v from u where u.k = x;
  return coalesce(v, (select count(*) from u)) + plus1(x);
end`); err != nil {
			t.Fatal(err)
		}
		const q = "select k, g(k) from t"
		want := []string{"1|12", "2|6", "3|7", "4|45"}
		errs := make(chan error, 8)
		for range 8 {
			go func() {
				res, err := e.Query(q)
				if err == nil && !slices.Equal(renderBy(res), want) {
					err = fmt.Errorf("rows %q, want %q", renderBy(res), want)
				}
				errs <- err
			}()
		}
		for range 8 {
			if err := <-errs; err != nil {
				t.Errorf("%s: %v", profile.Name, err)
			}
		}
	}
}

// TestInSubqueryIsThreeValued pins SQL's reading of x [NOT] IN (q) against
// hand-computed answers, with NULL on the left (t.x of row 3) and in the
// subquery (n.w), in both modes and both executors: as a body's value, as
// a body's IF condition, and as a query's filter.
func TestInSubqueryIsThreeValued(t *testing.T) {
	const schema = bodyTestSchema + `
create table n (k int primary key, w int);
insert into n values (1, 1);
insert into n values (2, null);
`
	// Rows of t are k=1..4 with x = 1, 7, NULL, 4; u.k is {1, 4, 5}.
	bodies := []struct{ body, want string }{
		{"return x in (select k from u);", "1|TRUE 2|FALSE 3|NULL 4|TRUE"},
		{"return x not in (select k from u);", "1|FALSE 2|TRUE 3|NULL 4|FALSE"},
		{"return x in (select w from n);", "1|TRUE 2|NULL 3|NULL 4|NULL"},
		{"return x not in (select w from n);", "1|FALSE 2|NULL 3|NULL 4|NULL"},
		{"return x in (select w from u where w > 100);", "1|FALSE 2|FALSE 3|FALSE 4|FALSE"},
		{"return x not in (select w from u where w > 100);", "1|TRUE 2|TRUE 3|TRUE 4|TRUE"},
		{"if (x not in (select w from n)) return 1; return 0;", "1|0 2|0 3|0 4|0"},
		{"if (x not in (select k from u)) return 1; return 0;", "1|0 2|1 3|0 4|0"},
	}
	filters := []struct{ where, want string }{
		{"x in (select k from u)", "1 4"},
		{"x not in (select k from u)", "2"},
		{"x not in (select w from n)", ""},
		{"not (x in (select w from n))", ""},
		{"x not in (select w from u where w > 100)", "1 2 3 4"},
		{"x not in (select w from n) or k = 3", "3"},
	}
	var script strings.Builder
	script.WriteString(schema)
	for i, b := range bodies {
		fmt.Fprintf(&script, "create function in%d(int x) returns int as\nbegin\n  %s\nend\n", i, b.body)
	}
	for _, mode := range []Mode{ModeIterative, ModeRewrite} {
		for _, vectorized := range []bool{false, true} {
			profile := SYS1
			profile.Vectorized = vectorized
			e := New(profile, mode)
			if err := e.ExecScript(script.String()); err != nil {
				t.Fatal(err)
			}
			label := fmt.Sprintf("%v vectorized=%v", mode, vectorized)
			for i, b := range bodies {
				res, err := e.Query(fmt.Sprintf("select k, in%d(x) from t", i))
				if err != nil {
					t.Fatalf("%s: %s: %v", label, b.body, err)
				}
				if got := strings.Join(renderBy(res), " "); got != b.want {
					t.Errorf("%s: %s\n  got  %s\n  want %s", label, b.body, got, b.want)
				}
			}
			for _, f := range filters {
				res, err := e.Query("select k from t where " + f.where)
				if err != nil {
					t.Fatalf("%s: where %s: %v", label, f.where, err)
				}
				if got := strings.Join(renderBy(res), " "); got != f.want {
					t.Errorf("%s: where %s\n  got  %q\n  want %q", label, f.where, got, f.want)
				}
			}
		}
	}
}
