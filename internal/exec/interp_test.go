package exec

import (
	"strings"
	"testing"

	"udfdecorr/internal/algebra"
	"udfdecorr/internal/ast"
	"udfdecorr/internal/catalog"
	"udfdecorr/internal/parser"
	"udfdecorr/internal/sqltypes"
)

// noQueryPlanner resolves UDF calls as the engine's planner does but plans
// no queries, so the bodies under test embed none.
type noQueryPlanner struct{ cat *catalog.Catalog }

func (noQueryPlanner) BuildSerial(algebra.Rel) (Node, error) { return nil, Errorf("no query planner") }

func (f noQueryPlanner) ResolveScalarCall(name string, argc int) (func(*Ctx, []sqltypes.Value) (sqltypes.Value, error), bool) {
	fn, ok := f.cat.Function(name)
	if !ok || fn.IsTableValued() || len(fn.Def.Params) != argc {
		return nil, false
	}
	return func(ctx *Ctx, args []sqltypes.Value) (sqltypes.Value, error) {
		return ctx.Interp.CallScalar(ctx, name, args)
	}, true
}

func newTestInterp(cat *catalog.Catalog) *Interp {
	in := NewInterp(cat, true)
	in.Planner = noQueryPlanner{cat}
	return in
}

// mustParseBody parses a statement list by wrapping it in a function.
func mustParseBody(t *testing.T, body string) []ast.Stmt {
	t.Helper()
	src := "create function __wrap() returns int as begin " + body + " end"
	script, err := parser.ParseScript(src)
	if err != nil {
		t.Fatalf("parse body %q: %v", body, err)
	}
	return script.Functions[0].Body
}

// interpWith registers the given functions and returns an interpreter with
// no query planner (pure imperative tests).
func interpWith(t *testing.T, src string) *Interp {
	t.Helper()
	cat := catalog.New()
	script, err := parser.ParseScript(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range script.Functions {
		if _, err := cat.AddFunction(f); err != nil {
			t.Fatal(err)
		}
	}
	return newTestInterp(cat)
}

func callScalar(t *testing.T, in *Interp, name string, args ...sqltypes.Value) sqltypes.Value {
	t.Helper()
	v, err := in.CallScalar(NewCtx(in), name, args)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return v
}

func TestInterpArithmeticAndBranching(t *testing.T) {
	in := interpWith(t, `
create function grade(int score) returns varchar as
begin
  string g;
  if (score >= 90) g = 'A';
  else if (score >= 80) g = 'B';
  else g = 'C';
  return g;
end`)
	cases := map[int64]string{95: "A", 85: "B", 50: "C", 90: "A", 80: "B"}
	for score, want := range cases {
		if got := callScalar(t, in, "grade", sqltypes.NewInt(score)); got.Str() != want {
			t.Errorf("grade(%d) = %v, want %s", score, got, want)
		}
	}
}

func TestInterpWhileLoop(t *testing.T) {
	in := interpWith(t, `
create function sum_to(int n) returns int as
begin
  int i = 0; int total = 0;
  while (i < n)
  begin
    i = i + 1;
    total = total + i;
  end
  return total;
end`)
	if got := callScalar(t, in, "sum_to", sqltypes.NewInt(10)); got.Int() != 55 {
		t.Errorf("sum_to(10) = %v", got)
	}
	if got := callScalar(t, in, "sum_to", sqltypes.NewInt(0)); got.Int() != 0 {
		t.Errorf("sum_to(0) = %v", got)
	}
}

func TestInterpNestedUDFCalls(t *testing.T) {
	in := interpWith(t, `
create function double_it(int x) returns int as
begin
  return x * 2;
end
create function quad(int x) returns int as
begin
  return double_it(double_it(x));
end`)
	if got := callScalar(t, in, "quad", sqltypes.NewInt(3)); got.Int() != 12 {
		t.Errorf("quad(3) = %v", got)
	}
}

func TestInterpRecursionDepthLimit(t *testing.T) {
	in := interpWith(t, `
create function forever(int x) returns int as
begin
  return forever(x);
end`)
	if _, err := in.CallScalar(NewCtx(in), "forever", []sqltypes.Value{sqltypes.NewInt(1)}); err == nil {
		t.Fatal("infinite recursion must be caught")
	}
}

func TestInterpUninitializedIsNull(t *testing.T) {
	in := interpWith(t, `
create function bottom() returns int as
begin
  int x;
  return x;
end`)
	if got := callScalar(t, in, "bottom"); !got.IsNull() {
		t.Errorf("⊥ should be NULL, got %v", got)
	}
}

func TestInterpCaseAndIn(t *testing.T) {
	in := interpWith(t, `
create function classify(int x) returns varchar as
begin
  return case when x in (1, 2, 3) then 'small' when x > 100 then 'big' else 'mid' end;
end`)
	if got := callScalar(t, in, "classify", sqltypes.NewInt(2)); got.Str() != "small" {
		t.Errorf("classify(2) = %v", got)
	}
	if got := callScalar(t, in, "classify", sqltypes.NewInt(500)); got.Str() != "big" {
		t.Errorf("classify(500) = %v", got)
	}
	if got := callScalar(t, in, "classify", sqltypes.NewInt(50)); got.Str() != "mid" {
		t.Errorf("classify(50) = %v", got)
	}
}

func TestInterpErrors(t *testing.T) {
	in := interpWith(t, `
create function f(int x) returns int as
begin
  return x;
end`)
	ctx := NewCtx(in)
	if _, err := in.CallScalar(ctx, "nosuch", nil); err == nil {
		t.Error("unknown function")
	}
	if _, err := in.CallScalar(ctx, "f", nil); err == nil {
		t.Error("arity mismatch")
	}
	if _, err := in.CallTable(ctx, "f", []sqltypes.Value{sqltypes.NewInt(1)}); err == nil {
		t.Error("scalar function in table context")
	}
}

func TestInterpFallthroughWithoutReturn(t *testing.T) {
	in := interpWith(t, `
create function noret(int x) returns int as
begin
  int y = x + 1;
end`)
	if got := callScalar(t, in, "noret", sqltypes.NewInt(1)); !got.IsNull() {
		t.Errorf("function without RETURN yields NULL, got %v", got)
	}
}

func TestInterpAccumulateSharedState(t *testing.T) {
	def := &catalog.Aggregate{
		Name:   "sumpos",
		State:  []catalog.AggStateVar{{Name: "acc", Init: sqltypes.NewInt(0)}},
		Params: []string{"v"},
		Body:   mustParseBody(t, "if (v > 0) acc = acc + v;"),
		Result: "acc",
	}
	in := interpWith(t, `create function dummy() returns int as begin return 1; end`)
	ctx := NewCtx(in)
	state := map[string]sqltypes.Value{"acc": sqltypes.NewInt(0)}
	for _, v := range []int64{5, -3, 7} {
		if err := in.Accumulate(ctx, def, state, []sqltypes.Value{sqltypes.NewInt(v)}); err != nil {
			t.Fatal(err)
		}
	}
	if state["acc"].Int() != 12 {
		t.Errorf("acc = %v", state["acc"])
	}
	if ctx.Depth() != 1 {
		t.Errorf("frames leaked: depth %d", ctx.Depth())
	}
}

func TestInterpUnknownVariable(t *testing.T) {
	in := interpWith(t, `create function ghostly() returns int as begin return ghost; end`)
	_, err := in.CallScalar(NewCtx(in), "ghostly", nil)
	if err == nil || !strings.Contains(err.Error(), "unknown variable") {
		t.Errorf("err = %v", err)
	}
}

// TestStraightLineCallAllocatesNothing: a scalar UDF whose body declares,
// assigns and returns binds its parameters and locals on the Ctx's binding
// stack, so once the stack has grown to the call's frame a call allocates
// nothing.
func TestStraightLineCallAllocatesNothing(t *testing.T) {
	in := interpWith(t, `
create function blend(int a, int b) returns int as
begin
  int s = a + b;
  int d;
  d = s * 2;
  s = d - a;
  return s;
end`)
	ctx := NewCtx(in)
	args := []sqltypes.Value{sqltypes.NewInt(3), sqltypes.NewInt(4)}
	var got sqltypes.Value
	call := func() {
		var err error
		if got, err = in.CallScalar(ctx, "blend", args); err != nil {
			t.Fatal(err)
		}
	}
	call()
	if allocs := testing.AllocsPerRun(100, call); allocs != 0 {
		t.Errorf("a straight-line call allocated %.1f times, want 0", allocs)
	}
	if got.Int() != 11 {
		t.Errorf("blend(3, 4) = %v, want 11", got)
	}
	if ctx.Depth() != 1 {
		t.Errorf("frames leaked: depth %d", ctx.Depth())
	}
}
