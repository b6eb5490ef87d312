package exec

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"udfdecorr/internal/algebra"
	"udfdecorr/internal/catalog"
	"udfdecorr/internal/sqltypes"
	"udfdecorr/internal/storage"
)

func intRow(vals ...int64) storage.Row {
	out := make(storage.Row, len(vals))
	for i, v := range vals {
		out[i] = sqltypes.NewInt(v)
	}
	return out
}

func intsOf(rows []storage.Row, col int) []int64 {
	out := make([]int64, len(rows))
	for i, r := range rows {
		v, _ := r[col].AsInt()
		out[i] = v
	}
	return out
}

func schema2(names ...string) []algebra.Column {
	out := make([]algebra.Column, len(names))
	for i, n := range names {
		out[i] = algebra.Column{Name: n, Type: sqltypes.KindInt}
	}
	return out
}

func colEval(t *testing.T, name string, sc []algebra.Column) Evaluator {
	t.Helper()
	ev, err := Compile(&algebra.ColRef{Name: name}, sc, nil)
	if err != nil {
		t.Fatal(err)
	}
	return ev
}

func TestFilterProjectLimit(t *testing.T) {
	rows := []storage.Row{intRow(1, 10), intRow(2, 20), intRow(3, 30), intRow(4, 40)}
	sc := schema2("a", "b")
	src := NewValues(rows, sc)
	pred, err := Compile(&algebra.Cmp{Op: sqltypes.CmpGT,
		L: &algebra.ColRef{Name: "b"}, R: &algebra.Const{Val: sqltypes.NewInt(15)}}, sc, nil)
	if err != nil {
		t.Fatal(err)
	}
	proj, err := Compile(&algebra.Arith{Op: sqltypes.OpMul,
		L: &algebra.ColRef{Name: "a"}, R: &algebra.Const{Val: sqltypes.NewInt(2)}}, sc, nil)
	if err != nil {
		t.Fatal(err)
	}
	plan := &Limit{N: 2, Child: NewProject([]Evaluator{proj}, false,
		&Filter{Pred: pred, Child: src}, schema2("x"))}
	got, err := Drain(plan, NewCtx(nil))
	if err != nil {
		t.Fatal(err)
	}
	if want := []int64{4, 6}; !reflect.DeepEqual(intsOf(got, 0), want) {
		t.Errorf("got %v, want %v", intsOf(got, 0), want)
	}
}

func TestDistinctProject(t *testing.T) {
	rows := []storage.Row{intRow(1), intRow(2), intRow(1), intRow(3), intRow(2)}
	sc := schema2("a")
	plan := NewProject([]Evaluator{colEval(t, "a", sc)}, true, NewValues(rows, sc), sc)
	got, err := Drain(plan, NewCtx(nil))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Errorf("distinct rows = %d", len(got))
	}
}

func buildJoinInputs() (Node, Node, []algebra.Column, []algebra.Column) {
	lsc := schema2("lk", "lv")
	rsc := schema2("rk", "rv")
	l := NewValues([]storage.Row{
		intRow(1, 100), intRow(2, 200), intRow(3, 300), intRow(2, 201),
	}, lsc)
	r := NewValues([]storage.Row{
		intRow(2, 9000), intRow(3, 9001), intRow(3, 9002), intRow(5, 9005),
	}, rsc)
	return l, r, lsc, rsc
}

// joinResults runs a join and returns (lk, rv) pairs.
func runJoin(t *testing.T, n Node) [][2]int64 {
	t.Helper()
	rows, err := Drain(n, NewCtx(nil))
	if err != nil {
		t.Fatal(err)
	}
	var out [][2]int64
	for _, r := range rows {
		a, _ := r[0].AsInt()
		var b int64 = -1
		if len(r) > 2 && !r[2].IsNull() {
			b, _ = r[2].AsInt()
		}
		out = append(out, [2]int64{a, b})
	}
	return out
}

func TestHashJoinMatchesNLJoin(t *testing.T) {
	for _, kind := range []algebra.JoinKind{algebra.InnerJoin, algebra.LeftOuterJoin,
		algebra.SemiJoin, algebra.AntiJoin} {
		l, r, lsc, rsc := buildJoinInputs()
		joined := append(append([]algebra.Column{}, lsc...), rsc...)
		cond, err := Compile(&algebra.Cmp{Op: sqltypes.CmpEQ,
			L: &algebra.ColRef{Name: "lk"}, R: &algebra.ColRef{Name: "rk"}}, joined, nil)
		if err != nil {
			t.Fatal(err)
		}
		nl := NewNLJoin(kind, cond, l, r)
		nlRows, err := Drain(nl, NewCtx(nil))
		if err != nil {
			t.Fatal(err)
		}

		l2, r2, _, _ := buildJoinInputs()
		hj := NewHashJoin(kind,
			[]Evaluator{colEval(t, "lk", lsc)},
			[]Evaluator{colEval(t, "rk", rsc)},
			nil, l2, r2)
		hjRows, err := Drain(hj, NewCtx(nil))
		if err != nil {
			t.Fatal(err)
		}
		if len(nlRows) != len(hjRows) {
			t.Errorf("%v: NLJ %d rows, HJ %d rows", kind, len(nlRows), len(hjRows))
			continue
		}
		count := map[string]int{}
		for _, r := range nlRows {
			count[sqltypes.KeyOf(r...)]++
		}
		for _, r := range hjRows {
			count[sqltypes.KeyOf(r...)]--
		}
		for _, v := range count {
			if v != 0 {
				t.Errorf("%v: NLJ and HJ disagree", kind)
				break
			}
		}
	}
}

func TestLeftOuterNullExtension(t *testing.T) {
	l, r, lsc, rsc := buildJoinInputs()
	hj := NewHashJoin(algebra.LeftOuterJoin,
		[]Evaluator{colEval(t, "lk", lsc)},
		[]Evaluator{colEval(t, "rk", rsc)}, nil, l, r)
	pairs := runJoin(t, hj)
	sawNull := false
	for _, p := range pairs {
		if p[0] == 1 && p[1] == -1 {
			sawNull = true
		}
	}
	if !sawNull {
		t.Errorf("unmatched left row should be null-extended: %v", pairs)
	}
}

func TestNullKeysNeverJoin(t *testing.T) {
	lsc, rsc := schema2("lk"), schema2("rk")
	l := NewValues([]storage.Row{{sqltypes.Null}, intRow(1)}, lsc)
	r := NewValues([]storage.Row{{sqltypes.Null}, intRow(1)}, rsc)
	hj := NewHashJoin(algebra.InnerJoin,
		[]Evaluator{colEval(t, "lk", lsc)}, []Evaluator{colEval(t, "rk", rsc)}, nil, l, r)
	rows, err := Drain(hj, NewCtx(nil))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Errorf("NULL keys must not join: got %d rows", len(rows))
	}
}

func TestHashAggBuiltins(t *testing.T) {
	sc := schema2("g", "v")
	rows := []storage.Row{
		intRow(1, 10), intRow(1, 20), intRow(2, 5),
		{sqltypes.NewInt(2), sqltypes.Null}, // NULL ignored by sum/avg/count(v)
	}
	keys := []Evaluator{colEval(t, "g", sc)}
	aggs := []*AggSpec{
		{Func: "sum", Args: []Evaluator{colEval(t, "v", sc)}},
		{Func: "count", Args: []Evaluator{colEval(t, "v", sc)}},
		{Func: "count"}, // count(*)
		{Func: "min", Args: []Evaluator{colEval(t, "v", sc)}},
		{Func: "max", Args: []Evaluator{colEval(t, "v", sc)}},
		{Func: "avg", Args: []Evaluator{colEval(t, "v", sc)}},
	}
	out := schema2("g", "s", "c", "cs", "mn", "mx")
	out = append(out, algebra.Column{Name: "av", Type: sqltypes.KindFloat})
	agg := NewHashAgg(keys, aggs, NewValues(rows, sc), out)
	got, err := Drain(agg, NewCtx(nil))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("groups = %d", len(got))
	}
	byG := map[int64]storage.Row{}
	for _, r := range got {
		g, _ := r[0].AsInt()
		byG[g] = r
	}
	g1 := byG[1]
	if v, _ := g1[1].AsInt(); v != 30 {
		t.Errorf("sum(g=1) = %v", g1[1])
	}
	g2 := byG[2]
	if v, _ := g2[1].AsInt(); v != 5 {
		t.Errorf("sum(g=2) = %v", g2[1])
	}
	if v, _ := g2[2].AsInt(); v != 1 {
		t.Errorf("count(v) should skip NULL: %v", g2[2])
	}
	if v, _ := g2[3].AsInt(); v != 2 {
		t.Errorf("count(*) = %v", g2[3])
	}
}

func TestScalarAggOverEmptyInput(t *testing.T) {
	sc := schema2("v")
	agg := NewHashAgg(nil, []*AggSpec{
		{Func: "sum", Args: []Evaluator{colEval(t, "v", sc)}},
		{Func: "count"},
	}, NewValues(nil, sc), schema2("s", "c"))
	got, err := Drain(agg, NewCtx(nil))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("scalar agg over empty input must yield one row, got %d", len(got))
	}
	if !got[0][0].IsNull() {
		t.Errorf("SUM over empty = %v, want NULL", got[0][0])
	}
	if v, _ := got[0][1].AsInt(); v != 0 {
		t.Errorf("COUNT over empty = %v, want 0", got[0][1])
	}
}

func TestDistinctAggregate(t *testing.T) {
	sc := schema2("v")
	rows := []storage.Row{intRow(1), intRow(1), intRow(2), intRow(3), intRow(3)}
	agg := NewHashAgg(nil, []*AggSpec{
		{Func: "count", Args: []Evaluator{colEval(t, "v", sc)}, Distinct: true},
		{Func: "sum", Args: []Evaluator{colEval(t, "v", sc)}, Distinct: true},
	}, NewValues(rows, sc), schema2("c", "s"))
	got, err := Drain(agg, NewCtx(nil))
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := got[0][0].AsInt(); v != 3 {
		t.Errorf("count(distinct) = %v", got[0][0])
	}
	if v, _ := got[0][1].AsInt(); v != 6 {
		t.Errorf("sum(distinct) = %v", got[0][1])
	}
}

func TestUserDefinedAggregate(t *testing.T) {
	// Example 6's aux-agg: accumulate negative profits.
	def := &catalog.Aggregate{
		Name:   "aux_agg",
		State:  []catalog.AggStateVar{{Name: "total_loss", Init: sqltypes.NewInt(0)}},
		Params: []string{"profit"},
		Body:   mustParseBody(t, "if (profit < 0) total_loss = total_loss - profit;"),
		Result: "total_loss",
	}
	cat := catalog.New()
	if err := cat.AddAggregate(def); err != nil {
		t.Fatal(err)
	}
	interp := newTestInterp(cat)
	sc := schema2("profit")
	rows := []storage.Row{intRow(-5), intRow(3), intRow(-2), intRow(10)}
	agg := NewHashAgg(nil, []*AggSpec{{Func: "aux_agg",
		Args: []Evaluator{colEval(t, "profit", sc)}, UserDef: def}},
		NewValues(rows, sc), schema2("loss"))
	got, err := Drain(agg, NewCtx(interp))
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := got[0][0].AsInt(); v != 7 {
		t.Errorf("aux_agg = %v, want 7", got[0][0])
	}
}

func TestSortStabilityAndDirections(t *testing.T) {
	sc := schema2("a", "b")
	rows := []storage.Row{intRow(2, 1), intRow(1, 2), intRow(2, 3), intRow(1, 4)}
	plan := &Sort{Keys: []SortSpec{{Key: colEval(t, "a", sc)}}, Child: NewValues(rows, sc)}
	got, err := Drain(plan, NewCtx(nil))
	if err != nil {
		t.Fatal(err)
	}
	// Stable: within a==1, input order 2 then 4.
	if b0, _ := got[0][1].AsInt(); b0 != 2 {
		t.Errorf("stability broken: %v", got)
	}
	desc := &Sort{Keys: []SortSpec{{Key: colEval(t, "a", sc), Desc: true}}, Child: NewValues(rows, sc)}
	got2, _ := Drain(desc, NewCtx(nil))
	if a0, _ := got2[0][0].AsInt(); a0 != 2 {
		t.Errorf("desc order: %v", got2)
	}
}

func TestUnionAllAndSingle(t *testing.T) {
	sc := schema2("a")
	u := &UnionAll{L: NewValues([]storage.Row{intRow(1)}, sc),
		R: NewValues([]storage.Row{intRow(2), intRow(3)}, sc)}
	got, err := Drain(u, NewCtx(nil))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(intsOf(got, 0), []int64{1, 2, 3}) {
		t.Errorf("union = %v", intsOf(got, 0))
	}
	s, err := Drain(&Single{}, NewCtx(nil))
	if err != nil {
		t.Fatal(err)
	}
	if len(s) != 1 || len(s[0]) != 0 {
		t.Errorf("single = %v", s)
	}
}

func TestCtxFrames(t *testing.T) {
	ctx := NewCtx(nil)
	ctx.Set("x", sqltypes.NewInt(1))
	ctx.Push()
	ctx.Set("x", sqltypes.NewInt(2))
	if v, _ := ctx.Get("x"); v.Int() != 2 {
		t.Error("inner frame should shadow")
	}
	ctx.Assign("y", sqltypes.NewInt(9))
	ctx.Pop()
	if v, _ := ctx.Get("x"); v.Int() != 1 {
		t.Error("outer value should be restored")
	}
	if _, ok := ctx.Get("y"); ok {
		t.Error("inner assignment should vanish with the frame")
	}
	ctx.Push()
	ctx.Assign("x", sqltypes.NewInt(5)) // assigns through to outer frame
	ctx.Pop()
	if v, _ := ctx.Get("x"); v.Int() != 5 {
		t.Error("Assign should update the innermost existing binding")
	}
}

// TestCtxCallScope: a call frame bounds name lookup. A callee sees
// neither its caller's locals nor the frames below them, Apply and subquery
// frames pushed above the call frame stay visible to the body, and Assign
// to a name the body cannot see defines it in the top frame, leaving the
// caller's binding of the same name untouched.
func TestCtxCallScope(t *testing.T) {
	ctx := NewCtx(nil)
	ctx.Set("g", sqltypes.NewInt(1))
	outer := ctx.pushCall()
	ctx.Set("x", sqltypes.NewInt(2)) // the caller's local
	inner := ctx.pushCall()
	if _, ok := ctx.Get("x"); ok {
		t.Error("a callee must not see its caller's locals")
	}
	if _, ok := ctx.Get("g"); ok {
		t.Error("a callee must not see the frames below its caller")
	}
	ctx.Set("p", sqltypes.NewInt(3)) // the callee's parameter
	ctx.Push()                       // an Apply or subquery frame inside the body
	ctx.Set("corr", sqltypes.NewInt(4))
	if v, ok := ctx.Get("p"); !ok || v.Int() != 3 {
		t.Error("the call frame must stay visible under an Apply frame")
	}
	ctx.Assign("x", sqltypes.NewInt(5)) // undeclared in the callee
	if v, ok := ctx.Get("x"); !ok || v.Int() != 5 {
		t.Error("Assign to an undeclared name must define it")
	}
	ctx.Assign("p", sqltypes.NewInt(6)) // assigns through to the call frame
	ctx.Pop()
	if _, ok := ctx.Get("x"); ok {
		t.Error("Assign's definition belongs to the top frame and must pop with it")
	}
	if _, ok := ctx.Get("corr"); ok {
		t.Error("the Apply frame's binding must pop with it")
	}
	if v, _ := ctx.Get("p"); v.Int() != 6 {
		t.Error("Assign must update the call frame's binding")
	}
	ctx.popCall(inner)
	if v, ok := ctx.Get("x"); !ok || v.Int() != 2 {
		t.Errorf("the caller's x = %v, %v after the callee returned, want 2", v, ok)
	}
	ctx.popCall(outer)
	if v, ok := ctx.Get("g"); !ok || v.Int() != 1 || ctx.Depth() != 1 {
		t.Errorf("global g = %v, %v at depth %d", v, ok, ctx.Depth())
	}
}

func TestEvalCaseLogicNulls(t *testing.T) {
	sc := schema2("a")
	e := &algebra.Case{
		Whens: []algebra.CaseWhen{
			{Cond: &algebra.Cmp{Op: sqltypes.CmpGT, L: &algebra.ColRef{Name: "a"},
				R: &algebra.Const{Val: sqltypes.NewInt(10)}},
				Then: &algebra.Const{Val: sqltypes.NewString("big")}},
		},
		Else: &algebra.Const{Val: sqltypes.NewString("small")},
	}
	ev, err := Compile(e, sc, nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx := NewCtx(nil)
	if v, _ := ev(ctx, intRow(20)); v.Str() != "big" {
		t.Errorf("case(20) = %v", v)
	}
	if v, _ := ev(ctx, intRow(5)); v.Str() != "small" {
		t.Errorf("case(5) = %v", v)
	}
	// NULL comparison is Unknown, so the WHEN does not fire.
	if v, _ := ev(ctx, storage.Row{sqltypes.Null}); v.Str() != "small" {
		t.Errorf("case(NULL) = %v", v)
	}
}

func TestEvalShortCircuit(t *testing.T) {
	// FALSE AND (1/0 = 1) must not evaluate the division.
	sc := schema2("a")
	e := &algebra.Logic{Op: algebra.LogicAnd,
		L: &algebra.Const{Val: sqltypes.NewBool(false)},
		R: &algebra.Cmp{Op: sqltypes.CmpEQ,
			L: &algebra.Arith{Op: sqltypes.OpDiv,
				L: &algebra.Const{Val: sqltypes.NewInt(1)},
				R: &algebra.Const{Val: sqltypes.NewInt(0)}},
			R: &algebra.Const{Val: sqltypes.NewInt(1)}}}
	ev, err := Compile(e, sc, nil)
	if err != nil {
		t.Fatal(err)
	}
	v, err := ev(NewCtx(nil), intRow(1))
	if err != nil {
		t.Fatalf("short circuit failed: %v", err)
	}
	if v.Bool() {
		t.Error("FALSE AND x should be FALSE")
	}
}

func TestCompileErrors(t *testing.T) {
	sc := schema2("a")
	if _, err := Compile(&algebra.ColRef{Name: "nosuch"}, sc, nil); err == nil {
		t.Error("unresolved column should fail to compile")
	}
	if _, err := Compile(&algebra.Call{Name: "nosuchfunc"}, sc, nil); err == nil {
		t.Error("unknown function should fail to compile")
	}
	if _, err := Compile(&algebra.Subquery{Rel: &algebra.Single{}}, sc, nil); err == nil {
		t.Error("subquery without resolver should fail")
	}
}

// Property: every hash join build — the row HashJoin, BatchHashJoin and
// the partitioned build of a parallel probe — returns what the nested loop
// join does, in the same order, on random keys that mix ints, integral
// floats, strings and NULLs.
type joinCase struct {
	L, R []sqltypes.Value
}

func (joinCase) Generate(r *rand.Rand, _ int) reflect.Value {
	mk := func() []sqltypes.Value {
		out := make([]sqltypes.Value, r.Intn(20))
		for i := range out {
			n := int64(r.Intn(4))
			switch r.Intn(4) {
			case 0:
				out[i] = sqltypes.NewInt(n)
			case 1:
				out[i] = sqltypes.NewFloat(float64(n))
			case 2:
				out[i] = sqltypes.NewString(string(rune('a' + n)))
			default:
				out[i] = sqltypes.Null
			}
		}
		return out
	}
	return reflect.ValueOf(joinCase{L: mk(), R: mk()})
}

func TestQuickHashJoinEqualsNLJoin(t *testing.T) {
	lsc, rsc := schema2("lk", "lid"), schema2("rk", "rid")
	values := func(keys []sqltypes.Value, sc []algebra.Column) Node {
		rows := make([]storage.Row, len(keys))
		for i, k := range keys {
			rows[i] = storage.Row{k, sqltypes.NewInt(int64(i))}
		}
		return NewValues(rows, sc)
	}
	joined := append(append([]algebra.Column{}, lsc...), rsc...)
	cond, err := Compile(&algebra.Cmp{Op: sqltypes.CmpEQ,
		L: &algebra.ColRef{Name: "lk"}, R: &algebra.ColRef{Name: "rk"}}, joined, nil)
	if err != nil {
		t.Fatal(err)
	}
	lk, rk := colEval(t, "lk", lsc), colEval(t, "rk", rsc)
	lkVec, _ := CompileVec(&algebra.ColRef{Name: "lk"}, lsc, nil)
	rkVec, _ := CompileVec(&algebra.ColRef{Name: "rk"}, rsc, nil)
	f := func(c joinCase) bool {
		for _, kind := range []algebra.JoinKind{algebra.InnerJoin, algebra.LeftOuterJoin,
			algebra.SemiJoin, algebra.AntiJoin} {
			l, r := values(c.L, lsc), values(c.R, rsc)
			want, err := Drain(NewNLJoin(kind, cond, l, r), NewCtx(nil))
			if err != nil {
				t.Error(err)
				return false
			}
			row, err := Drain(NewHashJoin(kind, []Evaluator{lk}, []Evaluator{rk}, nil, l, r), NewCtx(nil))
			if err != nil {
				t.Error(err)
				return false
			}
			bj := NewBatchHashJoin(kind, []VecFactory{lkVec}, []VecFactory{rkVec}, nil, l, r)
			batch, err := Drain(bj, NewCtx(nil))
			if err != nil {
				t.Error(err)
				return false
			}
			// Probe a 4-partition table through the same operator, as a
			// parallel worker does.
			ctx := NewCtx(nil)
			jt, err := buildJoinTable(ctx, bj, 4)
			if err != nil {
				t.Error(err)
				return false
			}
			ctx.pipe = &pipeline{joins: map[*BatchHashJoin]*joinTable{bj: jt}}
			parted, err := Drain(bj, ctx)
			if err != nil {
				t.Error(err)
				return false
			}
			for _, got := range [][]storage.Row{row, batch, parted} {
				if len(got) != len(want) {
					return false
				}
				for i := range got {
					if !reflect.DeepEqual(got[i], want[i]) {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
