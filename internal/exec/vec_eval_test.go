package exec

import (
	"reflect"
	"testing"

	"udfdecorr/internal/algebra"
	"udfdecorr/internal/sqltypes"
	"udfdecorr/internal/storage"
)

// TestRowBridgeNarrowedSchema checks that the row bridge compiles an
// expression against only the columns it reads, in schema order, so that an
// unqualified k still resolves to o.k beside c.k: over a batch with a
// selection vector, the value and truth vectors are the row evaluator's on
// the full schema.
func TestRowBridgeNarrowedSchema(t *testing.T) {
	sc := []algebra.Column{
		{Qual: "o", Name: "k", Type: sqltypes.KindInt},
		{Qual: "c", Name: "k", Type: sqltypes.KindInt},
		{Name: "v", Type: sqltypes.KindInt},
	}
	k, ck, v := col("k"), &algebra.ColRef{Qual: "c", Name: "k"}, col("v")
	caseBoth := &algebra.Case{
		Whens: []algebra.CaseWhen{{Cond: cmp(sqltypes.CmpGT, ck, k), Then: ck}},
		Else:  k,
	}
	call := func(name string, args ...algebra.Expr) *algebra.Call { return &algebra.Call{Name: name, Args: args} }
	cases := []struct {
		e    algebra.Expr
		cols []int // the columns the row bridge gathers; nil: native
	}{
		{k, nil},
		{ck, nil},
		{caseBoth, []int{0, 1}},
		{call("abs", ck), []int{1}},
		{call("coalesce", v, ck), []int{1, 2}},
		{&algebra.IsNull{E: k}, []int{0}},
		{&algebra.Not{E: cmp(sqltypes.CmpGT, ck, lit(15))}, []int{1}},
	}

	n := func(x int64) sqltypes.Value { return sqltypes.NewInt(x) }
	b := NewBatch(len(sc), 4)
	for _, r := range []storage.Row{
		{n(1), n(10), n(100)},
		{n(2), n(20), sqltypes.Null},
		{sqltypes.Null, n(30), n(300)},
		{n(40), sqltypes.Null, n(400)},
	} {
		b.AppendRow(r)
	}
	b.Sel = []int{0, 2, 3}
	ctx := NewCtx(nil)

	for _, c := range cases {
		if c.cols != nil {
			_, cols, err := compileRow(c.e, sc, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(cols, c.cols) {
				t.Errorf("%s gathers columns %v, want %v", c.e, cols, c.cols)
			}
		}
		rowEv, err := Compile(c.e, sc, nil)
		if err != nil {
			t.Fatal(err)
		}
		vecF, err := CompileVec(c.e, sc, nil)
		if err != nil {
			t.Fatal(err)
		}
		predF, err := CompilePred(c.e, sc, nil)
		if err != nil {
			t.Fatal(err)
		}
		vec, err := vecF()(ctx, b)
		if err != nil {
			t.Fatal(err)
		}
		tri := make([]sqltypes.Tri, b.Physical())
		if err := predF()(ctx, b, tri); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < b.Len(); i++ {
			p := b.LiveAt(i)
			want, err := rowEv(ctx, b.Row(p))
			if err != nil {
				t.Fatal(err)
			}
			if got := vec[p]; got.Kind() != want.Kind() || got.Display() != want.Display() {
				t.Errorf("%s at %v: CompileVec = %v, Compile = %v", c.e, b.Row(p), got, want)
			}
			if tri[p] != sqltypes.TriOf(want) {
				t.Errorf("%s at %v: CompilePred = %v, TriOf(Compile) = %v", c.e, b.Row(p), tri[p], sqltypes.TriOf(want))
			}
		}
	}
}
