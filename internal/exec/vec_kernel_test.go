package exec

import (
	"math"
	"testing"

	"udfdecorr/internal/algebra"
	"udfdecorr/internal/sqltypes"
	"udfdecorr/internal/storage"
)

// TestKernelConjunctionOnePass checks that an AND chain of kernel compares
// on one column compiles to the one-pass kernel, that a chain over two
// columns does not, and that the kernel's truth values and first error are
// the row evaluator's over NULLs, strings, ints beyond 2^53, NaN,
// infinities and -0.0, with and without a selection vector.
func TestKernelConjunctionOnePass(t *testing.T) {
	f := func(v float64) *algebra.Const { return &algebra.Const{Val: sqltypes.NewFloat(v)} }
	and := func(l, r algebra.Expr) *algebra.Logic { return &algebra.Logic{Op: algebra.LogicAnd, L: l, R: r} }
	kx := &algebra.Arith{Op: sqltypes.OpAdd, L: &algebra.Arith{Op: sqltypes.OpMul, L: col("a"), R: f(1.21)}, R: f(500)}
	sc := schema2("a", "b")

	fused := []algebra.Expr{
		and(cmp(sqltypes.CmpGT, kx, f(600)), cmp(sqltypes.CmpLT, kx, f(900))),
		and(cmp(sqltypes.CmpLT, f(600), kx), cmp(sqltypes.CmpGE, f(900), kx)),
		and(cmp(sqltypes.CmpGE, col("a"), f(-1)), cmp(sqltypes.CmpLE, col("a"), f(1e300))),
		and(cmp(sqltypes.CmpGT, &algebra.Arith{Op: sqltypes.OpMul, L: col("a"), R: f(2)}, f(1)), cmp(sqltypes.CmpLT, kx, f(900))),
		and(and(cmp(sqltypes.CmpNE, col("a"), f(3)), cmp(sqltypes.CmpLE, kx, lit(1000))), cmp(sqltypes.CmpEQ, col("a"), col("a"))),
	}
	// The last entry's third conjunct compares two columns, so it is not
	// a kernel compare: the chain must stay generic.
	fused, generic := fused[:4], []algebra.Expr{
		fused[4],
		and(cmp(sqltypes.CmpGT, kx, f(600)), cmp(sqltypes.CmpLT, col("b"), f(2))),
		and(cmp(sqltypes.CmpGT, col("a"), lit(1)), cmp(sqltypes.CmpLT, col("a"), lit(9))),
	}
	for _, e := range fused {
		if _, ok := compileKernelPred(e, sc, nil); !ok {
			t.Errorf("%s: not compiled to the one-pass kernel", e)
		}
	}
	for _, e := range generic {
		if _, ok := compileKernelPred(e, sc, nil); ok {
			t.Errorf("%s: compiled to the one-pass kernel", e)
		}
	}

	vals := []sqltypes.Value{
		sqltypes.Null, sqltypes.NewInt(0), sqltypes.NewInt(100), sqltypes.NewInt(300),
		sqltypes.NewInt(1<<53 + 1), sqltypes.NewInt(-(1<<53 + 1)), sqltypes.NewFloat(math.NaN()),
		sqltypes.NewFloat(math.Inf(1)), sqltypes.NewFloat(math.Inf(-1)), sqltypes.NewFloat(math.Copysign(0, -1)),
		sqltypes.NewFloat(82.6), sqltypes.NewFloat(330.6), sqltypes.NewString("7"), sqltypes.NewFloat(3),
	}
	b := NewBatch(2, len(vals))
	for _, v := range vals {
		b.AppendRow(storage.Row{v, sqltypes.NewInt(1)})
	}
	// The string at 12 makes the arithmetic chains fail over the whole
	// batch; the selection leaves it out.
	masked := b.Narrow([]int{0, 1, 2, 4, 5, 6, 7, 9, 10, 13})
	ctx := NewCtx(nil)
	for _, e := range append(fused, generic...) {
		gotF, err := CompilePred(e, sc, nil)
		if err != nil {
			t.Fatal(err)
		}
		rowEv, err := Compile(e, sc, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, nb := range []*Batch{b, masked} {
			want := make([]sqltypes.Tri, nb.Physical())
			var errWant error
			for i := 0; i < nb.Len() && errWant == nil; i++ {
				p := nb.LiveAt(i)
				var rv sqltypes.Value
				rv, errWant = rowEv(ctx, nb.Row(p))
				want[p] = sqltypes.TriOf(rv)
			}
			got := make([]sqltypes.Tri, nb.Physical())
			errGot := gotF()(ctx, nb, got)
			if (errGot == nil) != (errWant == nil) || errGot != nil && errGot.Error() != errWant.Error() {
				t.Fatalf("%s over %v: errors differ: kernel=%v row=%v", e, nb.Sel, errGot, errWant)
			}
			if errGot != nil {
				continue
			}
			for i := 0; i < nb.Len(); i++ {
				if p := nb.LiveAt(i); got[p] != want[p] {
					t.Errorf("%s at %v: kernel %v, row %v", e, nb.Row(p), got[p], want[p])
				}
			}
		}
	}
}
