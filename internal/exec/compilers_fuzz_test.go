package exec

// FuzzExprCompilers checks that the three scalar compilers agree: the row
// Evaluator (Compile) applied row by row, the value-vector evaluator
// (CompileVec) and the truth-vector predicate (CompilePred), over one batch
// with NULLs, mixed int/float values around 2^53, strings and a selection
// vector. The fuzz input decodes into a batch and a typed expression tree
// over its three columns; fuzzEncoder is the decoder's inverse, used to
// write the seeds as expressions.
//
//	go test -run='^$' -fuzz=FuzzExprCompilers -fuzztime=60s ./internal/exec

import (
	"encoding/binary"
	"math"
	"reflect"
	"testing"

	"udfdecorr/internal/algebra"
	"udfdecorr/internal/sqltypes"
	"udfdecorr/internal/storage"
)

// fuzzPool is the value set batch values are drawn from: NULL, small ints,
// an int float64 cannot hold (2^53+1), fractions (the float-modulo
// divisors), 2^53 as a float, and strings, one of which reads as a number.
var fuzzPool = []sqltypes.Value{
	sqltypes.Null,
	sqltypes.NewInt(0),
	sqltypes.NewInt(1),
	sqltypes.NewInt(-1),
	sqltypes.NewInt(1<<53 + 1),
	sqltypes.NewFloat(0.5),
	sqltypes.NewFloat(-0.5),
	sqltypes.NewFloat(9007199254740992.0),
	sqltypes.NewString("abc"),
	sqltypes.NewString("7"),
}

var fuzzCols = []string{"a", "b", "c"}

// fuzzBuiltins lists the builtins the decoder calls; argc 0 is variadic
// (one to three arguments).
var fuzzBuiltins = []struct {
	name string
	argc int
}{
	{"abs", 1}, {"length", 1}, {"upper", 1}, {"lower", 1},
	{"concat", 0}, {"coalesce", 0}, {"ifnull", 2}, {"nvl", 2},
}

const (
	fuzzMaxRows  = 8 // the selection mask is one byte
	fuzzMaxDepth = 6 // deeper nodes decode as leaves
)

// Expression node tags, in the order the decoder reads them (tag % 9).
const (
	tagCol byte = iota
	tagConst
	tagArith
	tagCmp
	tagLogic
	tagNot
	tagIsNull
	tagCase
	tagCall
	numTags
)

// fuzzDecoder reads fuzz bytes; past the end it reads zeros, so every
// input decodes to a finite batch and expression.
type fuzzDecoder struct{ data []byte }

func (d *fuzzDecoder) next() byte {
	if len(d.data) == 0 {
		return 0
	}
	b := d.data[0]
	d.data = d.data[1:]
	return b
}

func (d *fuzzDecoder) take(n int) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = d.next()
	}
	return out
}

// batch decodes a row count, the rows' pool indexes and a selection mask
// (zero: no selection vector; otherwise bit p keeps position p).
func (d *fuzzDecoder) batch() *Batch {
	n := 1 + int(d.next())%fuzzMaxRows
	b := NewBatch(len(fuzzCols), n)
	row := make(storage.Row, len(fuzzCols))
	for i := 0; i < n; i++ {
		for j := range row {
			row[j] = fuzzPool[int(d.next())%len(fuzzPool)]
		}
		b.AppendRow(row)
	}
	if mask := d.next(); mask != 0 {
		b.Sel = []int{}
		for p := 0; p < n; p++ {
			if mask&(1<<p) != 0 {
				b.Sel = append(b.Sel, p)
			}
		}
	}
	return b
}

// constant decodes a pool value (tag%4 == 0, index tag/4), an int or a
// float from eight bytes, or a string of up to seven bytes.
func (d *fuzzDecoder) constant() sqltypes.Value {
	switch t := d.next(); t % 4 {
	case 0:
		return fuzzPool[int(t/4)%len(fuzzPool)]
	case 1:
		return sqltypes.NewInt(int64(binary.BigEndian.Uint64(d.take(8))))
	case 2:
		return sqltypes.NewFloat(math.Float64frombits(binary.BigEndian.Uint64(d.take(8))))
	default:
		return sqltypes.NewString(string(d.take(int(d.next() % 8))))
	}
}

func (d *fuzzDecoder) expr(depth int) algebra.Expr {
	tag := d.next() % numTags
	if depth >= fuzzMaxDepth {
		tag %= 2
	}
	sub := func() algebra.Expr { return d.expr(depth + 1) }
	switch tag {
	case tagCol:
		return &algebra.ColRef{Name: fuzzCols[int(d.next())%len(fuzzCols)]}
	case tagConst:
		return &algebra.Const{Val: d.constant()}
	case tagArith:
		op := sqltypes.ArithOp(d.next() % 5)
		l := sub()
		return &algebra.Arith{Op: op, L: l, R: sub()}
	case tagCmp:
		op := sqltypes.CmpOp(d.next() % 6)
		l := sub()
		return &algebra.Cmp{Op: op, L: l, R: sub()}
	case tagLogic:
		op := algebra.LogicOp(d.next() % 2)
		l := sub()
		return &algebra.Logic{Op: op, L: l, R: sub()}
	case tagNot:
		return &algebra.Not{E: sub()}
	case tagIsNull:
		neg := d.next()%2 == 1
		return &algebra.IsNull{E: sub(), Neg: neg}
	case tagCase:
		shape := d.next()
		c := &algebra.Case{Whens: make([]algebra.CaseWhen, 1+int(shape&3)%3)}
		for i := range c.Whens {
			cond := sub()
			c.Whens[i] = algebra.CaseWhen{Cond: cond, Then: sub()}
		}
		if shape&4 != 0 {
			c.Else = sub()
		}
		return c
	default:
		fn := fuzzBuiltins[int(d.next())%len(fuzzBuiltins)]
		argc := fn.argc
		if argc == 0 {
			argc = 1 + int(d.next()%3)
		}
		call := &algebra.Call{Name: fn.name, Args: make([]algebra.Expr, argc)}
		for i := range call.Args {
			call.Args[i] = sub()
		}
		return call
	}
}

// fuzzEncoder writes the bytes fuzzDecoder reads back as the given batch
// and expression.
type fuzzEncoder struct{ buf []byte }

func (enc *fuzzEncoder) put(bs ...byte) { enc.buf = append(enc.buf, bs...) }

// batch encodes rows of pool indexes; mask 0 leaves every row live.
func (enc *fuzzEncoder) batch(rows [][3]byte, mask byte) {
	enc.put(byte(len(rows) - 1))
	for _, r := range rows {
		enc.put(r[:]...)
	}
	enc.put(mask)
}

func (enc *fuzzEncoder) constant(v sqltypes.Value) {
	for i, pv := range fuzzPool {
		if pv.Kind() == v.Kind() && sqltypes.KeyOf(pv) == sqltypes.KeyOf(v) {
			enc.put(byte(4 * i))
			return
		}
	}
	switch v.Kind() {
	case sqltypes.KindInt:
		enc.put(1)
		enc.buf = binary.BigEndian.AppendUint64(enc.buf, uint64(v.Int()))
	case sqltypes.KindFloat:
		enc.put(2)
		enc.buf = binary.BigEndian.AppendUint64(enc.buf, math.Float64bits(v.Float()))
	default:
		enc.put(3, byte(len(v.Str())))
		enc.buf = append(enc.buf, v.Str()...)
	}
}

func (enc *fuzzEncoder) expr(e algebra.Expr) {
	switch x := e.(type) {
	case *algebra.ColRef:
		for i, c := range fuzzCols {
			if c == x.Name {
				enc.put(tagCol, byte(i))
			}
		}
	case *algebra.Const:
		enc.put(tagConst)
		enc.constant(x.Val)
	case *algebra.Arith:
		enc.put(tagArith, byte(x.Op))
		enc.expr(x.L)
		enc.expr(x.R)
	case *algebra.Cmp:
		enc.put(tagCmp, byte(x.Op))
		enc.expr(x.L)
		enc.expr(x.R)
	case *algebra.Logic:
		enc.put(tagLogic, byte(x.Op))
		enc.expr(x.L)
		enc.expr(x.R)
	case *algebra.Not:
		enc.put(tagNot)
		enc.expr(x.E)
	case *algebra.IsNull:
		neg := byte(0)
		if x.Neg {
			neg = 1
		}
		enc.put(tagIsNull, neg)
		enc.expr(x.E)
	case *algebra.Case:
		shape := byte(len(x.Whens) - 1)
		if x.Else != nil {
			shape |= 4
		}
		enc.put(tagCase, shape)
		for _, w := range x.Whens {
			enc.expr(w.Cond)
			enc.expr(w.Then)
		}
		if x.Else != nil {
			enc.expr(x.Else)
		}
	case *algebra.Call:
		for i, fn := range fuzzBuiltins {
			if fn.name == x.Name {
				enc.put(tagCall, byte(i))
				if fn.argc == 0 {
					enc.put(byte(len(x.Args) - 1))
				}
			}
		}
		for _, a := range x.Args {
			enc.expr(a)
		}
	}
}

// fuzzSeedRows covers every pool value in each column, NULLs and the
// 2^53 pair included; a one-row batch isolates single failures.
var fuzzSeedRows = [][][3]byte{
	{{2, 1, 3}, {4, 7, 0}, {5, 6, 8}, {0, 9, 2}, {7, 4, 1}, {3, 0, 9}, {9, 5, 6}, {8, 2, 4}},
	{{2, 5, 1}},
}

// fuzzSeeds are the filter and project expressions of batch_test.go, the
// two kernel shapes of the scan-filter benchmark query, a guarded division,
// float modulo by a fraction, kernel compares against constants float64
// holds only approximately or not at all, and conjunctions of kernel
// compares.
func fuzzSeeds() []algebra.Expr {
	f := func(v float64) *algebra.Const { return &algebra.Const{Val: sqltypes.NewFloat(v)} }
	arith := func(op sqltypes.ArithOp, l, r algebra.Expr) *algebra.Arith {
		return &algebra.Arith{Op: op, L: l, R: r}
	}
	and := func(l, r algebra.Expr) *algebra.Logic { return &algebra.Logic{Op: algebra.LogicAnd, L: l, R: r} }
	or := func(l, r algebra.Expr) *algebra.Logic { return &algebra.Logic{Op: algebra.LogicOr, L: l, R: r} }
	kx := arith(sqltypes.OpAdd, arith(sqltypes.OpMul, col("a"), f(1.21)), f(500))
	return []algebra.Expr{
		cmp(sqltypes.CmpGT, col("b"), lit(5)),
		and(cmp(sqltypes.CmpGT, col("b"), lit(5)), cmp(sqltypes.CmpLT, col("a"), lit(3))),
		or(cmp(sqltypes.CmpGT, col("b"), lit(15)), cmp(sqltypes.CmpLT, col("a"), lit(2))),
		&algebra.Not{E: cmp(sqltypes.CmpGT, col("b"), lit(5))},
		&algebra.IsNull{E: col("b")},
		&algebra.IsNull{E: col("b"), Neg: true},
		and(cmp(sqltypes.CmpNE, col("a"), lit(0)),
			cmp(sqltypes.CmpGT, arith(sqltypes.OpDiv, col("b"), col("a")), lit(1))),
		arith(sqltypes.OpMul, col("a"), lit(3)),
		&algebra.Case{
			Whens: []algebra.CaseWhen{{Cond: cmp(sqltypes.CmpGT, col("b"), lit(10)), Then: lit(1)}},
			Else:  lit(0),
		},
		arith(sqltypes.OpDiv, lit(10), col("a")),
		cmp(sqltypes.CmpGT, arith(sqltypes.OpAdd, arith(sqltypes.OpMul, col("a"), f(1.21)), f(500)), f(60500)),
		arith(sqltypes.OpSub, arith(sqltypes.OpMul, col("a"), f(0.97)), f(250)),
		&algebra.Case{Whens: []algebra.CaseWhen{{
			Cond: cmp(sqltypes.CmpNE, col("c"), lit(0)),
			Then: arith(sqltypes.OpDiv, col("a"), col("c")),
		}}},
		arith(sqltypes.OpMod, col("a"), f(0.5)),
		cmp(sqltypes.CmpEQ, col("a"), f(9007199254740992.0)),
		cmp(sqltypes.CmpGE, arith(sqltypes.OpMul, col("a"), f(1)), lit(1<<53+1)),
		// One-pass conjunctions of kernel compares on one column: the
		// scan-filter range in both orientations, a bare column against
		// float constants, three conjuncts nested either way, an integer
		// constant beside a float one; and two columns, which stay on the
		// generic AND.
		and(cmp(sqltypes.CmpGT, kx, f(60500)), cmp(sqltypes.CmpLT, kx, f(90750))),
		and(cmp(sqltypes.CmpLT, f(60500), kx), cmp(sqltypes.CmpGT, f(90750), kx)),
		and(cmp(sqltypes.CmpGE, col("a"), f(-0.5)), cmp(sqltypes.CmpLE, col("a"), f(9007199254740992.0))),
		and(and(cmp(sqltypes.CmpGT, arith(sqltypes.OpMul, col("b"), f(2)), f(-1)), cmp(sqltypes.CmpNE, col("b"), f(0.5))),
			cmp(sqltypes.CmpLT, arith(sqltypes.OpSub, f(3), col("b")), f(4))),
		and(cmp(sqltypes.CmpGE, col("c"), f(-1)),
			and(cmp(sqltypes.CmpLE, arith(sqltypes.OpDiv, col("c"), f(2)), f(0.5)), cmp(sqltypes.CmpEQ, arith(sqltypes.OpAdd, col("c"), f(0)), lit(1)))),
		and(cmp(sqltypes.CmpGT, arith(sqltypes.OpMul, col("a"), f(1.5)), f(0)), cmp(sqltypes.CmpLT, arith(sqltypes.OpMul, col("b"), f(1.5)), f(2))),
	}
}

func FuzzExprCompilers(f *testing.F) {
	for _, e := range fuzzSeeds() {
		for _, rows := range fuzzSeedRows {
			for _, mask := range []byte{0, 0b10110101} {
				var enc fuzzEncoder
				enc.batch(rows, mask)
				enc.expr(e)
				d := fuzzDecoder{enc.buf}
				d.batch()
				if got := d.expr(0); !reflect.DeepEqual(got, e) {
					f.Fatalf("seed %s decodes as %s", e, got)
				}
				f.Add(enc.buf)
			}
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		d := fuzzDecoder{data}
		b := d.batch()
		checkExprCompilers(t, d.expr(0), b)
	})
}

// checkExprCompilers asserts, for every live position of b, that the row
// and value-vector compilers agree in kind and rendering, that the
// predicate is TriOf of the row value, and that the three fail together
// (with the row path's message when exactly one live row fails). The
// vector forms run over the whole batch, then over each live position
// alone, so a failing row hides no other row's value.
func checkExprCompilers(t *testing.T, e algebra.Expr, b *Batch) {
	sc := schema2(fuzzCols...)
	rowEv, rowErr := Compile(e, sc, nil)
	vecF, vecErr := CompileVec(e, sc, nil)
	predF, predErr := CompilePred(e, sc, nil)
	if rowErr != nil || vecErr != nil || predErr != nil {
		if rowErr == nil || vecErr == nil || predErr == nil {
			t.Fatalf("%s: compile errors differ: row=%v vec=%v pred=%v", e, rowErr, vecErr, predErr)
		}
		return
	}
	ctx := NewCtx(nil)
	vecEv, predEv := vecF(), predF()
	rowVals := make([]sqltypes.Value, b.Physical())
	rowErrs := make([]error, b.Physical())
	batches := []*Batch{b}
	for i := 0; i < b.Len(); i++ {
		p := b.LiveAt(i)
		rowVals[p], rowErrs[p] = rowEv(ctx, b.Row(p))
		batches = append(batches, b.Narrow([]int{p}))
	}
	for _, nb := range batches {
		var rowErr error
		failures := 0
		for i := 0; i < nb.Len(); i++ {
			if err := rowErrs[nb.LiveAt(i)]; err != nil {
				failures++
				if rowErr == nil {
					rowErr = err
				}
			}
		}
		vec, vecErr := vecEv(ctx, nb)
		tri := make([]sqltypes.Tri, nb.Physical())
		predErr := predEv(ctx, nb, tri)
		if (rowErr == nil) != (vecErr == nil) || (rowErr == nil) != (predErr == nil) {
			t.Fatalf("%s over %v: errors differ: row=%v vec=%v pred=%v", e, nb.Sel, rowErr, vecErr, predErr)
		}
		if rowErr != nil {
			if failures == 1 && (vecErr.Error() != rowErr.Error() || predErr.Error() != rowErr.Error()) {
				t.Fatalf("%s over %v: messages differ: row=%q vec=%q pred=%q", e, nb.Sel, rowErr, vecErr, predErr)
			}
			continue
		}
		for i := 0; i < nb.Len(); i++ {
			p := nb.LiveAt(i)
			want := rowVals[p]
			if got := vec[p]; got.Kind() != want.Kind() || got.Display() != want.Display() {
				t.Fatalf("%s at row %v: CompileVec = %v (%s), Compile = %v (%s)",
					e, b.Row(p), got, got.Kind(), want, want.Kind())
			}
			if tri[p] != sqltypes.TriOf(want) {
				t.Fatalf("%s at row %v: CompilePred = %v, TriOf(Compile) = %v",
					e, b.Row(p), tri[p], sqltypes.TriOf(want))
			}
		}
	}
}
