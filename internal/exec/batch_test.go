package exec

// Executor equivalence: every batch operator must produce byte-identical
// results (values AND order) to its row counterpart, across batch
// boundaries, on empty inputs, with NULLs, and for every join kind. The
// tests drive NextBatch with tiny batch sizes so operator state that spans
// batches (limits, dedup, join buckets) is exercised.

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"udfdecorr/internal/algebra"
	"udfdecorr/internal/catalog"
	"udfdecorr/internal/sqltypes"
	"udfdecorr/internal/storage"
)

// drainWithBatchSize drains a node through its batch path using a specific
// per-call batch size.
func drainWithBatchSize(t *testing.T, n Node, ctx *Ctx, size int) []storage.Row {
	t.Helper()
	bi, err := OpenBatches(n, ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer bi.Close()
	var out []storage.Row
	for {
		b, ok, err := bi.NextBatch(size)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			return out
		}
		out = b.AppendTo(out)
	}
}

// assertIdenticalRows requires the two results to be equal value-for-value
// in the same order (byte-identical under the key encoding).
func assertIdenticalRows(t *testing.T, got, want []storage.Row) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("row counts differ: got %d, want %d", len(got), len(want))
	}
	for i := range got {
		if sqltypes.KeyOf(got[i]...) != sqltypes.KeyOf(want[i]...) {
			t.Fatalf("row %d differs: got %v, want %v", i, got[i], want[i])
		}
	}
}

// rowsWithNulls builds rows where -1 stands for NULL.
func rowsWithNulls(vals [][]int64) []storage.Row {
	out := make([]storage.Row, len(vals))
	for i, r := range vals {
		row := make(storage.Row, len(r))
		for j, v := range r {
			if v == -1 {
				row[j] = sqltypes.Null
			} else {
				row[j] = sqltypes.NewInt(v)
			}
		}
		out[i] = row
	}
	return out
}

func col(name string) *algebra.ColRef { return &algebra.ColRef{Name: name} }
func lit(v int64) *algebra.Const      { return &algebra.Const{Val: sqltypes.NewInt(v)} }
func cmp(op sqltypes.CmpOp, l, r algebra.Expr) *algebra.Cmp {
	return &algebra.Cmp{Op: op, L: l, R: r}
}

// filterPair builds the row and batch filter over the same input.
func filterPair(t *testing.T, pred algebra.Expr, in Node) (Node, Node) {
	t.Helper()
	rowEv, err := Compile(pred, in.Schema(), nil)
	if err != nil {
		t.Fatal(err)
	}
	vecEv, err := CompilePred(pred, in.Schema(), nil)
	if err != nil {
		t.Fatal(err)
	}
	return &Filter{Pred: rowEv, Child: in}, &BatchFilter{Pred: vecEv, Child: in}
}

func TestBatchFilterEquivalence(t *testing.T) {
	sc := schema2("a", "b")
	cases := []struct {
		name string
		rows [][]int64
		pred algebra.Expr
	}{
		{"empty input", nil, cmp(sqltypes.CmpGT, col("b"), lit(5))},
		{"all pass", [][]int64{{1, 10}, {2, 20}}, cmp(sqltypes.CmpGT, col("b"), lit(5))},
		{"none pass", [][]int64{{1, 1}, {2, 2}}, cmp(sqltypes.CmpGT, col("b"), lit(5))},
		{"nulls are not true", [][]int64{{1, 10}, {2, -1}, {3, 30}, {4, -1}},
			cmp(sqltypes.CmpGT, col("b"), lit(5))},
		{"and with null operand", [][]int64{{1, 10}, {2, -1}, {3, 2}},
			&algebra.Logic{Op: algebra.LogicAnd,
				L: cmp(sqltypes.CmpGT, col("b"), lit(5)),
				R: cmp(sqltypes.CmpLT, col("a"), lit(3))}},
		{"or with null operand", [][]int64{{1, 10}, {2, -1}, {3, 2}},
			&algebra.Logic{Op: algebra.LogicOr,
				L: cmp(sqltypes.CmpGT, col("b"), lit(15)),
				R: cmp(sqltypes.CmpLT, col("a"), lit(2))}},
		{"not", [][]int64{{1, 10}, {2, -1}, {3, 2}},
			&algebra.Not{E: cmp(sqltypes.CmpGT, col("b"), lit(5))}},
		{"is null", [][]int64{{1, 10}, {2, -1}, {3, 2}},
			&algebra.IsNull{E: col("b")}},
		{"is not null", [][]int64{{1, 10}, {2, -1}, {3, 2}},
			&algebra.IsNull{E: col("b"), Neg: true}},
		{"guarded division short-circuits", [][]int64{{0, 8}, {2, 8}, {0, 8}},
			&algebra.Logic{Op: algebra.LogicAnd,
				L: cmp(sqltypes.CmpNE, col("a"), lit(0)),
				R: cmp(sqltypes.CmpGT, &algebra.Arith{Op: sqltypes.OpDiv, L: col("b"), R: col("a")}, lit(1))}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			in := NewValues(rowsWithNulls(tc.rows), sc)
			rowPlan, batchPlan := filterPair(t, tc.pred, in)
			want, err := Drain(rowPlan, NewCtx(nil))
			if err != nil {
				t.Fatal(err)
			}
			for _, size := range []int{1, 3, 1024} {
				got := drainWithBatchSize(t, batchPlan, NewCtx(nil), size)
				assertIdenticalRows(t, got, want)
			}
		})
	}
}

func TestBatchProjectEquivalence(t *testing.T) {
	sc := schema2("a", "b")
	exprs := []algebra.Expr{
		&algebra.Arith{Op: sqltypes.OpMul, L: col("a"), R: lit(3)},
		&algebra.Case{
			Whens: []algebra.CaseWhen{{Cond: cmp(sqltypes.CmpGT, col("b"), lit(10)), Then: lit(1)}},
			Else:  lit(0),
		},
		&algebra.IsNull{E: col("b")},
	}
	outSchema := schema2("x", "y", "z")
	for _, tc := range []struct {
		name  string
		rows  [][]int64
		dedup bool
	}{
		{"empty", nil, false},
		{"nulls propagate", [][]int64{{1, 5}, {-1, 20}, {3, -1}}, false},
		{"dedup across batches", [][]int64{{1, 5}, {1, 5}, {2, 20}, {1, 5}, {2, 20}, {3, -1}}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			in := NewValues(rowsWithNulls(tc.rows), sc)
			rowEvs, err := CompileAll(exprs, sc, nil)
			if err != nil {
				t.Fatal(err)
			}
			vecEvs, err := CompileVecAll(exprs, sc, nil)
			if err != nil {
				t.Fatal(err)
			}
			rowPlan := NewProject(rowEvs, tc.dedup, in, outSchema)
			batchPlan := NewBatchProject(vecEvs, tc.dedup, in, outSchema)
			want, err := Drain(rowPlan, NewCtx(nil))
			if err != nil {
				t.Fatal(err)
			}
			for _, size := range []int{1, 2, 1024} {
				got := drainWithBatchSize(t, batchPlan, NewCtx(nil), size)
				assertIdenticalRows(t, got, want)
			}
		})
	}
}

func TestBatchLimitEquivalence(t *testing.T) {
	sc := schema2("a")
	var rows [][]int64
	for i := int64(1); i <= 10; i++ {
		rows = append(rows, []int64{i})
	}
	for _, tc := range []struct {
		name string
		n    int64
		rows [][]int64
	}{
		{"empty input", 5, nil},
		{"limit 0", 0, rows},
		{"limit mid-batch", 5, rows}, // batch size 3: limit falls inside the 2nd batch
		{"limit at batch edge", 6, rows},
		{"limit beyond input", 50, rows},
	} {
		t.Run(tc.name, func(t *testing.T) {
			in := NewValues(rowsWithNulls(tc.rows), sc)
			rowPlan := &Limit{N: tc.n, Child: in}
			batchPlan := &BatchLimit{N: tc.n, Child: in}
			want, err := Drain(rowPlan, NewCtx(nil))
			if err != nil {
				t.Fatal(err)
			}
			for _, size := range []int{1, 3, 1024} {
				got := drainWithBatchSize(t, batchPlan, NewCtx(nil), size)
				assertIdenticalRows(t, got, want)
			}
		})
	}
}

// TestBatchLimitStopsPulling verifies the batch limit does not read past the
// limit (it must clamp its requests, not drain the child).
func TestBatchLimitStopsPulling(t *testing.T) {
	sc := schema2("a")
	rows := rowsWithNulls([][]int64{{1}, {2}, {3}, {4}})
	in := NewValues(rows, sc)
	bi, err := OpenBatches(&BatchLimit{N: 2, Child: in}, NewCtx(nil))
	if err != nil {
		t.Fatal(err)
	}
	defer bi.Close()
	b, ok, err := bi.NextBatch(1024)
	if err != nil || !ok {
		t.Fatalf("first batch: ok=%v err=%v", ok, err)
	}
	if b.Len() != 2 {
		t.Fatalf("batch len = %d, want 2", b.Len())
	}
	if _, ok, _ := bi.NextBatch(1024); ok {
		t.Fatal("limit returned rows past N")
	}
}

func TestBatchHashJoinEquivalence(t *testing.T) {
	lsc := schema2("lk", "lv")
	rsc := schema2("rk", "rv")
	lRows := [][]int64{{1, 10}, {2, 20}, {2, 21}, {3, 30}, {-1, 40}, {5, 50}}
	rRows := [][]int64{{2, 200}, {2, 201}, {3, 300}, {-1, 400}, {7, 700}, {2, 202}}
	kinds := []algebra.JoinKind{algebra.InnerJoin, algebra.LeftOuterJoin,
		algebra.SemiJoin, algebra.AntiJoin}
	for _, kind := range kinds {
		for _, tc := range []struct {
			name     string
			l, r     [][]int64
			residual algebra.Expr
		}{
			{"dup keys both sides", lRows, rRows, nil},
			{"empty build side", lRows, nil, nil},
			{"empty probe side", nil, rRows, nil},
			{"both empty", nil, nil, nil},
			{"residual", lRows, rRows,
				cmp(sqltypes.CmpGT, &algebra.ColRef{Name: "rv"}, lit(200))},
		} {
			t.Run(kind.String()+"/"+tc.name, func(t *testing.T) {
				l := NewValues(rowsWithNulls(tc.l), lsc)
				r := NewValues(rowsWithNulls(tc.r), rsc)
				joined := append(append([]algebra.Column{}, lsc...), rsc...)
				var residual Evaluator
				if tc.residual != nil {
					var err error
					residual, err = Compile(tc.residual, joined, nil)
					if err != nil {
						t.Fatal(err)
					}
				}
				lKeyRow, err := Compile(col("lk"), lsc, nil)
				if err != nil {
					t.Fatal(err)
				}
				rKeyRow, err := Compile(col("rk"), rsc, nil)
				if err != nil {
					t.Fatal(err)
				}
				lKeyVec, err := CompileVec(col("lk"), lsc, nil)
				if err != nil {
					t.Fatal(err)
				}
				rKeyVec, err := CompileVec(col("rk"), rsc, nil)
				if err != nil {
					t.Fatal(err)
				}
				rowPlan := NewHashJoin(kind, []Evaluator{lKeyRow}, []Evaluator{rKeyRow}, residual, l, r)
				batchPlan := NewBatchHashJoin(kind, []VecFactory{lKeyVec}, []VecFactory{rKeyVec}, residual, l, r)
				want, err := Drain(rowPlan, NewCtx(nil))
				if err != nil {
					t.Fatal(err)
				}
				for _, size := range []int{1, 2, 1024} {
					got := drainWithBatchSize(t, batchPlan, NewCtx(nil), size)
					assertIdenticalRows(t, got, want)
				}
			})
		}
	}

	// Probe batches that carry a selection vector: a filter over a source
	// whose batches already leave every third physical row out (and hold
	// poison there). Every kind runs with and without a residual, over a
	// build with unique keys and one with a key hotter than the batch size,
	// on a serial and a 4-partition table, against the nested-loop join. A
	// unique build key emits each probe row at most once, so every output
	// batch passes the probe's columns through; the hot key's batches are
	// copied.
	var probe [][]int64
	for i := int64(0); i < 1200; i++ {
		k := i % 23
		switch {
		case i%31 == 0:
			k = -1 // NULL key
		case i%100 == 50:
			k = 99 // the hot key, when the build has it
		}
		probe = append(probe, []int64{k, i})
	}
	var unique, hot [][]int64
	for k := int64(0); k < 20; k++ {
		unique = append(unique, []int64{k, 100 + k})
	}
	hot = append(hot, unique...)
	for i := int64(0); i < DefaultBatchSize+76; i++ {
		hot = append(hot, []int64{99, 2 * i})
	}
	joined := append(append([]algebra.Column{}, lsc...), rsc...)
	eq := cmp(sqltypes.CmpEQ, col("lk"), col("rk"))
	filter := cmp(sqltypes.CmpNE, col("lk"), lit(5))
	residual := cmp(sqltypes.CmpLT, col("rv"), col("lv"))
	lKey, _ := CompileVec(col("lk"), lsc, nil)
	rKey, _ := CompileVec(col("rk"), rsc, nil)
	through, copied := 0, 0
	for _, build := range []struct {
		name string
		rows [][]int64
	}{{"unique", unique}, {"hot", hot}} {
		for _, kind := range kinds {
			for _, withResidual := range []bool{false, true} {
				t.Run(fmt.Sprintf("selected/%s/%s/residual=%v", build.name, kind, withResidual), func(t *testing.T) {
					src := &selSource{rows: rowsWithNulls(probe), size: 100, schema: lsc}
					rowFilter, _ := filterPair(t, filter, NewValues(src.rows, lsc))
					_, batchFilter := filterPair(t, filter, src)
					r := NewValues(rowsWithNulls(build.rows), rsc)
					cond, res := algebra.Expr(eq), Evaluator(nil)
					if withResidual {
						cond = &algebra.Logic{Op: algebra.LogicAnd, L: eq, R: residual}
						var err error
						if res, err = Compile(residual, joined, nil); err != nil {
							t.Fatal(err)
						}
					}
					condEv, err := Compile(cond, joined, nil)
					if err != nil {
						t.Fatal(err)
					}
					want, err := Drain(NewNLJoin(kind, condEv, rowFilter, r), NewCtx(nil))
					if err != nil {
						t.Fatal(err)
					}
					bj := NewBatchHashJoin(kind, []VecFactory{lKey}, []VecFactory{rKey}, res, batchFilter, r)
					for _, parts := range []int{1, 4} {
						for _, size := range []int{1, 7, DefaultBatchSize} {
							ctx := NewCtx(nil)
							if parts > 1 {
								jt, err := buildJoinTable(ctx, bj, parts)
								if err != nil {
									t.Fatal(err)
								}
								ctx.pipe = &pipeline{joins: map[*BatchHashJoin]*joinTable{bj: jt}}
							}
							got, th, cp := joinPassThroughCounts(t, bj, ctx, size)
							assertIdenticalRows(t, got, want)
							if build.name == "unique" && cp > 0 {
								t.Fatalf("parts=%d size=%d: %d of %d batches copied, though no probe row repeats",
									parts, size, cp, cp+th)
							}
							through += th
							copied += cp
						}
					}
				})
			}
		}
	}
	if through == 0 || copied == 0 {
		t.Fatalf("%d pass-through and %d copied batches; both paths must run", through, copied)
	}
}

// TestBatchHashJoinHotKeyBatchContract is the regression test for the
// batch-size contract violation: a build bucket larger than the requested
// max used to be appended wholesale (50 build rows on one key, a single
// probe row, NextBatch(8) returned 50 live rows). The bucket cursor must
// stop emission exactly at max and resume on the next call.
func TestBatchHashJoinHotKeyBatchContract(t *testing.T) {
	lsc := schema2("lk", "lv")
	rsc := schema2("rk", "rv")
	probe := [][]int64{{1, 0}}
	var build [][]int64
	for i := int64(0); i < 50; i++ {
		build = append(build, []int64{1, i})
	}
	for _, kind := range []algebra.JoinKind{algebra.InnerJoin, algebra.LeftOuterJoin} {
		t.Run(kind.String(), func(t *testing.T) {
			l := NewValues(rowsWithNulls(probe), lsc)
			r := NewValues(rowsWithNulls(build), rsc)
			lKey, err := CompileVec(col("lk"), lsc, nil)
			if err != nil {
				t.Fatal(err)
			}
			rKey, err := CompileVec(col("rk"), rsc, nil)
			if err != nil {
				t.Fatal(err)
			}
			join := NewBatchHashJoin(kind, []VecFactory{lKey}, []VecFactory{rKey}, nil, l, r)
			bi, err := OpenBatches(join, NewCtx(nil))
			if err != nil {
				t.Fatal(err)
			}
			defer bi.Close()
			total := 0
			for {
				b, ok, err := bi.NextBatch(8)
				if err != nil {
					t.Fatal(err)
				}
				if !ok {
					break
				}
				if b.Len() > 8 {
					t.Fatalf("NextBatch(8) returned %d live rows", b.Len())
				}
				total += b.Len()
			}
			if total != 50 {
				t.Fatalf("join emitted %d rows, want 50", total)
			}
		})
	}
}

// TestBatchHashJoinHotKeyResumeOrder drives the hot-key shape through every
// batch size and checks value-for-value identity with the row join, so the
// resume cursor cannot skip or duplicate bucket rows (including the
// unmatched left-outer emission that falls on a batch boundary).
func TestBatchHashJoinHotKeyResumeOrder(t *testing.T) {
	lsc := schema2("lk", "lv")
	rsc := schema2("rk", "rv")
	probe := [][]int64{{1, 0}, {9, 1}, {1, 2}} // hot, unmatched, hot again
	var build [][]int64
	for i := int64(0); i < 23; i++ {
		build = append(build, []int64{1, i})
	}
	residual := cmp(sqltypes.CmpNE, &algebra.ColRef{Name: "rv"}, lit(7))
	kinds := []algebra.JoinKind{algebra.InnerJoin, algebra.LeftOuterJoin,
		algebra.SemiJoin, algebra.AntiJoin}
	for _, kind := range kinds {
		for _, withResidual := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/residual=%v", kind, withResidual), func(t *testing.T) {
				l := NewValues(rowsWithNulls(probe), lsc)
				r := NewValues(rowsWithNulls(build), rsc)
				joined := append(append([]algebra.Column{}, lsc...), rsc...)
				var res Evaluator
				if withResidual {
					var err error
					res, err = Compile(residual, joined, nil)
					if err != nil {
						t.Fatal(err)
					}
				}
				lKeyRow, _ := Compile(col("lk"), lsc, nil)
				rKeyRow, _ := Compile(col("rk"), rsc, nil)
				lKey, _ := CompileVec(col("lk"), lsc, nil)
				rKey, _ := CompileVec(col("rk"), rsc, nil)
				rowPlan := NewHashJoin(kind, []Evaluator{lKeyRow}, []Evaluator{rKeyRow}, res, l, r)
				batchPlan := NewBatchHashJoin(kind, []VecFactory{lKey}, []VecFactory{rKey}, res, l, r)
				want, err := Drain(rowPlan, NewCtx(nil))
				if err != nil {
					t.Fatal(err)
				}
				for _, size := range []int{1, 2, 3, 7, 8, 1024} {
					got := drainWithBatchSize(t, batchPlan, NewCtx(nil), size)
					assertIdenticalRows(t, got, want)
				}
			})
		}
	}
}

// overwritingSource serves rows through one set of column vectors that it
// overwrites on every NextBatch, poisoning every slot first, the way a
// zero-copy scan rewrites its header: a consumer reading a batch past its
// validity window sees poison or another batch's values.
type overwritingSource struct {
	rows   []storage.Row
	schema []algebra.Column
}

func (s *overwritingSource) Schema() []algebra.Column    { return s.schema }
func (s *overwritingSource) Open(ctx *Ctx) (Iter, error) { return openRowsViaBatches(s, ctx) }
func (s *overwritingSource) OpenBatch(*Ctx) (BatchIter, error) {
	return &overwritingIter{rows: s.rows, b: NewBatch(len(s.schema), 0)}, nil
}

type overwritingIter struct {
	rows []storage.Row
	pos  int
	b    *Batch
}

func (it *overwritingIter) NextBatch(max int) (*Batch, bool, error) {
	n := min(max, len(it.rows)-it.pos)
	if n <= 0 {
		return nil, false, nil
	}
	for c := range it.b.Cols {
		col := it.b.Cols[c][:cap(it.b.Cols[c])]
		for i := range col {
			col[i] = BatchPoison
		}
		col = col[:0]
		for _, r := range it.rows[it.pos : it.pos+n] {
			col = append(col, r[c])
		}
		it.b.Cols[c] = col
	}
	it.b.Sel = nil
	it.b.SetPhysical(n)
	it.pos += n
	return it.b, true, nil
}

func (it *overwritingIter) Close() error { return nil }

// TestBatchHashJoinGathersBeforeNextProbeBatch runs a probe side that spans
// several left batches and carries a selection vector (a filter over more
// than DefaultBatchSize rows of a source that overwrites its vectors on
// every call) through every join kind, with and without a residual that
// reads both sides, and under narrowed, permuted and repeating output
// lists. The join records matches as left positions and must gather them
// before it fetches the next left batch; gathering later reads the next
// batch's values (or poison) at those positions. Each output list must
// select exactly its columns of the full joined row, on both executors.
func TestBatchHashJoinGathersBeforeNextProbeBatch(t *testing.T) {
	lsc := schema2("lk", "lv")
	rsc := schema2("rk", "rv")
	const nProbe = 3000
	var probe [][]int64
	for i := int64(0); i < nProbe; i++ {
		k := i % 13
		if i%17 == 0 {
			k = -1 // NULL key
		}
		probe = append(probe, []int64{k, i})
	}
	var build [][]int64
	for i := int64(0); i < 40; i++ {
		build = append(build, []int64{i % 10, i * 97 % nProbe})
	}
	filter := cmp(sqltypes.CmpNE, col("lk"), lit(4))
	residual := cmp(sqltypes.CmpLT, col("rv"), col("lv"))
	joined := append(append([]algebra.Column{}, lsc...), rsc...)
	kinds := []algebra.JoinKind{algebra.InnerJoin, algebra.LeftOuterJoin,
		algebra.SemiJoin, algebra.AntiJoin}
	for _, kind := range kinds {
		// Output lists over concat(L, R), or over L for semi and anti joins;
		// nil is the identity.
		lists := [][]int{nil, {3, 0}, {2}, {1, 3, 3, 0}, {0, 1, 2}}
		if kind == algebra.SemiJoin || kind == algebra.AntiJoin {
			lists = [][]int{nil, {1}, {1, 0, 1}}
		}
		for _, withResidual := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/residual=%v", kind, withResidual), func(t *testing.T) {
				for _, list := range lists {
					name := "out=all"
					if list != nil {
						name = fmt.Sprintf("out=%v", list)
					}
					t.Run(name, func(t *testing.T) {
						src := &overwritingSource{rows: rowsWithNulls(probe), schema: lsc}
						rowFilter, batchFilter := filterPair(t, filter, src)
						r := NewValues(rowsWithNulls(build), rsc)
						var res Evaluator
						if withResidual {
							var err error
							if res, err = Compile(residual, joined, nil); err != nil {
								t.Fatal(err)
							}
						}
						lKeyRow, _ := Compile(col("lk"), lsc, nil)
						rKeyRow, _ := Compile(col("rk"), rsc, nil)
						lKey, _ := CompileVec(col("lk"), lsc, nil)
						rKey, _ := CompileVec(col("rk"), rsc, nil)
						rowPlan := NewHashJoin(kind, []Evaluator{lKeyRow}, []Evaluator{rKeyRow}, res, rowFilter, r)
						batchPlan := NewBatchHashJoin(kind, []VecFactory{lKey}, []VecFactory{rKey}, res, batchFilter, r)
						full, err := Drain(rowPlan, NewCtx(nil))
						if err != nil {
							t.Fatal(err)
						}
						want := full
						if list != nil {
							// The reference: the full rows' columns picked by list.
							want = make([]storage.Row, len(full))
							for i, row := range full {
								for _, c := range list {
									want[i] = append(want[i], row[c])
								}
							}
							schema := make([]algebra.Column, len(list))
							for i, c := range list {
								schema[i] = rowPlan.Schema()[c]
							}
							if !Narrow(rowPlan, list, schema) || !Narrow(batchPlan, list, schema) {
								t.Fatal("Narrow refused a join")
							}
							got, err := Drain(rowPlan, NewCtx(nil))
							if err != nil {
								t.Fatal(err)
							}
							assertIdenticalRows(t, got, want)
						}
						for _, size := range []int{1, 7, DefaultBatchSize, nProbe} {
							got := drainWithBatchSize(t, batchPlan, NewCtx(nil), size)
							assertIdenticalRows(t, got, want)
						}
					})
				}
			})
		}
	}
}

// TestBatchHashJoinProbeAllocs pins the probe's allocation profile: it
// records matches as positions and gathers them by column, so a probe row
// allocates nothing. A row materialised per probe row is at least one
// allocation per row.
func TestBatchHashJoinProbeAllocs(t *testing.T) {
	lsc := schema2("lk", "lv")
	rsc := schema2("rk", "rv")
	const nProbe, nBuild = 10000, 16
	var probe, build [][]int64
	for i := int64(0); i < nProbe; i++ {
		probe = append(probe, []int64{i % nBuild, i})
	}
	for i := int64(0); i < nBuild; i++ {
		build = append(build, []int64{i, 100 * i})
	}
	lKey, _ := CompileVec(col("lk"), lsc, nil)
	rKey, _ := CompileVec(col("rk"), rsc, nil)
	join := NewBatchHashJoin(algebra.InnerJoin, []VecFactory{lKey}, []VecFactory{rKey}, nil,
		NewValues(rowsWithNulls(probe), lsc), NewValues(rowsWithNulls(build), rsc))
	rows := 0
	allocs := testing.AllocsPerRun(5, func() {
		bi, err := OpenBatches(join, NewCtx(nil))
		if err != nil {
			t.Fatal(err)
		}
		defer bi.Close()
		rows = 0
		for {
			b, ok, err := bi.NextBatch(DefaultBatchSize)
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
			rows += b.Len()
		}
	})
	if rows != nProbe {
		t.Fatalf("join emitted %d rows, want %d", rows, nProbe)
	}
	if perRow := allocs / nProbe; perRow >= 0.05 {
		t.Fatalf("%.0f allocations for %d probe rows (%.3f per row), want < 0.05 per row", allocs, nProbe, perRow)
	}
}

// aggDef is one aggregate of a TestGroupByEquivalence case: fn over column
// v (arg false means count(*)).
type aggDef struct {
	fn       string
	arg      bool
	distinct bool
}

// TestGroupByEquivalence runs each aggregation through the row HashAgg,
// BatchGroupBy and its plan parallelized at degree 4, which is the parallel
// group-by when every aggregate merges. All must return the same rows in
// first-seen group order; a parallel run over more than one morsel has
// several workers, so there the rows must match as a multiset. The mixed
// keys start with an int and go on to integral floats, strings and NULLs,
// so the group table leaves its integer map mid-input.
func TestGroupByEquivalence(t *testing.T) {
	I, F, S, N := sqltypes.NewInt, sqltypes.NewFloat, sqltypes.NewString, sqltypes.Null
	mixed := []storage.Row{
		{I(1), I(10)}, {I(2), I(5)}, {F(2), I(20)}, {S("a"), I(7)}, {N, I(3)},
		{I(1), N}, {F(1), I(4)}, {S("a"), I(7)}, {N, I(8)}, {I(3), I(-6)},
		{S("b"), N}, {F(3.5), I(2)}, {I(2), I(5)},
	}
	many := func(n int) []storage.Row {
		rows := make([]storage.Row, n)
		for i := range rows {
			rows[i] = storage.Row{I(int64(i % 11)), I(int64(i))}
		}
		return rows
	}
	vals := func(vs ...sqltypes.Value) []storage.Row {
		rows := make([]storage.Row, len(vs))
		for i, v := range vs {
			rows[i] = storage.Row{I(0), v}
		}
		return rows
	}
	builtins := []aggDef{{fn: "count"}, {fn: "count", arg: true}, {fn: "sum", arg: true},
		{fn: "min", arg: true}, {fn: "max", arg: true}, {fn: "avg", arg: true}}
	distinct := []aggDef{{fn: "count", arg: true, distinct: true},
		{fn: "sum", arg: true, distinct: true}, {fn: "count"}}
	userDef := []aggDef{{fn: "aux_agg", arg: true}, {fn: "sum", arg: true}}
	for _, tc := range []struct {
		name  string
		keyed bool
		rows  []storage.Row
		aggs  []aggDef
	}{
		{"keyed/mixed_builtins", true, mixed, builtins},
		{"keyed/mixed_distinct", true, mixed, distinct},
		{"keyed/mixed_user_defined", true, mixed, userDef},
		{"keyed/empty_input_no_rows", true, nil, builtins},
		{"keyed/rows=20000", true, many(20_000), builtins},
		{"keyless/empty_input_one_row_out", false, nil, builtins},
		{"keyless/nulls_skipped", false, vals(I(5), N, I(3), N, I(9)), builtins},
		{"keyless/all_null_sum_is_null", false, vals(N, N), builtins},
		{"keyless/mixed_distinct", false, mixed, distinct},
		{"keyless/mixed_user_defined", false, mixed, userDef},
		{"keyless/rows=5", false, many(5), builtins},
		{"keyless/rows=20000", false, many(20_000), builtins},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tab := newTestTable(t, "t", []string{"k", "v"}, tc.rows)
			sc := schema2("k", "v")
			var keys []Evaluator
			var vecKeys []VecFactory
			out := schema2()
			if tc.keyed {
				key, _ := Compile(col("k"), sc, nil)
				vecKey, _ := CompileVec(col("k"), sc, nil)
				keys, vecKeys = []Evaluator{key}, []VecFactory{vecKey}
				out = schema2("k")
			}
			cat := catalog.New()
			aux := &catalog.Aggregate{
				Name:   "aux_agg",
				State:  []catalog.AggStateVar{{Name: "total_loss", Init: sqltypes.NewInt(0)}},
				Params: []string{"profit"},
				Body:   mustParseBody(t, "if (profit < 0) total_loss = total_loss - profit;"),
				Result: "total_loss",
			}
			if err := cat.AddAggregate(aux); err != nil {
				t.Fatal(err)
			}
			specs := make([]*AggSpec, len(tc.aggs))
			args := make([][]VecFactory, len(tc.aggs))
			for i, a := range tc.aggs {
				specs[i] = &AggSpec{Func: a.fn, Distinct: a.distinct}
				if a.fn == aux.Name {
					specs[i].UserDef = aux
				}
				if a.arg {
					ev, _ := Compile(col("v"), sc, nil)
					vec, _ := CompileVec(col("v"), sc, nil)
					specs[i].Args, args[i] = []Evaluator{ev}, []VecFactory{vec}
				}
				out = append(out, algebra.Column{Name: fmt.Sprintf("agg%d", i)})
			}
			ctx := func() *Ctx { return NewCtx(newTestInterp(cat)) }
			want, err := Drain(NewHashAgg(keys, specs, NewTableScan(tab, sc), out), ctx())
			if err != nil {
				t.Fatal(err)
			}
			// The groups are the distinct keys in first-seen order.
			firstSeen := []storage.Row{{}}
			if tc.keyed {
				firstSeen = nil
				seen := map[string]bool{}
				for _, r := range tc.rows {
					if k := sqltypes.KeyOf(r[0]); !seen[k] {
						seen[k] = true
						firstSeen = append(firstSeen, r[:1])
					}
				}
			}
			if len(want) != len(firstSeen) {
				t.Fatalf("HashAgg returned %d groups, want %d", len(want), len(firstSeen))
			}
			for i, keys := range firstSeen {
				if !reflect.DeepEqual(want[i][:len(keys)], keys) {
					t.Fatalf("group %d has keys %v, want %v", i, want[i][:len(keys)], keys)
				}
			}
			batch := NewBatchGroupBy(vecKeys, specs, args, NewBatchScan(tab, sc), out)
			got, err := Drain(batch, ctx())
			if err != nil {
				t.Fatal(err)
			}
			assertSameValues(t, got, want)
			// Aggregates that do not merge stay serial over a parallel scan.
			par := parallelPair(t, batch)
			if _, isPar := par.(*parallelGroupBy); isPar != allMergeable(specs) {
				t.Fatalf("Parallelize built a %T root", par)
			}
			got, err = Drain(par, ctx())
			if err != nil {
				t.Fatal(err)
			}
			if len(tc.rows) <= MorselRows {
				assertSameValues(t, got, want)
			} else {
				assertSameMultiset(t, got, want)
			}
		})
	}
}

// assertSameValues requires got and want to hold the same values, kinds
// included, in the same order.
func assertSameValues(t *testing.T, got, want []storage.Row) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("row counts differ: got %d, want %d", len(got), len(want))
	}
	for i := range got {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("row %d differs: got %v, want %v", i, got[i], want[i])
		}
	}
}

// TestBatchScalarAggEquivalence checks the keyless BatchGroupBy, the batch
// form of a scalar aggregate, against the row HashAgg at several batch sizes.
func TestBatchScalarAggEquivalence(t *testing.T) {
	sc := schema2("a")
	aggOf := func(fn string, args ...algebra.Expr) *algebra.AggCall {
		return &algebra.AggCall{Func: fn, Args: args}
	}
	for _, tc := range []struct {
		name string
		rows [][]int64
		aggs []*algebra.AggCall
	}{
		{"empty input one row out", nil,
			[]*algebra.AggCall{aggOf("count"), aggOf("sum", col("a")), aggOf("min", col("a")),
				aggOf("max", col("a")), aggOf("avg", col("a"))}},
		{"nulls skipped", [][]int64{{5}, {-1}, {3}, {-1}, {9}},
			[]*algebra.AggCall{aggOf("count"), aggOf("count", col("a")), aggOf("sum", col("a")),
				aggOf("min", col("a")), aggOf("max", col("a")), aggOf("avg", col("a"))}},
		{"all null sum is null", [][]int64{{-1}, {-1}},
			[]*algebra.AggCall{aggOf("sum", col("a")), aggOf("count", col("a"))}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			in := NewValues(rowsWithNulls(tc.rows), sc)
			outSchema := make([]algebra.Column, len(tc.aggs))
			for i := range tc.aggs {
				outSchema[i] = algebra.Column{Name: "agg"}
			}
			rowSpecs := make([]*AggSpec, len(tc.aggs))
			vecArgs := make([][]VecFactory, len(tc.aggs))
			for i, a := range tc.aggs {
				spec := &AggSpec{Func: a.Func}
				var vecs []VecFactory
				for _, arg := range a.Args {
					rowEv, err := Compile(arg, sc, nil)
					if err != nil {
						t.Fatal(err)
					}
					spec.Args = append(spec.Args, rowEv)
					vecEv, err := CompileVec(arg, sc, nil)
					if err != nil {
						t.Fatal(err)
					}
					vecs = append(vecs, vecEv)
				}
				rowSpecs[i], vecArgs[i] = spec, vecs
			}
			rowPlan := NewHashAgg(nil, rowSpecs, in, outSchema)
			batchPlan := NewBatchGroupBy(nil, rowSpecs, vecArgs, in, outSchema)
			want, err := Drain(rowPlan, NewCtx(nil))
			if err != nil {
				t.Fatal(err)
			}
			for _, size := range []int{1, 2, 1024} {
				got := drainWithBatchSize(t, batchPlan, NewCtx(nil), size)
				assertIdenticalRows(t, got, want)
			}
		})
	}
}

// newTestTable builds an in-memory storage table for scan tests.
func newTestTable(t *testing.T, name string, cols []string, rows []storage.Row) *storage.Table {
	t.Helper()
	meta := &catalog.Table{Name: name}
	for _, c := range cols {
		meta.Cols = append(meta.Cols, catalog.Column{Name: c, Type: sqltypes.KindInt})
	}
	tab := storage.NewTable(meta)
	if err := tab.Append(rows...); err != nil {
		t.Fatal(err)
	}
	return tab
}

func TestBatchScanEquivalence(t *testing.T) {
	tab := newTestTable(t, "t", []string{"a", "b"},
		rowsWithNulls([][]int64{{1, 10}, {2, -1}, {3, 30}}))
	sc := schema2("a", "b")
	want, err := Drain(NewTableScan(tab, sc), NewCtx(nil))
	if err != nil {
		t.Fatal(err)
	}
	for _, size := range []int{1, 2, 1024} {
		got := drainWithBatchSize(t, NewBatchScan(tab, sc), NewCtx(nil), size)
		assertIdenticalRows(t, got, want)
	}

	// Empty table.
	empty := newTestTable(t, "e", []string{"a", "b"}, nil)
	got := drainWithBatchSize(t, NewBatchScan(empty, sc), NewCtx(nil), 4)
	if len(got) != 0 {
		t.Fatalf("empty scan returned %d rows", len(got))
	}
}

// TestVecEvalErrorsMatchRowEval asserts the vectorized evaluator surfaces
// the same runtime errors as the row evaluator (unguarded division by zero).
func TestVecEvalErrorsMatchRowEval(t *testing.T) {
	sc := schema2("a")
	in := NewValues(rowsWithNulls([][]int64{{2}, {0}}), sc)
	div := &algebra.Arith{Op: sqltypes.OpDiv, L: lit(10), R: col("a")}
	rowEv, err := CompileAll([]algebra.Expr{div}, sc, nil)
	if err != nil {
		t.Fatal(err)
	}
	vecEv, err := CompileVecAll([]algebra.Expr{div}, sc, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, rowErr := Drain(NewProject(rowEv, false, in, schema2("x")), NewCtx(nil))
	_, vecErr := Drain(NewBatchProject(vecEv, false, in, schema2("x")), NewCtx(nil))
	if rowErr == nil || vecErr == nil {
		t.Fatalf("expected both engines to fail: row=%v vec=%v", rowErr, vecErr)
	}
	if !strings.Contains(vecErr.Error(), "division by zero") {
		t.Fatalf("vectorized error = %v, want division by zero", vecErr)
	}
}
