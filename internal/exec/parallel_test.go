package exec

// Parallel executor tests: the morsel dispenser must cover every row exactly
// once, and every parallel operator (Exchange over scan/filter/project/probe
// pipelines, parallel group-by and scalar aggregation) must produce the same
// row multiset as its serial counterpart — exactly, since these fixtures
// aggregate integers. Error propagation and early close must not leak
// workers or deadlock.

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"

	"udfdecorr/internal/algebra"
	"udfdecorr/internal/sqltypes"
	"udfdecorr/internal/storage"
)

// assertSameMultiset compares results order-insensitively (parallel
// operators interleave worker output nondeterministically).
func assertSameMultiset(t *testing.T, got, want []storage.Row) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("row counts differ: got %d, want %d", len(got), len(want))
	}
	count := map[string]int{}
	for _, r := range want {
		count[sqltypes.KeyOf(r...)]++
	}
	for _, r := range got {
		count[sqltypes.KeyOf(r...)]--
	}
	for k, v := range count {
		if v != 0 {
			t.Fatalf("row multiset mismatch (key %x: %+d)", k, v)
		}
	}
}

// intTable builds a storage table of sequential rows: (i, i%mod, i*2).
func intTable(t *testing.T, name string, n int, mod int64) *storage.Table {
	t.Helper()
	rows := make([]storage.Row, n)
	for i := range rows {
		rows[i] = storage.Row{
			sqltypes.NewInt(int64(i)),
			sqltypes.NewInt(int64(i) % mod),
			sqltypes.NewInt(int64(i) * 2),
		}
	}
	return newTestTable(t, name, []string{"a", "b", "c"}, rows)
}

func TestMorselSourceCoversEveryRowOnce(t *testing.T) {
	n := 3*MorselRows + 17
	rows := make([]storage.Row, n)
	for i := range rows {
		rows[i] = storage.Row{sqltypes.NewInt(int64(i))}
	}
	// Published segments plus a transaction overlay: the dispenser must
	// cover the combined ordinal space exactly once.
	tab := newTestTable(t, "m", []string{"a"}, rows[:n-5])
	ctx := NewCtx(nil)
	ctx.SetSnapshot(nil, map[*storage.Table][]storage.Row{tab: rows[n-5:]})
	scan := NewBatchScan(tab, []algebra.Column{{Name: "a"}})
	src := newMorselSource(ctx, scan, scan, MorselRows)
	if got := src.segRows + len(src.overlay); got != n {
		t.Fatalf("segRows + overlay = %d, want %d", got, n)
	}
	if got, want := src.morselCount(), 4; got != want {
		t.Fatalf("morselCount = %d, want %d", got, want)
	}
	var mu sync.Mutex
	var spans []span
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				lo, hi, ok := src.grab()
				if !ok {
					return
				}
				mu.Lock()
				spans = append(spans, span{lo, hi})
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	sort.Slice(spans, func(i, j int) bool { return spans[i].lo < spans[j].lo })
	next := 0
	for _, s := range spans {
		if s.lo != next {
			t.Fatalf("gap or overlap at row %d (span starts at %d)", next, s.lo)
		}
		next = s.hi
	}
	if next != len(rows) {
		t.Fatalf("covered %d rows, want %d", next, len(rows))
	}
}

// parallelPair parallelizes the plan at degree 4 and requires the rewrite
// to fire.
func parallelPair(t *testing.T, serial Node) Node {
	t.Helper()
	par, notes, ok := Parallelize(serial, 4)
	if !ok {
		t.Fatalf("Parallelize did not rewrite %T", serial)
	}
	if len(notes) == 0 {
		t.Fatal("Parallelize returned no EXPLAIN notes")
	}
	return par
}

func TestExchangeScanFilterProjectEquivalence(t *testing.T) {
	tab := intTable(t, "t", 10_000, 7)
	sc := schema2("a", "b", "c")
	pred, err := CompilePred(cmp(sqltypes.CmpNE, col("b"), lit(3)), sc, nil)
	if err != nil {
		t.Fatal(err)
	}
	exprs, err := CompileVecAll([]algebra.Expr{
		&algebra.Arith{Op: sqltypes.OpAdd, L: col("a"), R: col("c")},
		col("b"),
	}, sc, nil)
	if err != nil {
		t.Fatal(err)
	}
	plan := NewBatchProject(exprs, false,
		&BatchFilter{Pred: pred, Child: NewBatchScan(tab, sc)}, schema2("x", "y"))
	want, err := Drain(plan, NewCtx(nil))
	if err != nil {
		t.Fatal(err)
	}
	par := parallelPair(t, plan)
	if _, ok := par.(*Exchange); !ok {
		t.Fatalf("expected Exchange root, got %T", par)
	}
	ctx := NewCtx(nil)
	got, err := Drain(par, ctx)
	if err != nil {
		t.Fatal(err)
	}
	assertSameMultiset(t, got, want)
	if ctx.Counters.Workers == 0 {
		t.Fatal("no parallel workers recorded")
	}
	if ctx.Counters.Morsels == 0 {
		t.Fatal("no morsels recorded")
	}
}

func TestParallelHashJoinEquivalence(t *testing.T) {
	probeTab := intTable(t, "probe", 9_000, 5)
	buildTab := intTable(t, "build", 400, 5) // 80 rows per key: hot buckets
	sc := schema2("a", "b", "c")
	kinds := []algebra.JoinKind{algebra.InnerJoin, algebra.LeftOuterJoin,
		algebra.SemiJoin, algebra.AntiJoin}
	for _, kind := range kinds {
		for _, withResidual := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/residual=%v", kind, withResidual), func(t *testing.T) {
				mk := func() Node {
					l := NewBatchScan(probeTab, sc)
					r := NewBatchScan(buildTab, sc)
					lKey, _ := CompileVec(col("b"), sc, nil)
					rKey, _ := CompileVec(col("b"), sc, nil)
					var res Evaluator
					if withResidual {
						joined := append(append([]algebra.Column{}, sc...), sc...)
						ev, err := Compile(cmp(sqltypes.CmpLT, &algebra.ColRef{Name: "c"}, lit(300)),
							joined, nil)
						if err != nil {
							t.Fatal(err)
						}
						res = ev
					}
					return NewBatchHashJoin(kind, []VecFactory{lKey}, []VecFactory{rKey}, res, l, r)
				}
				want, err := Drain(mk(), NewCtx(nil))
				if err != nil {
					t.Fatal(err)
				}
				par := parallelPair(t, mk())
				got, err := Drain(par, NewCtx(nil))
				if err != nil {
					t.Fatal(err)
				}
				assertSameMultiset(t, got, want)
			})
		}
	}
}

func TestParallelGroupByEquivalence(t *testing.T) {
	tab := intTable(t, "t", 12_345, 97)
	sc := schema2("a", "b", "c")
	mk := func() *BatchGroupBy {
		key, _ := CompileVec(col("b"), sc, nil)
		argA, _ := CompileVec(col("a"), sc, nil)
		argC, _ := CompileVec(col("c"), sc, nil)
		aggs := []*AggSpec{
			{Func: "count"},
			{Func: "sum", Args: make([]Evaluator, 1)},
			{Func: "min", Args: make([]Evaluator, 1)},
			{Func: "max", Args: make([]Evaluator, 1)},
			{Func: "avg", Args: make([]Evaluator, 1)},
		}
		args := [][]VecFactory{nil, {argA}, {argA}, {argC}, {argA}}
		return NewBatchGroupBy([]VecFactory{key}, aggs, args,
			NewBatchScan(tab, sc), schema2("k", "n", "s", "mn", "mx", "av"))
	}
	want, err := Drain(mk(), NewCtx(nil))
	if err != nil {
		t.Fatal(err)
	}
	if len(want) != 97 {
		t.Fatalf("serial group-by produced %d groups, want 97", len(want))
	}
	par := parallelPair(t, mk())
	if _, ok := par.(*parallelGroupBy); !ok {
		t.Fatalf("expected parallelGroupBy root, got %T", par)
	}
	got, err := Drain(par, NewCtx(nil))
	if err != nil {
		t.Fatal(err)
	}
	// Integer aggregation is exact, and avg over integers divides identical
	// partial sums, so the multisets must match bit-for-bit.
	assertSameMultiset(t, got, want)
}

// TestParallelScalarAggEquivalence checks the parallel keyless group-by
// against the serial one over empty, single-morsel and many-morsel inputs.
func TestParallelScalarAggEquivalence(t *testing.T) {
	for _, n := range []int{0, 5, 20_000} {
		t.Run(fmt.Sprintf("rows=%d", n), func(t *testing.T) {
			tab := intTable(t, "t", n, 11)
			sc := schema2("a", "b", "c")
			mk := func() *BatchGroupBy {
				argA, _ := CompileVec(col("a"), sc, nil)
				aggs := []*AggSpec{
					{Func: "count"},
					{Func: "sum", Args: make([]Evaluator, 1)},
					{Func: "min", Args: make([]Evaluator, 1)},
				}
				args := [][]VecFactory{nil, {argA}, {argA}}
				return NewBatchGroupBy(nil, aggs, args, NewBatchScan(tab, sc),
					schema2("n", "s", "mn"))
			}
			want, err := Drain(mk(), NewCtx(nil))
			if err != nil {
				t.Fatal(err)
			}
			if len(want) != 1 {
				t.Fatalf("scalar agg produced %d rows, want 1", len(want))
			}
			par := parallelPair(t, mk())
			got, err := Drain(par, NewCtx(nil))
			if err != nil {
				t.Fatal(err)
			}
			assertSameMultiset(t, got, want)
		})
	}
}

func TestParallelizeShapes(t *testing.T) {
	tab := intTable(t, "t", 100, 3)
	sc := schema2("a", "b", "c")
	scan := func() Node { return NewBatchScan(tab, sc) }

	// LIMIT is a parallelization barrier: first-N over nondeterministic
	// worker order would change the result set.
	if _, _, ok := Parallelize(&BatchLimit{N: 5, Child: scan()}, 4); ok {
		t.Fatal("Parallelize rewrote a LIMIT plan")
	}

	// DISTINCT projection stays serial, but its child parallelizes.
	exprs, err := CompileVecAll([]algebra.Expr{col("b")}, sc, nil)
	if err != nil {
		t.Fatal(err)
	}
	dedup := NewBatchProject(exprs, true, scan(), schema2("b"))
	par, notes, ok := Parallelize(dedup, 4)
	if !ok {
		t.Fatal("Parallelize did not recurse under a DISTINCT projection")
	}
	proj, isProj := par.(*BatchProject)
	if !isProj || !proj.Dedup {
		t.Fatalf("expected serial DISTINCT projection root, got %T", par)
	}
	if _, isEx := proj.Child.(*Exchange); !isEx {
		t.Fatalf("expected Exchange under the projection, got %T", proj.Child)
	}
	if len(notes) == 0 || !strings.Contains(notes[0], "degree=4") {
		t.Fatalf("notes = %v, want Exchange note with degree", notes)
	}

	// Degree 1 is a no-op.
	if _, _, ok := Parallelize(scan(), 1); ok {
		t.Fatal("Parallelize rewrote at degree 1")
	}

	// Tiny tables clamp the worker count to the morsel count.
	ctx := NewCtx(nil)
	got, err := Drain(parallelPair(t, scan()), ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 100 {
		t.Fatalf("parallel scan returned %d rows, want 100", len(got))
	}
	if ctx.Counters.Workers != 1 {
		t.Fatalf("100-row scan launched %d workers, want 1 (morsel clamp)", ctx.Counters.Workers)
	}
}

func TestExchangeErrorPropagation(t *testing.T) {
	rows := make([]storage.Row, 9_000)
	for i := range rows {
		rows[i] = storage.Row{sqltypes.NewInt(int64(i)), sqltypes.NewInt(int64(i % 100))}
	}
	rows[8_500][1] = sqltypes.NewInt(0) // ensure a zero divisor deep in the scan
	tab := newTestTable(t, "t", []string{"a", "b"}, rows)
	sc := schema2("a", "b")
	div := &algebra.Arith{Op: sqltypes.OpDiv, L: lit(100), R: col("b")}
	exprs, err := CompileVecAll([]algebra.Expr{div}, sc, nil)
	if err != nil {
		t.Fatal(err)
	}
	plan := NewBatchProject(exprs, false, NewBatchScan(tab, sc), schema2("x"))
	_, serialErr := Drain(plan, NewCtx(nil))
	if serialErr == nil {
		t.Fatal("serial plan did not fail")
	}
	_, parErr := Drain(parallelPair(t, plan), NewCtx(nil))
	if parErr == nil {
		t.Fatal("parallel plan did not surface the worker error")
	}
	if !strings.Contains(parErr.Error(), "division by zero") {
		t.Fatalf("parallel error = %v, want division by zero", parErr)
	}
}

// TestExchangeEarlyClose abandons a parallel stream mid-flight: Close must
// unblock the workers and return (a hang here is the failure mode).
func TestExchangeEarlyClose(t *testing.T) {
	tab := intTable(t, "t", 50_000, 7)
	sc := schema2("a", "b", "c")
	par := parallelPair(t, NewBatchScan(tab, sc))
	ctx := NewCtx(nil)
	bi, err := OpenBatches(par, ctx)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, err := bi.NextBatch(64); err != nil || !ok {
		t.Fatalf("first batch: ok=%v err=%v", ok, err)
	}
	if err := bi.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestExchangeTwoProbes runs a pipeline with two hash-join probes, one of
// them above a filter: every probe's join table is prebuilt once and shared
// by the workers.
func TestExchangeTwoProbes(t *testing.T) {
	probeTab := intTable(t, "probe", 9_000, 5)
	b1Tab := intTable(t, "b1", 5, 5)  // one build row per probe key
	b2Tab := intTable(t, "b2", 30, 7) // matches probe rows with a < 7 only
	psc, b1sc, b2sc := schema2("a", "b", "c"), schema2("d", "e", "f"), schema2("g", "h", "i")
	vec := func(name string, sc []algebra.Column) VecFactory {
		f, err := CompileVec(col(name), sc, nil)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	inner := NewBatchHashJoin(algebra.InnerJoin, []VecFactory{vec("b", psc)}, []VecFactory{vec("e", b1sc)},
		nil, NewBatchScan(probeTab, psc), NewBatchScan(b1Tab, b1sc))
	pred, err := CompilePred(cmp(sqltypes.CmpLT, col("c"), lit(12_000)), inner.Schema(), nil)
	if err != nil {
		t.Fatal(err)
	}
	filter := &BatchFilter{Pred: pred, Child: inner}
	plan := NewBatchHashJoin(algebra.LeftOuterJoin, []VecFactory{vec("a", filter.Schema())},
		[]VecFactory{vec("h", b2sc)}, nil, filter, NewBatchScan(b2Tab, b2sc))
	want, err := Drain(plan, NewCtx(nil))
	if err != nil {
		t.Fatal(err)
	}
	if len(want) <= 6_000 {
		t.Fatalf("serial plan returned %d rows; the fixture should match some probe rows twice", len(want))
	}
	par := parallelPair(t, plan)
	ex, ok := par.(*Exchange)
	if !ok {
		t.Fatalf("expected Exchange root, got %T", par)
	}
	if got, want := ex.Describe(), "Exchange(scan(probe)→probe(inner)→filter→probe(leftouter), degree=4)"; got != want {
		t.Fatalf("Describe() = %q, want %q", got, want)
	}
	ctx := NewCtx(nil)
	got, err := Drain(par, ctx)
	if err != nil {
		t.Fatal(err)
	}
	assertSameMultiset(t, got, want)
	if ctx.Counters.Workers < 2 {
		t.Fatalf("launched %d workers, want several", ctx.Counters.Workers)
	}
}

// TestParallelOverTransactionOverlay sends a transaction's uncommitted rows
// through parallel plans. The overlay spans about 2.5 morsels, and the
// published rows end mid-morsel, so one morsel straddles the boundary.
func TestParallelOverTransactionOverlay(t *testing.T) {
	defer func(n int) { MorselRows = n }(MorselRows)
	MorselRows = 64
	const published, overlaid = 1_000, 160 // 1000 = 15.6 morsels
	tab := intTable(t, "t", published, 7)
	overlay := make([]storage.Row, overlaid)
	for i := range overlay {
		a := int64(100_000 + i)
		overlay[i] = storage.Row{sqltypes.NewInt(a), sqltypes.NewInt(a % 7), sqltypes.NewInt(2 * a)}
	}
	newCtx := func() *Ctx {
		ctx := NewCtx(nil)
		ctx.SetSnapshot(nil, map[*storage.Table][]storage.Row{tab: overlay})
		return ctx
	}
	sc := schema2("a", "b", "c")
	exprs, err := CompileVecAll([]algebra.Expr{col("a"), col("b")}, sc, nil)
	if err != nil {
		t.Fatal(err)
	}
	project := NewBatchProject(exprs, false, NewBatchScan(tab, sc), schema2("a", "b"))
	key, _ := CompileVec(col("b"), sc, nil)
	argA, _ := CompileVec(col("a"), sc, nil)
	group := NewBatchGroupBy([]VecFactory{key},
		[]*AggSpec{{Func: "count"}, {Func: "sum", Args: make([]Evaluator, 1)}},
		[][]VecFactory{nil, {argA}}, NewBatchScan(tab, sc), schema2("k", "n", "s"))

	want, err := Drain(project, newCtx())
	if err != nil {
		t.Fatal(err)
	}
	if len(want) != published+overlaid {
		t.Fatalf("serial scan returned %d rows, want %d", len(want), published+overlaid)
	}
	ctx := newCtx()
	got, err := Drain(parallelPair(t, project), ctx)
	if err != nil {
		t.Fatal(err)
	}
	assertSameMultiset(t, got, want)
	seen := map[int64]int{}
	for _, r := range got {
		if a := r[0].Int(); a >= 100_000 {
			seen[a]++
		}
	}
	for i := range overlay {
		if n := seen[overlay[i][0].Int()]; n != 1 {
			t.Fatalf("overlay row %d returned %d times, want once", i, n)
		}
	}
	if ctx.Counters.Workers != 4 || ctx.Counters.Morsels != (published+overlaid+63)/64 {
		t.Fatalf("workers=%d morsels=%d, want 4 workers over %d morsels",
			ctx.Counters.Workers, ctx.Counters.Morsels, (published+overlaid+63)/64)
	}

	wantGroups, err := Drain(group, newCtx())
	if err != nil {
		t.Fatal(err)
	}
	par := parallelPair(t, group)
	if _, ok := par.(*parallelGroupBy); !ok {
		t.Fatalf("expected parallelGroupBy root, got %T", par)
	}
	gotGroups, err := Drain(par, newCtx())
	if err != nil {
		t.Fatal(err)
	}
	assertSameMultiset(t, gotGroups, wantGroups)
	total := int64(0)
	for _, r := range gotGroups {
		total += r[1].Int()
	}
	if total != published+overlaid {
		t.Fatalf("group counts add up to %d, want %d", total, published+overlaid)
	}
}

// panicOn is a filter predicate that keeps every row but panics on the row
// whose first column equals bad.
func panicOn(bad int64) PredFactory {
	return func() VecPredicate {
		return func(_ *Ctx, b *Batch, out []sqltypes.Tri) error {
			for i := 0; i < b.Len(); i++ {
				p := b.LiveAt(i)
				if b.Cols[0][p].Int() == bad {
					panic("injected predicate panic")
				}
				out[p] = sqltypes.True
			}
			return nil
		}
	}
}

// TestParallelWorkerPanicIsError requires a worker's panic to come back as
// the statement's error, from an Exchange and from a parallel group-by,
// with the process intact for the next parallel plan.
func TestParallelWorkerPanicIsError(t *testing.T) {
	tab := intTable(t, "t", 20_000, 7)
	sc := schema2("a", "b", "c")
	filter := &BatchFilter{Pred: panicOn(15_000), Child: NewBatchScan(tab, sc)}
	key, _ := CompileVec(col("b"), sc, nil)
	argA, _ := CompileVec(col("a"), sc, nil)
	group := NewBatchGroupBy([]VecFactory{key}, []*AggSpec{{Func: "sum", Args: make([]Evaluator, 1)}},
		[][]VecFactory{{argA}}, filter, schema2("k", "s"))
	for _, plan := range []Node{filter, group} {
		par := parallelPair(t, plan)
		_, err := Drain(par, NewCtx(nil))
		if err == nil || err.Error() != "exec: parallel worker panic: injected predicate panic" {
			t.Fatalf("%T returned %v, want the worker panic as an error", par, err)
		}
	}
	got, err := Drain(parallelPair(t, NewBatchScan(tab, sc)), NewCtx(nil))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 20_000 {
		t.Fatalf("parallel scan after the panics returned %d rows, want 20000", len(got))
	}
}
