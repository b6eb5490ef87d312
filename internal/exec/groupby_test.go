package exec

// Group-table equivalence: the row HashAgg, BatchGroupBy, the group table's
// merge and the parallel group-by must each return what a naive reference
// returns (a Go map from encoded key to group plus a first-seen slice, each
// aggregate folded by its SQL definition): the same rows in the same order.

import (
	"fmt"
	"testing"

	"udfdecorr/internal/algebra"
	"udfdecorr/internal/catalog"
	"udfdecorr/internal/sqltypes"
	"udfdecorr/internal/storage"
)

// referenceGroupBy groups rows whose first nKeys cells are the key and
// whose last cell is the aggregate argument, and folds each aggregate over
// its group's arguments in row order. Without keys it returns one row even
// for empty input.
func referenceGroupBy(rows []storage.Row, nKeys int, aggs []aggDef) []storage.Row {
	type group struct {
		keys []sqltypes.Value
		args []sqltypes.Value
	}
	index := map[string]int{}
	var groups []*group
	if nKeys == 0 {
		groups = append(groups, &group{})
	}
	for _, r := range rows {
		k := sqltypes.KeyOf(r[:nKeys]...)
		i, ok := index[k]
		if !ok && nKeys > 0 {
			i = len(groups)
			index[k] = i
			groups = append(groups, &group{keys: r[:nKeys]})
		}
		groups[i].args = append(groups[i].args, r[len(r)-1])
	}
	out := make([]storage.Row, len(groups))
	for i, g := range groups {
		row := append(storage.Row{}, g.keys...)
		for _, a := range aggs {
			row = append(row, referenceFold(a, g.args))
		}
		out[i] = row
	}
	return out
}

// referenceFold computes one aggregate over a group's arguments.
func referenceFold(a aggDef, args []sqltypes.Value) sqltypes.Value {
	if !a.arg {
		return sqltypes.NewInt(int64(len(args))) // count(*)
	}
	var vals []sqltypes.Value // the non-NULL arguments, deduplicated if DISTINCT
	seen := map[string]bool{}
	for _, v := range args {
		if v.IsNull() || (a.distinct && seen[sqltypes.KeyOf(v)]) {
			continue
		}
		seen[sqltypes.KeyOf(v)] = true
		vals = append(vals, v)
	}
	switch a.fn {
	case "count":
		return sqltypes.NewInt(int64(len(vals)))
	case "sum":
		acc := sqltypes.Null
		for _, v := range vals {
			if acc.IsNull() {
				acc = v
			} else {
				acc, _ = sqltypes.Arith(sqltypes.OpAdd, acc, v)
			}
		}
		return acc
	case "min", "max":
		best := sqltypes.Null
		for _, v := range vals {
			c := sqltypes.TotalCompare(v, best)
			if best.IsNull() || (a.fn == "min" && c < 0) || (a.fn == "max" && c > 0) {
				best = v
			}
		}
		return best
	case "avg":
		if len(vals) == 0 {
			return sqltypes.Null
		}
		sum := 0.0
		for _, v := range vals {
			f, _ := v.AsFloat()
			sum += f
		}
		return sqltypes.NewFloat(sum / float64(len(vals)))
	case auxAgg.Name: // if (profit < 0) total_loss = total_loss - profit
		acc := sqltypes.NewInt(0)
		for _, v := range vals {
			if f, _ := v.AsFloat(); f < 0 {
				acc, _ = sqltypes.Arith(sqltypes.OpSub, acc, v)
			}
		}
		return acc
	}
	panic("no reference for aggregate " + a.fn)
}

// auxAgg is the user-defined aggregate of the group-by tests.
var auxAgg = &catalog.Aggregate{
	Name:   "aux_agg",
	State:  []catalog.AggStateVar{{Name: "total_loss", Init: sqltypes.NewInt(0)}},
	Params: []string{"profit"},
	Result: "total_loss",
}

// groupByPlans builds the row HashAgg and the BatchGroupBy over the given
// inputs (schema k1, k2, v), grouping by the first nKeys columns and
// aggregating v, and a context whose interpreter knows auxAgg.
func groupByPlans(t *testing.T, nKeys int, aggs []aggDef, rowIn, batchIn Node) (*HashAgg, *BatchGroupBy, func() *Ctx) {
	t.Helper()
	sc := schema2("k1", "k2", "v")
	var keys []Evaluator
	var vecKeys []VecFactory
	out := schema2()
	for _, name := range []string{"k1", "k2"}[:nKeys] {
		ev, _ := Compile(col(name), sc, nil)
		vec, _ := CompileVec(col(name), sc, nil)
		keys, vecKeys = append(keys, ev), append(vecKeys, vec)
		out = append(out, algebra.Column{Name: name})
	}
	cat := catalog.New()
	aux := *auxAgg
	aux.Body = mustParseBody(t, "if (profit < 0) total_loss = total_loss - profit;")
	if err := cat.AddAggregate(&aux); err != nil {
		t.Fatal(err)
	}
	specs := make([]*AggSpec, len(aggs))
	args := make([][]VecFactory, len(aggs))
	for i, a := range aggs {
		specs[i] = &AggSpec{Func: a.fn, Distinct: a.distinct}
		if a.fn == aux.Name {
			specs[i].UserDef = &aux
		}
		if a.arg {
			ev, _ := Compile(col("v"), sc, nil)
			vec, _ := CompileVec(col("v"), sc, nil)
			specs[i].Args, args[i] = []Evaluator{ev}, []VecFactory{vec}
		}
		out = append(out, algebra.Column{Name: fmt.Sprintf("agg%d", i)})
	}
	ctx := func() *Ctx { return NewCtx(newTestInterp(cat)) }
	return NewHashAgg(keys, specs, rowIn, out), NewBatchGroupBy(vecKeys, specs, args, batchIn, out), ctx
}

// selSource serves its rows in batches of size physical rows, whatever the
// consumer asks for. Every third physical row is left out of the selection
// vector and holds poison, and the source overwrites its vectors on every
// call, so a consumer that reads an unselected position, or keeps a
// batch's values past the next call, sees poison.
type selSource struct {
	rows   []storage.Row
	size   int
	schema []algebra.Column
}

func (s *selSource) Schema() []algebra.Column    { return s.schema }
func (s *selSource) Open(ctx *Ctx) (Iter, error) { return openRowsViaBatches(s, ctx) }
func (s *selSource) OpenBatch(*Ctx) (BatchIter, error) {
	return &selSourceIter{s: s, b: NewBatch(len(s.schema), 0)}, nil
}

type selSourceIter struct {
	s        *selSource
	pos      int // next live row
	physical int // physical rows served so far
	b        *Batch
}

func (it *selSourceIter) NextBatch(max int) (*Batch, bool, error) {
	if it.pos >= len(it.s.rows) {
		return nil, false, nil
	}
	b := it.b
	for c := range b.Cols {
		vec := b.Cols[c][:cap(b.Cols[c])]
		for i := range vec {
			vec[i] = BatchPoison
		}
		b.Cols[c] = vec[:0]
	}
	b.Sel = b.Sel[:0:0]
	n := 0
	for ; n < min(it.s.size, max) && it.pos < len(it.s.rows); n++ {
		row := it.s.rows[it.pos]
		if it.physical%3 == 2 {
			row = nil
		} else {
			b.Sel = append(b.Sel, n)
			it.pos++
		}
		for c := range b.Cols {
			v := BatchPoison
			if row != nil {
				v = row[c]
			}
			b.Cols[c] = append(b.Cols[c], v)
		}
		it.physical++
	}
	b.SetPhysical(n)
	return b, true, nil
}

func (it *selSourceIter) Close() error { return nil }

// groupByInput builds n rows (k1, k2, v): k1 and k2 come from the key
// functions, and v cycles through ints, fractional floats and NULLs, so a
// sum changes kind within a group and float sums depend on the fold order.
func groupByInput(n int, k1, k2 func(i int) sqltypes.Value) []storage.Row {
	rows := make([]storage.Row, n)
	for i := range rows {
		var v sqltypes.Value
		switch i % 4 {
		case 0:
			v = sqltypes.NewInt(int64(i%7 - 3))
		case 1:
			v = sqltypes.NewFloat(float64(i%5)*0.1 - 0.2)
		case 2:
			v = sqltypes.NewInt(int64(i % 11))
		}
		if i%9 == 5 {
			v = sqltypes.Null
		}
		rows[i] = storage.Row{k1(i), k2(i), v}
	}
	return rows
}

// everyAggregate lists every builtin aggregate, DISTINCT ones and the
// user-defined aggregate.
var everyAggregate = []aggDef{
	{fn: "count"}, {fn: "count", arg: true}, {fn: "sum", arg: true},
	{fn: "min", arg: true}, {fn: "max", arg: true}, {fn: "avg", arg: true},
	{fn: "count", arg: true, distinct: true}, {fn: "sum", arg: true, distinct: true},
	{fn: "aux_agg", arg: true},
}

// mergeableAggregates lists the aggregates the parallel group-by takes.
var mergeableAggregates = everyAggregate[:6]

type groupByCase struct {
	name  string
	nKeys int
	rows  []storage.Row
}

func groupByCases() []groupByCase {
	I, F, S, N := sqltypes.NewInt, sqltypes.NewFloat, sqltypes.NewString, sqltypes.Null
	none := func(int) sqltypes.Value { return N }
	return []groupByCase{
		{"int_keys", 1, groupByInput(3000, func(i int) sqltypes.Value { return I(int64(i*7) % 41) }, none)},
		// 1 and 1.0 are one group, whose key is the value seen first.
		{"float_keys_equal_ints", 1, groupByInput(500, func(i int) sqltypes.Value {
			if i%3 == 0 {
				return F(float64(i % 13))
			}
			return I(int64(i % 13))
		}, none)},
		{"null_keys", 1, groupByInput(500, func(i int) sqltypes.Value {
			if i%4 == 1 {
				return N
			}
			return I(int64(i % 5))
		}, none)},
		{"multi_column_keys", 2, groupByInput(2000, func(i int) sqltypes.Value { return I(int64(i % 6)) },
			func(i int) sqltypes.Value {
				switch i % 5 {
				case 0:
					return N
				case 1:
					return F(float64(i % 3))
				}
				return S(fmt.Sprint("s", i%4))
			})},
		// Integer keys for more than a batch, then strings, a fraction and
		// NULL among them: the table leaves its integer index mid-stream.
		{"int_then_encoded_keys", 1, groupByInput(3000, func(i int) sqltypes.Value {
			switch {
			case i < 1500:
				return I(int64(i % 17))
			case i%5 == 0:
				return S(fmt.Sprint("k", i%7))
			case i%5 == 1:
				return F(3.5)
			case i%5 == 2:
				return N
			}
			return F(float64(i % 19))
		}, none)},
		{"keyed_empty_input", 1, nil},
		{"keyless", 0, groupByInput(3000, none, none)},
		{"keyless_empty_input", 0, nil},
	}
}

// TestGroupByMatchesReference runs every aggregate through the row HashAgg
// and BatchGroupBy, whose input arrives in batches of 1, 7 and 1024 rows
// with selection vectors, and compares both with the reference.
func TestGroupByMatchesReference(t *testing.T) {
	sc := schema2("k1", "k2", "v")
	for _, tc := range groupByCases() {
		want := referenceGroupBy(tc.rows, tc.nKeys, everyAggregate)
		for _, size := range []int{1, 7, 1024} {
			t.Run(fmt.Sprintf("%s/batch=%d", tc.name, size), func(t *testing.T) {
				src := &selSource{rows: tc.rows, size: size, schema: sc}
				rowPlan, batchPlan, ctx := groupByPlans(t, tc.nKeys, everyAggregate, NewValues(tc.rows, sc), src)
				got, err := Drain(rowPlan, ctx())
				if err != nil {
					t.Fatal(err)
				}
				assertSameValues(t, got, want)
				if got, err = Drain(batchPlan, ctx()); err != nil {
					t.Fatal(err)
				}
				assertSameValues(t, got, want)
			})
		}
	}
}

// TestGroupTableAbsorbMatchesReference fills one group table per slice of
// the input, as parallel workers do, absorbs the others into the first and
// compares the result with the reference over the whole input: a group
// keeps the place where its key first appears. Values are integers so that
// merged sums are exact.
func TestGroupTableAbsorbMatchesReference(t *testing.T) {
	intValued := func(rows []storage.Row) []storage.Row {
		for i, r := range rows {
			if v := r[2]; v.Kind() == sqltypes.KindFloat {
				rows[i] = storage.Row{r[0], r[1], sqltypes.NewInt(int64(v.Float() * 10))}
			}
		}
		return rows
	}
	specs := make([]*AggSpec, len(mergeableAggregates))
	for i, a := range mergeableAggregates {
		specs[i] = &AggSpec{Func: a.fn}
		if a.arg {
			specs[i].Args = make([]Evaluator, 1)
		}
	}
	for _, tc := range groupByCases() {
		t.Run(tc.name, func(t *testing.T) {
			rows := intValued(tc.rows)
			want := referenceGroupBy(rows, tc.nKeys, mergeableAggregates)
			// Slices of unequal length, one of them empty.
			cuts := []int{0, len(rows) / 5, len(rows) / 5, len(rows) * 3 / 4, len(rows)}
			var tables []*groupTable
			for s := 1; s < len(cuts); s++ {
				part := rows[cuts[s-1]:cuts[s]]
				gt := newGroupTable(specs, tc.nKeys)
				keys := make([][]sqltypes.Value, tc.nKeys)
				for k := range keys {
					for _, r := range part {
						keys[k] = append(keys[k], r[k])
					}
				}
				var vs []sqltypes.Value
				for _, r := range part {
					vs = append(vs, r[2])
				}
				args := make([][][]sqltypes.Value, len(specs))
				for i, sp := range specs {
					if len(sp.Args) > 0 {
						args[i] = [][]sqltypes.Value{vs}
					}
				}
				if err := gt.add(NewCtx(nil), len(part), nil, keys, args); err != nil {
					t.Fatal(err)
				}
				tables = append(tables, gt)
			}
			for _, gt := range tables[1:] {
				if err := tables[0].absorb(gt); err != nil {
					t.Fatal(err)
				}
			}
			got, err := tables[0].rows(NewCtx(nil), tc.nKeys == 0)
			if err != nil {
				t.Fatal(err)
			}
			assertSameValues(t, got, want)
		})
	}
}

// TestParallelGroupByKeepsSerialOrder runs a grouped aggregation serially
// and as the parallel group-by at degree 4 over several morsels. Every
// morsel meets the keys in the same order, so each worker's table holds
// them in global first-seen order and the merged result must equal the
// serial one row for row, order included.
func TestParallelGroupByKeepsSerialOrder(t *testing.T) {
	const keys = 97
	n := 5*MorselRows + 123
	rows := make([]storage.Row, n)
	for i := range rows {
		rows[i] = storage.Row{
			sqltypes.NewInt(int64(i%MorselRows) % keys),
			sqltypes.Null,
			sqltypes.NewInt(int64(i%23 - 11)),
		}
	}
	tab := newTestTable(t, "t", []string{"k1", "k2", "v"}, rows)
	sc := schema2("k1", "k2", "v")
	_, serial, ctx := groupByPlans(t, 1, mergeableAggregates, nil, NewBatchScan(tab, sc))
	want, err := Drain(serial, ctx())
	if err != nil {
		t.Fatal(err)
	}
	if len(want) != keys {
		t.Fatalf("serial group-by returned %d groups, want %d", len(want), keys)
	}
	assertSameValues(t, want, referenceGroupBy(rows, 1, mergeableAggregates))
	par := parallelPair(t, serial)
	if _, ok := par.(*parallelGroupBy); !ok {
		t.Fatalf("expected parallelGroupBy root, got %T", par)
	}
	for run := 0; run < 3; run++ {
		got, err := Drain(par, ctx())
		if err != nil {
			t.Fatal(err)
		}
		assertSameValues(t, got, want)
	}
}

// drainLen drains a plan through its batch path (its row path for a row
// operator) and returns the row count, keeping no rows.
func drainLen(t *testing.T, n Node, ctx *Ctx) int {
	count := 0
	if _, ok := n.(BatchNode); !ok {
		it, err := OpenRows(n, ctx)
		if err != nil {
			t.Fatal(err)
		}
		defer it.Close()
		for {
			_, ok, err := it.Next()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				return count
			}
			count++
		}
	}
	bi, err := OpenBatches(n, ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer bi.Close()
	for {
		b, ok, err := bi.NextBatch(DefaultBatchSize)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			return count
		}
		count += b.Len()
	}
}

// TestBatchGroupByAllocsPerGroup aggregates 90 000 rows into 9 000 integer
// groups with count, sum, min, max and avg. A group owns no heap object:
// the allocations are the table's vectors, which double, and a fixed set
// per execution, so they must not grow with the group count.
func TestBatchGroupByAllocsPerGroup(t *testing.T) {
	const nRows, nGroups = 90_000, 9_000
	rows := make([]storage.Row, nRows)
	for i := range rows {
		rows[i] = storage.Row{sqltypes.NewInt(int64(i % nGroups)), sqltypes.Null, sqltypes.NewInt(int64(i))}
	}
	tab := newTestTable(t, "t", []string{"k1", "k2", "v"}, rows)
	_, plan, ctx := groupByPlans(t, 1, mergeableAggregates, nil, NewBatchScan(tab, schema2("k1", "k2", "v")))
	c := ctx()
	groups := 0
	allocs := testing.AllocsPerRun(3, func() { groups = drainLen(t, plan, c) })
	if groups != nGroups {
		t.Fatalf("group-by returned %d groups, want %d", groups, nGroups)
	}
	t.Logf("%.0f allocations for %d groups", allocs, nGroups)
	if perGroup := allocs / nGroups; perGroup >= 0.01 {
		t.Fatalf("%.0f allocations for %d groups (%.4f per group), want < 0.01 per group", allocs, nGroups, perGroup)
	}
}

// TestScalarGroupByAllocs gates the fixed cost of one keyless aggregation,
// which iterative mode pays once per UDF call. The bounds are what the
// group table with a heap object per group allocated in this test (16 on
// the row HashAgg, 41 on BatchGroupBy); the column table must not
// allocate more.
func TestScalarGroupByAllocs(t *testing.T) {
	none := func(int) sqltypes.Value { return sqltypes.Null }
	rows := groupByInput(5, none, none)
	tab := newTestTable(t, "t", []string{"k1", "k2", "v"}, rows)
	sc := schema2("k1", "k2", "v")
	rowPlan, batchPlan, ctx := groupByPlans(t, 0, mergeableAggregates, NewTableScan(tab, sc), NewBatchScan(tab, sc))
	for _, tc := range []struct {
		plan Node
		max  float64
	}{{rowPlan, 16}, {batchPlan, 41}} {
		c := ctx()
		allocs := testing.AllocsPerRun(20, func() {
			if n := drainLen(t, tc.plan, c); n != 1 {
				t.Fatalf("scalar aggregation returned %d rows, want 1", n)
			}
		})
		t.Logf("%T: %.0f allocations", tc.plan, allocs)
		if allocs > tc.max {
			t.Errorf("%T: %.0f allocations per execution, want at most %.0f", tc.plan, allocs, tc.max)
		}
	}
}
