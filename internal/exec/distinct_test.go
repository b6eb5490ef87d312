package exec

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"udfdecorr/internal/sqltypes"
	"udfdecorr/internal/storage"
)

// distinctStream is a seeded stream of rows over the key edge cases of
// sqltypes.KeyIndex: ints at ±2^53 and the int64 limits, integral floats
// (-0.0 among them) that must equal their ints, fractional floats, a float
// past int64, NULLs, strings and bools.
type distinctStream struct {
	name    string
	numeric bool // every value is a number or NULL, so sum applies
	rows    []storage.Row
}

func distinctStreams() []distinctStream {
	I, F, S, B, N := sqltypes.NewInt, sqltypes.NewFloat, sqltypes.NewString, sqltypes.NewBool, sqltypes.Null
	ints := []sqltypes.Value{I(0), I(1), I(-1), I(3), I(1<<53 - 1), I(1 << 53), I(1<<53 + 1),
		I(-(1<<53 - 1)), I(-(1 << 53)), I(-(1<<53 + 1)), I(math.MaxInt64), I(math.MaxInt64 - 1),
		I(math.MinInt64), I(math.MinInt64 + 1), F(math.Copysign(0, -1)), F(1), F(3), F(1 << 53),
		F(-(1 << 63)), N}
	fractions := []sqltypes.Value{F(0.5), F(-2.5), F(1 << 63), F(3.25), N}
	others := []sqltypes.Value{S("a"), S("b"), S(""), S("3"), B(true), B(false), N}
	r := rand.New(rand.NewSource(69))
	pick := func(sets ...[]sqltypes.Value) sqltypes.Value {
		set := sets[r.Intn(len(sets))]
		return set[r.Intn(len(set))]
	}
	stream := func(width int, value func(i, n int) sqltypes.Value) []storage.Row {
		const n = 2500
		rows := make([]storage.Row, n)
		for i := range rows {
			rows[i] = make(storage.Row, width)
			for c := range rows[i] {
				rows[i][c] = value(i, n)
			}
		}
		return rows
	}
	return []distinctStream{
		{"ints", true, stream(1, func(int, int) sqltypes.Value { return pick(ints) })},
		{"numbers", true, stream(1, func(int, int) sqltypes.Value { return pick(ints, fractions) })},
		{"ints_then_strings", false, stream(1, func(i, n int) sqltypes.Value {
			if i < n/2 {
				return pick(ints)
			}
			return pick(others, fractions, ints)
		})},
		{"mixed", false, stream(1, func(int, int) sqltypes.Value { return pick(ints, fractions, others) })},
		{"two_columns", false, stream(2, func(int, int) sqltypes.Value { return pick(ints, fractions, others) })},
	}
}

// referenceDistinct keeps the first row of each KeyOf key, in input order.
func referenceDistinct(rows []storage.Row) []storage.Row {
	seen := map[string]bool{}
	var out []storage.Row
	for _, r := range rows {
		if k := sqltypes.KeyOf(r...); !seen[k] {
			seen[k] = true
			out = append(out, r)
		}
	}
	return out
}

// TestDistinctMatchesReference runs DISTINCT over the edge-case streams on
// both executors: the row Project and the BatchProject (input in batches
// of 1, 7 and 1024 rows with selection vectors) with Dedup must keep the
// first row of each key, and count(distinct v) and sum(distinct v) on the
// row HashAgg and BatchGroupBy, grouped and scalar, must fold each group's
// first value of each key.
func TestDistinctMatchesReference(t *testing.T) {
	for _, st := range distinctStreams() {
		width := len(st.rows[0])
		sc := schema2("a", "b")[:width]
		var exprs []Evaluator
		var vecs []VecFactory
		for _, c := range sc {
			ev, _ := Compile(col(c.Name), sc, nil)
			vec, _ := CompileVec(col(c.Name), sc, nil)
			exprs, vecs = append(exprs, ev), append(vecs, vec)
		}
		want := referenceDistinct(st.rows)
		if len(want) < 10 {
			t.Fatalf("%s: only %d distinct rows", st.name, len(want))
		}
		t.Run(st.name+"/Project", func(t *testing.T) {
			got, err := Drain(NewProject(exprs, true, NewValues(st.rows, sc), sc), NewCtx(nil))
			if err != nil {
				t.Fatal(err)
			}
			assertSameValues(t, got, want)
		})
		for _, size := range []int{1, 7, 1024} {
			t.Run(fmt.Sprintf("%s/BatchProject/batch=%d", st.name, size), func(t *testing.T) {
				src := &selSource{rows: st.rows, size: size, schema: sc}
				assertSameValues(t, drainWithBatchSize(t, NewBatchProject(vecs, true, src, sc), NewCtx(nil), size), want)
			})
		}
		if width != 1 {
			continue
		}
		aggs := []aggDef{{fn: "count", arg: true, distinct: true}}
		if st.numeric {
			aggs = append(aggs, aggDef{fn: "sum", arg: true, distinct: true})
		}
		// Rows (k1, k2, v): three groups by k1, the stream's value as v.
		gsc := schema2("k1", "k2", "v")
		rows := make([]storage.Row, len(st.rows))
		for i, r := range st.rows {
			rows[i] = storage.Row{sqltypes.NewInt(int64(i % 3)), sqltypes.Null, r[0]}
		}
		for nKeys := 0; nKeys <= 1; nKeys++ {
			t.Run(fmt.Sprintf("%s/aggregates/keys=%d", st.name, nKeys), func(t *testing.T) {
				want := referenceGroupBy(rows, nKeys, aggs)
				src := &selSource{rows: rows, size: 7, schema: gsc}
				rowPlan, batchPlan, ctx := groupByPlans(t, nKeys, aggs, NewValues(rows, gsc), src)
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
