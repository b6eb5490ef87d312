package storage

import (
	"testing"

	"udfdecorr/internal/catalog"
	"udfdecorr/internal/sqltypes"
)

// referenceStats computes a column's statistics with no fast path: min and
// max under sqltypes.TotalCompare, and every non-NULL value's encoded key
// into one set capped at maxDistinct.
func referenceStats(vals []sqltypes.Value) ColStats {
	st := ColStats{Min: sqltypes.Null, Max: sqltypes.Null}
	seen := map[string]bool{}
	for _, v := range vals {
		if v.IsNull() {
			continue
		}
		if st.Min.IsNull() || sqltypes.TotalCompare(v, st.Min) < 0 {
			st.Min = v
		}
		if st.Max.IsNull() || sqltypes.TotalCompare(v, st.Max) > 0 {
			st.Max = v
		}
		if len(seen) < maxDistinct {
			seen[sqltypes.KeyOf(v)] = true
		}
	}
	st.DistinctCount = int64(len(seen))
	return st
}

// statsOf loads vals as the single column of a fresh table declared with
// kind and returns the column's statistics.
func statsOf(t *testing.T, kind sqltypes.Kind, vals []sqltypes.Value) ColStats {
	t.Helper()
	tab, err := NewStore().CreateTable(&catalog.Table{Name: "s", Cols: []catalog.Column{{Name: "v", Type: kind}}})
	if err != nil {
		t.Fatal(err)
	}
	rows := make([]Row, len(vals))
	for i, v := range vals {
		rows[i] = Row{v}
	}
	if err := tab.Append(rows...); err != nil {
		t.Fatal(err)
	}
	st, err := tab.Stats("v")
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestStatsDistinctMatchesEncodedKeys pins Stats' integer fast path to the
// encoded-key count and the TotalCompare bounds it replaces, on the columns where the two could part:
// ints equal to floats, ints float64 cannot hold, NULLs, a switch to
// strings midway, the cap on either path, and a switch that arrives only
// after the cap is reached.
func TestStatsDistinctMatchesEncodedKeys(t *testing.T) {
	ints := func(lo, hi int64) []sqltypes.Value {
		var out []sqltypes.Value
		for i := lo; i < hi; i++ {
			out = append(out, sqltypes.NewInt(i%97))
		}
		return out
	}
	const big = int64(1) << 53
	type statsCase struct {
		name string
		kind sqltypes.Kind
		vals []sqltypes.Value
		want int64
	}
	cases := []statsCase{
		{"ints", sqltypes.KindInt, ints(0, 5000), 97},
		{"ints_then_equal_floats", sqltypes.KindInt, append(ints(0, 500),
			sqltypes.NewFloat(3), sqltypes.NewFloat(3.5), sqltypes.NewInt(3), sqltypes.NewFloat(-0.0), sqltypes.NewInt(0)), 98},
		{"floats_then_ints", sqltypes.KindFloat, append([]sqltypes.Value{sqltypes.NewFloat(1), sqltypes.NewFloat(2)},
			ints(0, 10)...), 10},
		{"beyond_2^53", sqltypes.KindInt, []sqltypes.Value{
			sqltypes.NewInt(big), sqltypes.NewInt(big + 1), sqltypes.NewInt(big + 2),
			sqltypes.NewInt(-big - 1), sqltypes.NewInt(1<<62 + 1), sqltypes.NewInt(1 << 62),
			sqltypes.NewFloat(float64(big)), sqltypes.NewFloat(float64(1 << 62))}, 6},
		{"nulls", sqltypes.KindInt, append(ints(0, 300), sqltypes.Null, sqltypes.Null), 97},
		{"all_null", sqltypes.KindInt, []sqltypes.Value{sqltypes.Null, sqltypes.Null}, 0},
		{"strings_midway", sqltypes.KindInt, append(append(ints(0, 200),
			sqltypes.NewString("3"), sqltypes.NewString("x"), sqltypes.Null), ints(50, 400)...), 99},
	}
	var capped, cappedMixed, switchAfterCap []sqltypes.Value
	for i := int64(0); i < maxDistinct+500; i++ {
		capped = append(capped, sqltypes.NewInt(i))
	}
	cappedMixed = append(append(cappedMixed, capped[:maxDistinct-2]...),
		sqltypes.NewString("a"), sqltypes.NewFloat(0.5), sqltypes.NewString("b"), sqltypes.NewInt(-1))
	switchAfterCap = append(append(switchAfterCap, capped...),
		sqltypes.NewFloat(0.5), sqltypes.NewString("a"), sqltypes.NewFloat(-3), sqltypes.NewInt(-7))
	cases = append(cases,
		statsCase{"cap", sqltypes.KindInt, capped, maxDistinct},
		statsCase{"cap_after_switch", sqltypes.KindInt, cappedMixed, maxDistinct},
		statsCase{"switch_after_cap", sqltypes.KindInt, switchAfterCap, maxDistinct})
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			ref := referenceStats(c.vals)
			if ref.DistinctCount != c.want {
				t.Fatalf("encoded-key count = %d, case expects %d", ref.DistinctCount, c.want)
			}
			got := statsOf(t, c.kind, c.vals)
			if got.DistinctCount != c.want {
				t.Fatalf("DistinctCount = %d, want %d (the encoded-key count)", got.DistinctCount, c.want)
			}
			if sqltypes.TotalCompare(got.Min, ref.Min) != 0 || got.Min.Kind() != ref.Min.Kind() ||
				sqltypes.TotalCompare(got.Max, ref.Max) != 0 || got.Max.Kind() != ref.Max.Kind() {
				t.Fatalf("min, max = %v, %v; want %v, %v", got.Min, got.Max, ref.Min, ref.Max)
			}
		})
	}
}

// BenchmarkStatsIntColumn times Stats on a fresh version of a 50 000-row
// int column with 10 000 distinct values (orders.custkey's shape).
func BenchmarkStatsIntColumn(b *testing.B) {
	tab, err := NewStore().CreateTable(intMeta("orders", "custkey", "k"))
	if err != nil {
		b.Fatal(err)
	}
	rows := make([]Row, 50000)
	for i := range rows {
		rows[i] = Row{sqltypes.NewInt(int64(i % 10000)), sqltypes.NewInt(int64(i))}
	}
	if err := tab.Append(rows...); err != nil {
		b.Fatal(err)
	}
	cur := tab.Version()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v := newVersion(tab, cur.segs, cur.n) // no cached stats
		if _, err := v.Stats("custkey"); err != nil {
			b.Fatal(err)
		}
	}
}
