package shard

import (
	"context"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"udfdecorr/internal/plan"
	"udfdecorr/internal/sqltypes"
	"udfdecorr/internal/wire"
)

// partialLegs serves each leg's partial rows as one shard's /stream
// response and opens a cursor on every leg, as the router's scatter does.
func partialLegs(t *testing.T, legs ...[][]string) []*shardStream {
	t.Helper()
	streams := make([]*shardStream, len(legs))
	for i, rows := range legs {
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
			sw := wire.NewStreamWriter(w, wire.StreamHeader{Cols: []string{"partial"}})
			for _, row := range rows {
				_ = sw.Row(row)
			}
			sw.Done(wire.StreamTrailer{})
		}))
		t.Cleanup(ts.Close)
		c := wire.NewClient(ts.URL)
		cur, err := c.Stream(context.Background(), wire.Statement{SQL: "partial"})
		if err != nil {
			t.Fatal(err)
		}
		streams[i] = &shardStream{Cursor: cur, shard: c}
	}
	return streams
}

// mergeSpec is the spec of a GROUP BY over numKeys keys whose output lists
// the keys and then the aggregates, in order.
func mergeSpec(numKeys int, funcs ...string) *plan.MergeSpec {
	spec := &plan.MergeSpec{NumKeys: numKeys}
	for k := 0; k < numKeys; k++ {
		spec.Output = append(spec.Output, plan.OutputCol{Index: k})
		spec.Cols = append(spec.Cols, "k")
	}
	for i, f := range funcs {
		spec.Aggs = append(spec.Aggs, plan.MergeAgg{Func: f})
		spec.Output = append(spec.Output, plan.OutputCol{IsAgg: true, Index: i})
		spec.Cols = append(spec.Cols, f)
	}
	return spec
}

func gather(t *testing.T, spec *plan.MergeSpec, legs ...[][]string) ([][]string, error) {
	t.Helper()
	rows, err := gatherMerge(partialLegs(t, legs...), spec)
	if err != nil {
		return nil, err
	}
	defer rows.Close()
	if !reflect.DeepEqual(rows.Cols(), spec.Cols) {
		t.Fatalf("columns %v, want %v", rows.Cols(), spec.Cols)
	}
	var out [][]string
	for {
		row, err := rows.Next()
		if err != nil || row == nil {
			return out, err
		}
		out = append(out, row)
	}
}

func mustGather(t *testing.T, spec *plan.MergeSpec, want [][]string, legs ...[][]string) {
	t.Helper()
	got, err := gather(t, spec, legs...)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("merged %v, want %v", got, want)
	}
}

// TestGatherMergeAvgWeighting: a global avg weights each shard by its row
// count. Shard A has 2 rows summing 10, shard B 8 rows summing 70: the avg
// is 80/10 = 8, while the average of the shard averages is 6.875.
func TestGatherMergeAvgWeighting(t *testing.T) {
	mustGather(t, mergeSpec(0, "avg"), [][]string{{"8"}},
		[][]string{{"10", "2"}}, [][]string{{"70", "8"}})
}

// TestGatherMergeAvgEmptyShard: a shard with no non-NULL values ships a
// NULL sum and a zero count, which must not disturb the avg; when every
// shard is empty the avg is NULL.
func TestGatherMergeAvgEmptyShard(t *testing.T) {
	spec := mergeSpec(0, "avg")
	mustGather(t, spec, [][]string{{"2"}}, [][]string{{"NULL", "0"}}, [][]string{{"6", "3"}})
	mustGather(t, spec, [][]string{{"NULL"}}, [][]string{{"NULL", "0"}}, [][]string{{"NULL", "0"}})
}

// TestGatherMergeCountForms: count(*) and count(x) both merge by adding
// the shard finals. NULL skipping happened on the shard, so a shard that
// counted no non-NULL x contributes 0.
func TestGatherMergeCountForms(t *testing.T) {
	mustGather(t, mergeSpec(0, "count", "count"), [][]string{{"6", "3"}},
		[][]string{{"4", "3"}}, [][]string{{"2", "0"}})
}

// TestGatherMergeMinMaxEmptyShards: empty shards ship NULL finals, which
// min and max skip; over all-empty shards both stay NULL.
func TestGatherMergeMinMaxEmptyShards(t *testing.T) {
	spec := mergeSpec(0, "min", "max")
	mustGather(t, spec, [][]string{{"5", "9"}},
		[][]string{{"NULL", "NULL"}}, [][]string{{"5", "5"}}, [][]string{{"9", "9"}})
	mustGather(t, spec, [][]string{{"NULL", "NULL"}},
		[][]string{{"NULL", "NULL"}}, [][]string{{"NULL", "NULL"}})
}

// TestGatherMergeSumNullSkip: sum skips an empty shard's NULL and stays
// NULL when every shard was empty.
func TestGatherMergeSumNullSkip(t *testing.T) {
	spec := mergeSpec(0, "sum")
	mustGather(t, spec, [][]string{{"7"}}, [][]string{{"NULL"}}, [][]string{{"7"}})
	mustGather(t, spec, [][]string{{"NULL"}}, [][]string{{"NULL"}})
}

// TestGatherMergeGroups: one group's partials come from several legs and
// merge into one row; groups come out in first-seen order, NULL keys form
// one group, and the output follows the query's projection order, which
// here leaves the sum out.
func TestGatherMergeGroups(t *testing.T) {
	spec := mergeSpec(2, "sum", "avg", "count")
	// select avg(v), k2, count(*), k1 ... group by k1, k2, with a sum(v)
	// that the projection drops.
	spec.Output = []plan.OutputCol{{IsAgg: true, Index: 1}, {Index: 1}, {IsAgg: true, Index: 2}, {Index: 0}}
	spec.Cols = []string{"avg", "k2", "count", "k1"}
	mustGather(t, spec, [][]string{
		{"3", "2.5", "3", "'b'"},
		{"2", "NULL", "3", "NULL"},
		{"2.5", "1", "4", "'a'"},
	},
		// k1, k2, sum, avg's sum and count, count(*)
		[][]string{{"'b'", "2.5", "3", "3", "1", "1"}, {"NULL", "NULL", "1", "NULL", "0", "2"}},
		[][]string{{"'a'", "1", "10", "10", "4", "4"}, {"'b'", "2.5", "6", "6", "2", "2"}, {"NULL", "NULL", "3", "4", "2", "1"}},
	)
}

// TestGatherMergeRowWidth: avg ships two partial cells, so a row with the
// wrong count is an error naming its leg, not a silent misalignment.
func TestGatherMergeRowWidth(t *testing.T) {
	spec := mergeSpec(1, "avg", "sum")
	for _, bad := range [][]string{{"1", "2", "3"}, {"1", "2", "3", "4", "5"}} {
		_, err := gather(t, spec, [][]string{{"1", "2", "3", "4"}}, [][]string{bad})
		if err == nil || !strings.Contains(err.Error(), "scatter leg 1") {
			t.Errorf("partial row %v: got %v, want an error naming scatter leg 1", bad, err)
		}
	}
	if _, err := gather(t, mergeSpec(0, "median"), [][]string{{"1"}}); err == nil {
		t.Error("an aggregate with no merge function did not error")
	}
}

// TestParseCellRoundTrip pins the merge's parse against the text a shard
// writes (sqltypes.Value.AppendText): a cell parses back to the value it
// was written from. The text carries no kind, so a float written without a
// fraction or exponent (here -0) comes back as the equal INT.
func TestParseCellRoundTrip(t *testing.T) {
	f, i := sqltypes.NewFloat, sqltypes.NewInt
	for _, tc := range []struct{ v, want sqltypes.Value }{
		{sqltypes.Null, sqltypes.Null},
		{i(math.MaxInt64), i(math.MaxInt64)},
		{i(math.MaxInt64 - 1), i(math.MaxInt64 - 1)},
		{i(math.MinInt64), i(math.MinInt64)},
		{i(math.MinInt64 + 1), i(math.MinInt64 + 1)},
		{i(0), i(0)},
		{f(0.1), f(0.1)},
		{f(-2.5e-7), f(-2.5e-7)},
		{f(math.Inf(1)), f(math.Inf(1))},
		{f(math.Inf(-1)), f(math.Inf(-1))},
		{f(5e-324), f(5e-324)},
		{f(math.MaxFloat64), f(math.MaxFloat64)},
		{f(1 << 63), f(1 << 63)},
		{f(math.Copysign(0, -1)), i(0)},
		{sqltypes.NewString("it's"), sqltypes.NewString("it's")},
		{sqltypes.NewBool(true), sqltypes.NewBool(true)},
	} {
		text := string(tc.v.AppendText(nil))
		got, err := parseCell(text)
		if err != nil {
			t.Errorf("parseCell(%q): %v", text, err)
			continue
		}
		if got.Kind() != tc.want.Kind() || got.String() != tc.want.String() || !sqltypes.Equal(got, tc.v) && !tc.v.IsNull() {
			t.Errorf("parseCell(%q) = %s %s, want %s %s", text, got.Kind(), got, tc.want.Kind(), tc.want)
		}
	}
}
