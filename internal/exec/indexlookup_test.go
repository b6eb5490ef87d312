package exec

import (
	"testing"

	"udfdecorr/internal/catalog"
	"udfdecorr/internal/sqltypes"
	"udfdecorr/internal/storage"
)

func constKey(v sqltypes.Value) Evaluator {
	return func(*Ctx, storage.Row) (sqltypes.Value, error) { return v, nil }
}

// TestIndexLookupSnapshotAndOverlay: an IndexLookup answers from its pinned
// snapshot's version of the shared index (rows appended after the snapshot
// stay invisible even once a newer probe has indexed them), then appends
// the matching uncommitted transaction-overlay rows.
func TestIndexLookupSnapshotAndOverlay(t *testing.T) {
	store := storage.NewStore()
	tab, err := store.CreateTable(&catalog.Table{Name: "t", Cols: []catalog.Column{
		{Name: "a", Type: sqltypes.KindInt}, {Name: "b", Type: sqltypes.KindInt},
	}, PKCols: []string{"a"}})
	if err != nil {
		t.Fatal(err)
	}
	if err := tab.Append(intRow(1, 10), intRow(2, 20), intRow(1, 11)); err != nil {
		t.Fatal(err)
	}
	snap := store.Snapshot()
	if err := tab.Append(intRow(1, 12), intRow(3, 30)); err != nil {
		t.Fatal(err)
	}
	lookup := NewIndexLookup(tab, "a", constKey(sqltypes.NewInt(1)), schema2("a", "b"))

	bValues := func(ctx *Ctx) []int64 {
		t.Helper()
		rows, err := Drain(lookup, ctx)
		if err != nil {
			t.Fatal(err)
		}
		out := make([]int64, len(rows))
		for i, r := range rows {
			out[i] = r[1].Int()
		}
		return out
	}
	check := func(name string, got []int64, want ...int64) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: b = %v, want %v", name, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: b = %v, want %v", name, got, want)
			}
		}
	}

	check("current", bValues(NewCtx(nil)), 10, 11, 12)
	pinned := NewCtx(nil)
	pinned.SetSnapshot(snap, map[*storage.Table][]storage.Row{
		tab: {intRow(1, 99), intRow(4, 40), {sqltypes.Null, sqltypes.NewInt(50)}},
	})
	check("snapshot + overlay", bValues(pinned), 10, 11, 99)

	nullKey := NewIndexLookup(tab, "a", constKey(sqltypes.Null), schema2("a", "b"))
	if rows, err := Drain(nullKey, pinned); err != nil || len(rows) != 0 {
		t.Fatalf("NULL key: %d rows, err %v", len(rows), err)
	}
	unknown := NewIndexLookup(tab, "nosuch", constKey(sqltypes.NewInt(1)), schema2("a", "b"))
	if _, err := Drain(unknown, NewCtx(nil)); err == nil {
		t.Fatal("lookup on an unknown column must fail")
	}
}

// TestNarrowedIndexLookup: a projection folded into an IndexLookup keeps
// its column order and names, copies only the picked columns from the
// segments and from the row view alike, narrows the transaction overlay's
// matches the same way, and counts the rows it emits as the projection
// did.
func TestNarrowedIndexLookup(t *testing.T) {
	store := storage.NewStore()
	tab, err := store.CreateTable(&catalog.Table{Name: "t", Cols: []catalog.Column{
		{Name: "a", Type: sqltypes.KindInt}, {Name: "b", Type: sqltypes.KindInt}, {Name: "c", Type: sqltypes.KindInt},
	}, PKCols: []string{"c"}})
	if err != nil {
		t.Fatal(err)
	}
	var rows []storage.Row
	for i := int64(0); i < storage.SegmentRows+40; i++ {
		rows = append(rows, intRow(i%7, 10*i, i))
	}
	if err := tab.Append(rows...); err != nil {
		t.Fatal(err)
	}
	lookup := NewIndexLookup(tab, "a", constKey(sqltypes.NewInt(3)), schema2("a", "b", "c"))
	renamed := schema2("cee", "a")
	if !Narrow(lookup, []int{2, 0}, renamed) {
		t.Fatal("Narrow refused an IndexLookup")
	}
	if got := lookup.Schema(); len(got) != 2 || got[0].Name != "cee" || got[1].Name != "a" {
		t.Fatalf("schema = %v, want the projection's renamed columns", got)
	}
	if got := PlanLabel(lookup); got != "IndexLookup(t.a) cols=2/3" {
		t.Fatalf("label = %q", got)
	}
	// Narrow again, as a second projection above the first would.
	twice := NewIndexLookup(tab, "a", constKey(sqltypes.NewInt(3)), schema2("a", "b", "c"))
	Narrow(twice, []int{2, 1, 0}, schema2("c", "b", "a"))
	Narrow(twice, []int{2}, schema2("a"))

	var want []storage.Row
	for _, r := range rows {
		if r[0].Int() == 3 {
			want = append(want, intRow(r[2].Int(), 3))
		}
	}
	drain := func(n Node, ctx *Ctx) []storage.Row {
		t.Helper()
		got, err := Drain(n, ctx)
		if err != nil {
			t.Fatal(err)
		}
		return got
	}
	ctx := NewCtx(nil)
	fromSegments := drain(lookup, ctx)
	assertIdenticalRows(t, fromSegments, want)
	if ctx.Counters.RowsProcessed != int64(len(want)) {
		t.Fatalf("RowsProcessed = %d, want the %d emitted rows", ctx.Counters.RowsProcessed, len(want))
	}
	for _, r := range fromSegments {
		if len(r) != 2 || cap(r) != 2 {
			t.Fatalf("row %v (cap %d) is not narrowed to two columns", r, cap(r))
		}
	}
	if got := drain(twice, NewCtx(nil)); len(got) != len(want) || len(got[0]) != 1 || got[0][0].Int() != 3 {
		t.Fatalf("twice-narrowed lookup = %v", got)
	}

	tab.Rows() // build the row view: whole rows now come back as views
	assertIdenticalRows(t, drain(lookup, NewCtx(nil)), fromSegments)

	pinned := NewCtx(nil)
	pinned.SetSnapshot(store.Snapshot(), map[*storage.Table][]storage.Row{
		tab: {intRow(3, -1, 900), intRow(4, -2, 901)},
	})
	got := drain(lookup, pinned)
	last := got[len(got)-1]
	if len(got) != len(want)+1 || len(last) != 2 || last[0].Int() != 900 || last[1].Int() != 3 {
		t.Fatalf("overlay match = %v (of %d rows), want [900 3] after the %d committed rows", last, len(got), len(want))
	}
}
