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
