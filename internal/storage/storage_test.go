package storage

import (
	"testing"

	"udfdecorr/internal/catalog"
	"udfdecorr/internal/sqltypes"
)

func testMeta() *catalog.Table {
	return &catalog.Table{
		Name: "t",
		Cols: []catalog.Column{
			{Name: "k", Type: sqltypes.KindInt},
			{Name: "v", Type: sqltypes.KindString},
		},
		PKCols:  []string{"k"},
		Indexes: []string{"v"},
	}
}

func TestAppendAndArity(t *testing.T) {
	tab := NewTable(testMeta())
	if err := tab.Append(Row{sqltypes.NewInt(1), sqltypes.NewString("a")}); err != nil {
		t.Fatal(err)
	}
	if err := tab.Append(Row{sqltypes.NewInt(1)}); err == nil {
		t.Fatal("arity mismatch must fail")
	}
	if tab.RowCount() != 1 {
		t.Errorf("rows = %d", tab.RowCount())
	}
}

func TestIndexLookupAndInvalidation(t *testing.T) {
	tab := NewTable(testMeta())
	for i := int64(0); i < 10; i++ {
		tab.Append(Row{sqltypes.NewInt(i % 3), sqltypes.NewString("x")})
	}
	before := tab.Version()
	key := sqltypes.NewInt(1)
	ords, err := before.Lookup("k", key)
	if err != nil {
		t.Fatal(err)
	}
	if len(ords) != 3 {
		t.Errorf("bucket size = %d", len(ords))
	}
	// The next version's probe sees the new row; the pinned one does not.
	tab.Append(Row{sqltypes.NewInt(1), sqltypes.NewString("y")})
	if ords, _ := tab.Version().Lookup("k", key); len(ords) != 4 || ords[3] != 10 {
		t.Errorf("after append: ordinals %v, want 4 ending in 10", ords)
	}
	if ords, _ := before.Lookup("k", key); len(ords) != 3 {
		t.Errorf("pinned version after append: bucket size = %d", len(ords))
	}
	// 1.0 encodes like 1; NULL matches nothing.
	if ords, _ := tab.Version().Lookup("k", sqltypes.NewFloat(1)); len(ords) != 4 {
		t.Errorf("float probe: bucket size = %d", len(ords))
	}
	if ords, err := tab.Version().Lookup("k", sqltypes.Null); err != nil || len(ords) != 0 {
		t.Errorf("NULL probe = %v, %v", ords, err)
	}
	if _, err := tab.Version().Lookup("nosuch", key); err == nil {
		t.Error("unknown column must fail")
	}
	if _, err := tab.Version().Lookup("nosuch", sqltypes.Null); err == nil {
		t.Error("unknown column must fail even for a NULL key")
	}
}

func TestHasIndexableCol(t *testing.T) {
	tab := NewTable(testMeta())
	if !tab.HasIndexableCol("k") || !tab.HasIndexableCol("v") {
		t.Error("pk and declared index should be indexable")
	}
	if tab.HasIndexableCol("nope") {
		t.Error("unknown column is not indexable")
	}
}

func TestStats(t *testing.T) {
	tab := NewTable(testMeta())
	for i := int64(1); i <= 100; i++ {
		tab.Append(Row{sqltypes.NewInt(i), sqltypes.NewString("s")})
	}
	tab.Append(Row{sqltypes.Null, sqltypes.NewString("s")})
	st, err := tab.Stats("k")
	if err != nil {
		t.Fatal(err)
	}
	if mn, _ := st.Min.AsInt(); mn != 1 {
		t.Errorf("min = %v", st.Min)
	}
	if mx, _ := st.Max.AsInt(); mx != 100 {
		t.Errorf("max = %v", st.Max)
	}
	if st.DistinctCount != 100 {
		t.Errorf("distinct = %d", st.DistinctCount)
	}
	st2, _ := tab.Stats("v")
	if st2.DistinctCount != 1 {
		t.Errorf("distinct(v) = %d", st2.DistinctCount)
	}
}

func TestStore(t *testing.T) {
	s := NewStore()
	if _, err := s.CreateTable(testMeta()); err != nil {
		t.Fatal(err)
	}
	if _, err := s.CreateTable(testMeta()); err == nil {
		t.Error("duplicate table must fail")
	}
	if _, ok := s.Table("T"); !ok {
		t.Error("lookup should be case-insensitive")
	}
	if _, ok := s.Table("zzz"); ok {
		t.Error("missing table should not resolve")
	}
}
