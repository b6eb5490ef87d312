package storage

// Columnar storage tests: segment shape invariants, immutability of
// published segments under concurrent append (run under -race in CI), the
// zero-copy AppendCols install path, and the lazy row-major pivot cache.

import (
	"fmt"
	"sync"
	"testing"

	"udfdecorr/internal/catalog"
	"udfdecorr/internal/sqltypes"
)

func intMeta(name string, cols ...string) *catalog.Table {
	m := &catalog.Table{Name: name}
	for _, c := range cols {
		m.Cols = append(m.Cols, catalog.Column{Name: c, Type: sqltypes.KindInt})
	}
	return m
}

func intRows(lo, hi int) []Row {
	rows := make([]Row, 0, hi-lo)
	for i := lo; i < hi; i++ {
		rows = append(rows, Row{sqltypes.NewInt(int64(i)), sqltypes.NewInt(int64(2 * i))})
	}
	return rows
}

// checkSegments asserts the structural invariant of a published version:
// every segment except the last is exactly full, lengths sum to the row
// count, and values match the i -> (i, 2i) fixture.
func checkSegments(t *testing.T, v *TableVersion, wantRows int) {
	t.Helper()
	segs := v.Segments()
	total := 0
	for si, sg := range segs {
		if si < len(segs)-1 && sg.Len() != SegmentRows {
			t.Fatalf("segment %d/%d has %d rows, want full %d", si, len(segs), sg.Len(), SegmentRows)
		}
		if sg.Len() == 0 || sg.Len() > SegmentRows {
			t.Fatalf("segment %d has invalid length %d", si, sg.Len())
		}
		for i := 0; i < sg.Len(); i++ {
			ord := total + i
			if got := sg.Col(0)[i].Int(); got != int64(ord) {
				t.Fatalf("segment %d row %d col 0 = %d, want %d", si, i, got, ord)
			}
			if got := sg.Col(1)[i].Int(); got != int64(2*ord) {
				t.Fatalf("segment %d row %d col 1 = %d, want %d", si, i, got, 2*ord)
			}
		}
		total += sg.Len()
	}
	if total != wantRows || v.RowCount() != wantRows {
		t.Fatalf("segments cover %d rows, RowCount %d, want %d", total, v.RowCount(), wantRows)
	}
}

func TestSegmentShapeInvariants(t *testing.T) {
	tab := NewTable(intMeta("t", "a", "b"))
	// Odd-sized batches that straddle segment boundaries repeatedly.
	sizes := []int{1, SegmentRows - 2, 5, SegmentRows, SegmentRows/2 + 3, 7}
	n := 0
	for _, sz := range sizes {
		if err := tab.Append(intRows(n, n+sz)...); err != nil {
			t.Fatal(err)
		}
		n += sz
		checkSegments(t, tab.Version(), n)
	}
}

func TestPublishedSegmentsImmutableUnderConcurrentAppend(t *testing.T) {
	tab := NewTable(intMeta("t", "a", "b"))
	const batches, per = 64, 257 // deliberately misaligned with SegmentRows
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				v := tab.Version()
				n := v.RowCount()
				// Re-walk the pinned version: every visible value must match
				// the fixture no matter how far the writer has advanced. The
				// race detector additionally proves no published slot is
				// written concurrently.
				seen := 0
				for _, sg := range v.Segments() {
					for i := 0; i < sg.Len(); i++ {
						if got := sg.Col(0)[i].Int(); got != int64(seen) {
							panic(fmt.Sprintf("pinned version mutated: row %d = %d", seen, got))
						}
						seen++
					}
				}
				if seen != n {
					panic(fmt.Sprintf("pinned version covers %d rows, RowCount %d", seen, n))
				}
			}
		}()
	}
	n := 0
	for b := 0; b < batches; b++ {
		if err := tab.Append(intRows(n, n+per)...); err != nil {
			t.Fatal(err)
		}
		n += per
	}
	close(stop)
	wg.Wait()
	checkSegments(t, tab.Version(), n)
}

func TestAppendColsZeroCopyInstall(t *testing.T) {
	tab := NewTable(intMeta("t", "a", "b"))
	cols := make([][]sqltypes.Value, 2)
	for c := range cols {
		cols[c] = make([]sqltypes.Value, SegmentRows)
	}
	for i := 0; i < SegmentRows; i++ {
		cols[0][i] = sqltypes.NewInt(int64(i))
		cols[1][i] = sqltypes.NewInt(int64(2 * i))
	}
	if err := tab.AppendCols(cols, SegmentRows); err != nil {
		t.Fatal(err)
	}
	segs := tab.Version().Segments()
	if len(segs) != 1 || segs[0].Len() != SegmentRows {
		t.Fatalf("want one full segment, got %d segments", len(segs))
	}
	// Segment-aligned install must alias the caller's vectors, not copy.
	if &segs[0].Col(0)[0] != &cols[0][0] {
		t.Fatal("aligned AppendCols copied the column vector instead of installing it")
	}
	checkSegments(t, tab.Version(), SegmentRows)
}

func TestAppendColsUnaligned(t *testing.T) {
	tab := NewTable(intMeta("t", "a", "b"))
	// Two chunks that individually misalign but together span >1 segment.
	sizes := []int{SegmentRows/2 + 1, SegmentRows}
	n := 0
	for _, sz := range sizes {
		cols := make([][]sqltypes.Value, 2)
		for c := range cols {
			cols[c] = make([]sqltypes.Value, sz)
		}
		for i := 0; i < sz; i++ {
			cols[0][i] = sqltypes.NewInt(int64(n + i))
			cols[1][i] = sqltypes.NewInt(int64(2 * (n + i)))
		}
		if err := tab.AppendCols(cols, sz); err != nil {
			t.Fatal(err)
		}
		n += sz
		checkSegments(t, tab.Version(), n)
	}
	// Arity errors are rejected before anything publishes.
	if err := tab.AppendCols(make([][]sqltypes.Value, 1), 0); err == nil {
		t.Fatal("column arity mismatch must fail")
	}
}

func TestRowPivotCacheAndRowsAt(t *testing.T) {
	tab := NewTable(intMeta("t", "a", "b"))
	n := SegmentRows + 37
	if err := tab.Append(intRows(0, n)...); err != nil {
		t.Fatal(err)
	}
	v := tab.Version()
	// RowsAt before any pivot serves straight from the segments, across a
	// segment boundary, into one arena whose rows cannot grow into each
	// other.
	ords := []int{3, SegmentRows + 5, SegmentRows - 1}
	pivotsBefore := PivotedScans()
	got := v.RowsAt(ords, nil, nil)
	if PivotedScans() != pivotsBefore {
		t.Fatal("RowsAt pivoted the whole table")
	}
	for i, o := range ords {
		if len(got[i]) != 2 || cap(got[i]) != 2 || got[i][0].Int() != int64(o) || got[i][1].Int() != int64(2*o) {
			t.Fatalf("RowsAt row %d = %v (cap %d), want ordinal %d", i, got[i], cap(got[i]), o)
		}
	}
	if allocs := testing.AllocsPerRun(10, func() { v.RowsAt(ords, nil, got[:0]) }); allocs != 1 {
		t.Fatalf("RowsAt allocated %.0f times per call, want one arena", allocs)
	}
	r1 := v.Rows()
	r2 := v.Rows()
	if len(r1) != n {
		t.Fatalf("Rows() = %d rows, want %d", len(r1), n)
	}
	if &r1[0] != &r2[0] {
		t.Fatal("Rows() rebuilt the pivot instead of serving the cache")
	}
	if got := PivotedScans() - pivotsBefore; got != 1 {
		t.Fatalf("pivot counter advanced %d times, want 1", got)
	}
	for i := 0; i < n; i += 111 {
		if r1[i][0].Int() != int64(i) || r1[i][1].Int() != int64(2*i) {
			t.Fatalf("pivoted row %d = %v", i, r1[i])
		}
	}
	// Once the row view is built, RowsAt hands out views into it.
	for i, r := range v.RowsAt(ords, nil, nil) {
		if &r[0] != &r1[ords[i]][0] {
			t.Fatalf("RowsAt row %d is a copy, want a view into the pivot", i)
		}
	}
}

func TestStorageStatsCounts(t *testing.T) {
	s := NewStore()
	st1, err := s.CreateTable(intMeta("t1", "a", "b"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.CreateTable(intMeta("t2", "a", "b")); err != nil {
		t.Fatal(err)
	}
	n := SegmentRows + 10
	if err := st1.Append(intRows(0, n)...); err != nil {
		t.Fatal(err)
	}
	got := s.StorageStats()
	if got.Tables != 2 {
		t.Fatalf("Tables = %d", got.Tables)
	}
	if got.Segments != 2 { // one full + one partial on t1, none on empty t2
		t.Fatalf("Segments = %d", got.Segments)
	}
	if got.Rows != int64(n) {
		t.Fatalf("Rows = %d", got.Rows)
	}
	if got.ColumnBytes <= 0 {
		t.Fatalf("ColumnBytes = %d", got.ColumnBytes)
	}
}

// TestRowsAtNarrowed: RowsAt with a column list copies only those columns,
// in their order, into one arena, before and after the row view is built.
func TestRowsAtNarrowed(t *testing.T) {
	tab := NewTable(intMeta("t", "a", "b"))
	if err := tab.Append(intRows(0, SegmentRows+37)...); err != nil {
		t.Fatal(err)
	}
	v := tab.Version()
	ords := []int{SegmentRows + 5, 3}
	check := func(when string, got []Row) {
		t.Helper()
		for i, o := range ords {
			r := got[i]
			if len(r) != 3 || cap(r) != 3 || r[0].Int() != int64(2*o) || r[1].Int() != int64(o) || r[2].Int() != int64(2*o) {
				t.Fatalf("%s: row %d = %v (cap %d), want ordinal %d's b, a, b", when, i, r, cap(r), o)
			}
		}
	}
	cols := []int{1, 0, 1}
	got := v.RowsAt(ords, cols, nil)
	check("from the segments", got)
	if allocs := testing.AllocsPerRun(10, func() { v.RowsAt(ords, cols, got[:0]) }); allocs != 1 {
		t.Fatalf("RowsAt allocated %.0f times per call, want one arena", allocs)
	}
	v.Rows()
	check("with the row view built", v.RowsAt(ords, cols, nil))
}

// TestSegmentBytes pins the storage gauge for an int segment: one 32-byte
// value per cell and no payload.
func TestSegmentBytes(t *testing.T) {
	tab := NewTable(intMeta("t", "a", "b"))
	if err := tab.Append(intRows(0, 100)...); err != nil {
		t.Fatal(err)
	}
	if got := tab.Version().Segments()[0].Bytes(); got != 100*2*32 {
		t.Fatalf("Bytes() = %d, want %d", got, 100*2*32)
	}
	s := NewSegment([][]sqltypes.Value{{sqltypes.NewString("abc"), sqltypes.Null}}, 2)
	if got := s.Bytes(); got != 2*32+3 {
		t.Fatalf("string segment Bytes() = %d, want %d", got, 2*32+3)
	}
}
