package storage

// Shared-index tests: one append-only hash index per (table, column) must
// answer every version's probe exactly as a linear scan of that version
// would, however writers extend the table and whichever versions readers
// have pinned.

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"udfdecorr/internal/catalog"
	"udfdecorr/internal/sqltypes"
)

func indexMeta(name string) *catalog.Table {
	return &catalog.Table{
		Name: name,
		Cols: []catalog.Column{
			{Name: "k", Type: sqltypes.KindInt},
			{Name: "s", Type: sqltypes.KindString},
		},
		PKCols:  []string{"k"},
		Indexes: []string{"s"},
	}
}

// indexRow is the fixture row at ordinal o: few distinct keys per column (so
// buckets hold duplicates spread over many segments) and some NULLs.
func indexRow(o int) Row {
	k, s := sqltypes.NewInt(int64(o*7919%61)), sqltypes.NewString(string(rune('a'+o%17)))
	if o%13 == 0 {
		k = sqltypes.Null
	}
	if o%29 == 0 {
		s = sqltypes.Null
	}
	return Row{k, s}
}

// migratingRow is indexRow with a column k that changes kind as the table
// grows: ints alone below SegmentRows, then also floats equal to ints
// (which an integer index keeps), and from 2*SegmentRows also fractional
// floats and strings, which move the index to encoded keys.
func migratingRow(o int) Row {
	r := indexRow(o)
	if r[0].IsNull() || o < SegmentRows {
		return r
	}
	k := r[0].Int()
	switch {
	case o%4 == 1:
		r[0] = sqltypes.NewFloat(float64(k))
	case o < 2*SegmentRows:
	case o%4 == 2:
		r[0] = sqltypes.NewFloat(float64(k) + 0.5)
	case o%4 == 3:
		r[0] = sqltypes.NewString(fmt.Sprint(k))
	}
	return r
}

func indexCols(rowAt func(int) Row, lo, hi int) [][]sqltypes.Value {
	cols := [][]sqltypes.Value{make([]sqltypes.Value, 0, hi-lo), make([]sqltypes.Value, 0, hi-lo)}
	for o := lo; o < hi; o++ {
		r := rowAt(o)
		cols[0] = append(cols[0], r[0])
		cols[1] = append(cols[1], r[1])
	}
	return cols
}

func indexRows(rowAt func(int) Row, lo, hi int) []Row {
	rows := make([]Row, 0, hi-lo)
	for o := lo; o < hi; o++ {
		rows = append(rows, rowAt(o))
	}
	return rows
}

// scanFor is the reference: the ordinals of v whose column ord equals key,
// by a linear scan of v's own segments.
func scanFor(v *TableVersion, ord int, key sqltypes.Value) []int {
	if key.IsNull() {
		return nil
	}
	want := sqltypes.KeyOf(key)
	var out []int
	var buf []byte
	o := 0
	for _, seg := range v.Segments() {
		for _, val := range seg.Col(ord)[:seg.Len()] {
			if buf = sqltypes.EncodeKey(buf[:0], val); !val.IsNull() && string(buf) == want {
				out = append(out, o)
			}
			o++
		}
	}
	return out
}

// randomProbe picks a column and a key: present or absent values, an INT
// column probed with an equal FLOAT, a fraction or a string, or NULL.
func randomProbe(rng *rand.Rand) (string, int, sqltypes.Value) {
	if rng.Intn(2) == 0 {
		switch rng.Intn(10) {
		case 0:
			return "k", 0, sqltypes.Null
		case 1:
			return "k", 0, sqltypes.NewFloat(float64(rng.Intn(61)))
		case 2:
			return "k", 0, sqltypes.NewFloat(float64(rng.Intn(61)) + 0.5)
		case 3:
			return "k", 0, sqltypes.NewString(fmt.Sprint(rng.Intn(61)))
		default:
			return "k", 0, sqltypes.NewInt(int64(rng.Intn(70)))
		}
	}
	if rng.Intn(10) == 0 {
		return "s", 1, sqltypes.Null
	}
	return "s", 1, sqltypes.NewString(string(rune('a' + rng.Intn(20))))
}

func checkLookup(t *testing.T, v *TableVersion, col string, ord int, key sqltypes.Value) bool {
	t.Helper()
	got, err := v.Lookup(col, key)
	if err != nil {
		t.Error(err)
		return false
	}
	want := scanFor(v, ord, key)
	if len(got) != len(want) {
		t.Errorf("%d-row version: Lookup(%s = %v) has %d ordinals, scan has %d", v.RowCount(), col, key, len(got), len(want))
		return false
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("%d-row version: Lookup(%s = %v)[%d] = %d, scan says %d", v.RowCount(), col, key, i, got[i], want[i])
			return false
		}
	}
	return true
}

// TestSharedIndexMatchesScanUnderMVCC is the shared index's property test
// (run it under -race): one writer extends a table through Append,
// AppendBatch and AppendCols — unaligned chunks and segment-aligned
// zero-copy installs — while readers probe random older and newer versions
// and compare every answer with a linear scan of the probed version.
func TestSharedIndexMatchesScanUnderMVCC(t *testing.T) {
	checkSharedIndexUnderMVCC(t, indexRow)
}

// TestSharedIndexMigratesUnderProbes runs the property test on a column
// whose index is built while every value is an int and which later gains
// floats equal to ints, fractional floats and strings: the index moves to
// encoded keys mid-life while readers probe, and every version must still
// answer as its scan does, NULL rows never among the answers.
func TestSharedIndexMigratesUnderProbes(t *testing.T) {
	checkSharedIndexUnderMVCC(t, migratingRow)
}

// checkSharedIndexUnderMVCC writes the rows rowAt gives, ordinal by
// ordinal, while readers probe, and checks every probe against a scan.
func checkSharedIndexUnderMVCC(t *testing.T, rowAt func(int) Row) {
	s := NewStore()
	tab, err := s.CreateTable(indexMeta("t"))
	if err != nil {
		t.Fatal(err)
	}
	var (
		histMu  sync.Mutex
		history = []*TableVersion{tab.Version()}
		done    atomic.Bool
		checks  atomic.Int64
		readers atomic.Int32
		wg      sync.WaitGroup
	)
	// publish records the writer's latest version, then waits until the
	// readers have made a few probes, so every version is probed while
	// the writer is still extending the table.
	publish := func() {
		histMu.Lock()
		history = append(history, tab.Version())
		histMu.Unlock()
		for want := checks.Load() + 8; checks.Load() < want && readers.Load() > 0; {
			runtime.Gosched()
		}
	}

	const target = 3*SegmentRows + 500
	readers.Store(4)
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer done.Store(true)
		rng := rand.New(rand.NewSource(1))
		n, aligned := 0, 0
		for n < target {
			var err error
			switch op := rng.Intn(40); {
			case op == 0 || (aligned == 0 && n >= 2*SegmentRows):
				aligned++
				// Fill to the segment boundary, then install a whole
				// segment zero-copy.
				if fill := (SegmentRows - n%SegmentRows) % SegmentRows; fill > 0 {
					if err = tab.AppendCols(indexCols(rowAt, n, n+fill), fill); err != nil {
						break
					}
					n += fill
					publish()
				}
				cols := indexCols(rowAt, n, n+SegmentRows)
				if err = tab.AppendCols(cols, SegmentRows); err != nil {
					break
				}
				n += SegmentRows
				segs := tab.Version().Segments()
				if &segs[len(segs)-1].Col(0)[0] != &cols[0][0] {
					t.Error("aligned AppendCols did not install its vectors zero-copy")
				}
			case op < 16:
				sz := 1 + rng.Intn(40)
				err = tab.Append(indexRows(rowAt, n, n+sz)...)
				n += sz
			case op < 28:
				sz := 1 + rng.Intn(40)
				err = s.AppendBatch([]TableWrite{{Table: tab, Rows: indexRows(rowAt, n, n+sz)}})
				n += sz
			default:
				sz := 1 + rng.Intn(200)
				err = tab.AppendCols(indexCols(rowAt, n, n+sz), sz)
				n += sz
			}
			if err != nil {
				t.Error(err)
				return
			}
			publish()
		}
	}()

	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			defer readers.Add(-1)
			rng := rand.New(rand.NewSource(seed))
			for !done.Load() {
				v := tab.Version()
				if rng.Intn(2) == 0 {
					histMu.Lock()
					v = history[rng.Intn(len(history))]
					histMu.Unlock()
				}
				col, ord, key := randomProbe(rng)
				if !checkLookup(t, v, col, ord, key) {
					return
				}
				checks.Add(1)
			}
		}(int64(100 + r))
	}
	wg.Wait()

	// Settled: every published version, oldest first, still answers for
	// its own rows only.
	rng := rand.New(rand.NewSource(2))
	for _, v := range history {
		col, ord, key := randomProbe(rng)
		if !checkLookup(t, v, col, ord, key) {
			return
		}
	}
	if got := tab.RowCount(); got < target {
		t.Fatalf("writer stopped at %d rows", got)
	}
}

// TestSharedIndexAfterPartialTailResync covers a table whose version was
// installed from checkpoint segments ending in a partial tail: the first
// append re-syncs the writer's tail by copying those rows, and the shared
// index — built on the installed version — must extend across the copy.
func TestSharedIndexAfterPartialTailResync(t *testing.T) {
	tab := NewTable(indexMeta("t"))
	const m = 100
	n := SegmentRows + m
	segs := []*Segment{
		NewSegment(indexCols(indexRow, 0, SegmentRows), SegmentRows),
		NewSegment(indexCols(indexRow, SegmentRows, n), m),
	}
	installed := newVersion(tab, segs, n)
	tab.version.Store(installed)
	for key := int64(0); key < 61; key += 6 {
		checkLookup(t, installed, "k", 0, sqltypes.NewInt(key))
	}

	if err := tab.Append(indexRows(indexRow, n, n+40)...); err != nil {
		t.Fatal(err)
	}
	if err := tab.AppendCols(indexCols(indexRow, n+40, n+40+SegmentRows), SegmentRows); err != nil {
		t.Fatal(err)
	}
	cur := tab.Version()
	if cur.RowCount() != n+40+SegmentRows {
		t.Fatalf("rows = %d", cur.RowCount())
	}
	for key := int64(0); key < 61; key++ {
		checkLookup(t, cur, "k", 0, sqltypes.NewInt(key))
		checkLookup(t, installed, "k", 0, sqltypes.NewInt(key))
	}
	for c := 'a'; c < 'a'+17; c++ {
		checkLookup(t, cur, "s", 1, sqltypes.NewString(string(c)))
	}
}

// TestIndexHashesOnlyAppendedRows pins the index's cost: after the first
// probe, K rounds of "append 32 rows, look one key up" on an R-row table
// hash exactly the K×32 appended rows. Rebuilding an index per version
// would hash about K×R.
func TestIndexHashesOnlyAppendedRows(t *testing.T) {
	const (
		r      = 2*SegmentRows + 100
		rounds = 20
		batch  = 32
	)
	tab := NewTable(indexMeta("t"))
	if err := tab.Append(indexRows(indexRow, 0, r)...); err != nil {
		t.Fatal(err)
	}
	if _, err := tab.Version().Lookup("k", sqltypes.NewInt(5)); err != nil {
		t.Fatal(err)
	}
	before := IndexRowsHashed()
	n := r
	for i := 0; i < rounds; i++ {
		if err := tab.Append(indexRows(indexRow, n, n+batch)...); err != nil {
			t.Fatal(err)
		}
		n += batch
		checkLookup(t, tab.Version(), "k", 0, sqltypes.NewInt(int64(i)))
	}
	if got := IndexRowsHashed() - before; got != rounds*batch {
		t.Fatalf("index hashed %d rows over %d rounds of %d appended rows, want %d",
			got, rounds, batch, rounds*batch)
	}
}
