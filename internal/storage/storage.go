// Package storage implements in-memory columnar table storage: immutable
// column-major segments with per-column zones (min/max) that let a bounded
// scan skip segments, hash indexes for equality lookups, and lightweight
// column statistics (row counts and min/max) used by the cost-based planner.
//
// Concurrency model (MVCC): a table's state is an immutable published
// TableVersion reached through an atomic pointer. Readers pin a version (or
// a store-wide Snapshot) and scan it without any locking; writers build the
// next version and install it with a pointer swap. Statistics are cached on
// the version, so an Append can never invalidate them under a running
// query. Hash indexes are not: each (table, column) has one append-only
// index shared by every version, which a probe extends to its version's
// rows and trims to them (see index.go). Appends to the same table
// serialize on a per-table writer lock; version installs additionally
// serialize on a store-wide publish lock so Snapshot observes a consistent
// cut across tables (and a multi-table transaction commit is all-or-nothing
// to every snapshot).
//
// Physical layout: a version's data is a list of immutable column-major
// Segments (see columnar.go). The vectorized executor reads segment column
// vectors zero-copy; the row executor reads a per-version row-major pivot
// built lazily by Rows().
package storage

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"udfdecorr/internal/catalog"
	"udfdecorr/internal/sqltypes"
)

// Row is one tuple.
type Row []sqltypes.Value

// Clone returns a copy of the row.
func (r Row) Clone() Row {
	out := make(Row, len(r))
	copy(out, r)
	return out
}

// Pick returns a new row of r's columns at cols, in that order, or r
// itself when cols is nil.
func (r Row) Pick(cols []int) Row {
	if cols == nil {
		return r
	}
	out := make(Row, len(cols))
	for i, c := range cols {
		out[i] = r[c]
	}
	return out
}

// ColStats holds per-column statistics for selectivity estimation.
type ColStats struct {
	Min, Max      sqltypes.Value
	DistinctCount int64 // approximate
}

// TableVersion is one immutable published state of a table: a column-major
// segment list plus lazily built per-version statistics and row-view
// caches. Successive versions share segments (and the open tail segment's
// backing arrays — writers extend the arrays strictly past every published
// segment bound), so publishing an append is O(batch), not O(table). Index
// probes (Lookup) go through the owning table's shared column indexes.
type TableVersion struct {
	tab  *Table
	segs []*Segment
	n    int

	// mu guards only the cache fields below. The segment data needs no
	// lock: it is immutable for the lifetime of the version.
	mu        sync.RWMutex
	stats     map[string]ColStats
	rowview   []Row // lazily pivoted row-major view (row-executor fallback)
	rowsReady bool
}

func newVersion(tab *Table, segs []*Segment, n int) *TableVersion {
	return &TableVersion{tab: tab, segs: segs, n: n}
}

// Segments returns the version's immutable column-major segments. Every
// segment except possibly the last holds exactly SegmentRows rows, so row
// ordinal o lives at segment o/SegmentRows, offset o%SegmentRows.
func (v *TableVersion) Segments() []*Segment { return v.segs }

// RowCount returns the number of rows in the version.
func (v *TableVersion) RowCount() int { return v.n }

// Rows returns a row-major view of the version, pivoting the column
// segments on first use and caching the result for the version's lifetime
// (first install wins, built outside the lock). This is the compatibility
// path for the row executor, the UDF interpreter, and result adapters; the
// vectorized scan path reads Segments directly and never pays this pivot.
func (v *TableVersion) Rows() []Row {
	v.mu.RLock()
	rv, ready := v.rowview, v.rowsReady
	v.mu.RUnlock()
	if ready {
		return rv
	}
	w := len(v.tab.Meta.Cols)
	rows := make([]Row, v.n)
	arena := make([]sqltypes.Value, v.n*w)
	for i := range rows {
		rows[i] = arena[i*w : (i+1)*w : (i+1)*w]
	}
	base := 0
	for _, seg := range v.segs {
		for c, col := range seg.cols {
			for i := 0; i < seg.n; i++ {
				arena[(base+i)*w+c] = col[i]
			}
		}
		base += seg.n
	}
	v.mu.Lock()
	if v.rowsReady {
		rows = v.rowview
	} else {
		v.rowview, v.rowsReady = rows, true
		NotePivotedScan()
	}
	v.mu.Unlock()
	return rows
}

// RowsAt appends the rows at the given ordinals to dst, each holding the
// columns at cols in that order (nil: every column). Whole rows are views
// into the row view when it is already built (no allocation); otherwise,
// and whenever cols narrows them, they are copied out of their segments
// into one arena for the whole call — index lookups touching a handful of
// ordinals never force a full table pivot.
func (v *TableVersion) RowsAt(ords, cols []int, dst []Row) []Row {
	if cols == nil {
		v.mu.RLock()
		rv, ready := v.rowview, v.rowsReady
		v.mu.RUnlock()
		if ready {
			for _, o := range ords {
				dst = append(dst, rv[o])
			}
			return dst
		}
	}
	w := len(cols)
	if cols == nil {
		w = len(v.tab.Meta.Cols)
	}
	arena := make([]sqltypes.Value, 0, len(ords)*w)
	for _, o := range ords {
		start := len(arena)
		arena = v.segs[o/SegmentRows].AppendRowTo(arena, o%SegmentRows, cols)
		dst = append(dst, Row(arena[start:len(arena):len(arena)]))
	}
	return dst
}

// maxDistinct caps the distinct values Stats counts in one column.
const maxDistinct = 100000

// Stats computes (and caches) statistics for a column. The column scan runs
// outside the lock — segments are immutable, so concurrent readers are
// never stalled behind it; two racing computations are idempotent and the
// first install wins.
func (v *TableVersion) Stats(col string) (ColStats, error) {
	ord := v.tab.Meta.ColIndex(col)
	if ord < 0 {
		return ColStats{}, fmt.Errorf("table %s: no column %q", v.tab.Meta.Name, col)
	}
	v.mu.RLock()
	st, ok := v.stats[col]
	v.mu.RUnlock()
	if ok {
		return st, nil
	}
	// Distinct values count in a KeyIndex, under which an int and an equal
	// float (3 and 3.0) are one value. While every value is an int, min and
	// max compare as ints.
	var keys sqltypes.KeyIndex
	ints := true
	st = ColStats{Min: sqltypes.Null, Max: sqltypes.Null}
	for _, seg := range v.segs {
		vecs := [][]sqltypes.Value{seg.cols[ord]}
		for p, val := range vecs[0][:seg.n] {
			if val.IsNull() {
				continue
			}
			if keys.Len() < maxDistinct {
				keys.Add(vecs, p)
			}
			ints = ints && val.Kind() == sqltypes.KindInt
			if ints {
				i := val.Int()
				if st.Min.IsNull() || i < st.Min.Int() {
					st.Min = val
				}
				if st.Max.IsNull() || i > st.Max.Int() {
					st.Max = val
				}
				continue
			}
			if st.Min.IsNull() || sqltypes.TotalCompare(val, st.Min) < 0 {
				st.Min = val
			}
			if st.Max.IsNull() || sqltypes.TotalCompare(val, st.Max) > 0 {
				st.Max = val
			}
		}
	}
	st.DistinctCount = int64(keys.Len())
	v.mu.Lock()
	if prior, ok := v.stats[col]; ok {
		st = prior
	} else {
		if v.stats == nil {
			v.stats = map[string]ColStats{}
		}
		v.stats[col] = st
	}
	v.mu.Unlock()
	return st, nil
}

// Table is an in-memory table whose state is an atomically published
// immutable version. Readers are always lock-free: Rows/Version/RowCount
// pin whatever version is current. Append is safe to run concurrently with
// any number of readers.
type Table struct {
	Meta *catalog.Table

	version atomic.Pointer[TableVersion]

	// appendMu serializes writers to this table: the writer holding it owns
	// the open tail segment's backing arrays (tail/tailLen below), the right
	// to extend them past the published bounds, and the right to install the
	// next version.
	appendMu sync.Mutex

	// tail is the open tail segment's backing: one array of capacity
	// SegmentRows per column, of which the first tailLen values are
	// published. Guarded by appendMu; see columnar.go.
	tail    [][]sqltypes.Value
	tailLen int

	// indexes holds one lazily built hash index per column, shared by every
	// version (see index.go). Writers never touch it.
	indexes []atomic.Pointer[colIndex]

	// pub is the publish lock shared by every table of the owning Store
	// (standalone tables get a private one): version installs take it
	// exclusively, Store.Snapshot takes it shared to read a consistent cut.
	pub *sync.RWMutex
}

// NewTable creates an empty table for the given metadata.
func NewTable(meta *catalog.Table) *Table {
	t := &Table{Meta: meta, pub: &sync.RWMutex{}, indexes: make([]atomic.Pointer[colIndex], len(meta.Cols))}
	t.version.Store(newVersion(t, nil, 0))
	return t
}

// Version returns the currently published version.
func (t *Table) Version() *TableVersion { return t.version.Load() }

// Rows returns a row-major view of the currently published version (see
// TableVersion.Rows). Hold a Snapshot (or the returned version) to keep
// reading a consistent state across statements.
func (t *Table) Rows() []Row { return t.version.Load().Rows() }

// RowCount returns the number of currently published rows.
func (t *Table) RowCount() int { return t.version.Load().n }

// checkArity validates row shapes before anything is logged or published.
func (t *Table) checkArity(rows []Row) error {
	for _, r := range rows {
		if len(r) != len(t.Meta.Cols) {
			return fmt.Errorf("table %s: row arity %d, want %d", t.Meta.Name, len(r), len(t.Meta.Cols))
		}
	}
	return nil
}

// Append adds rows by publishing a new version; running queries keep the
// version they pinned. It is a hook-free primitive for tests: nothing it
// publishes is logged. Only Store.AppendBatch runs the store's commit hook,
// so every logged write goes through it.
func (t *Table) Append(rows ...Row) error {
	if err := t.checkArity(rows); err != nil {
		return err
	}
	t.appendMu.Lock()
	defer t.appendMu.Unlock()
	nv := t.nextVersionLocked(rows)
	t.pub.Lock()
	t.version.Store(nv)
	t.pub.Unlock()
	return nil
}

// AppendCols adds nrows of column-major data (one vector per column) by
// publishing a new version. When the chunk aligns with a segment boundary
// the vectors are installed as published segments without copying, so
// columnar checkpoint replay rebuilds a table at memcpy-free cost; callers
// transfer ownership of the vectors either way. Like Append it is hook-free:
// nothing it publishes is logged.
func (t *Table) AppendCols(cols [][]sqltypes.Value, nrows int) error {
	if len(cols) != len(t.Meta.Cols) {
		return fmt.Errorf("table %s: column arity %d, want %d", t.Meta.Name, len(cols), len(t.Meta.Cols))
	}
	for c, col := range cols {
		if len(col) != nrows {
			return fmt.Errorf("table %s: column %d has %d values, want %d", t.Meta.Name, c, len(col), nrows)
		}
	}
	t.appendMu.Lock()
	defer t.appendMu.Unlock()
	a := t.newAppenderLocked()
	a.appendCols(cols, nrows)
	nv := a.version()
	t.pub.Lock()
	t.version.Store(nv)
	t.pub.Unlock()
	return nil
}

// nextVersionLocked builds the successor version holding the current data
// plus the batch. Caller holds appendMu: extending the tail backing arrays
// past the published bounds is invisible to every reader (their versions'
// segment headers do not cover the new slots).
func (t *Table) nextVersionLocked(rows []Row) *TableVersion {
	a := t.newAppenderLocked()
	a.appendRows(rows)
	return a.version()
}

// HasIndexableCol reports whether the column is declared indexed (primary
// key or listed secondary index).
func (t *Table) HasIndexableCol(col string) bool {
	for _, c := range t.Meta.PKCols {
		if c == col {
			return true
		}
	}
	for _, c := range t.Meta.Indexes {
		if c == col {
			return true
		}
	}
	return false
}

// Stats computes (and caches) statistics for a column of the current
// version.
func (t *Table) Stats(col string) (ColStats, error) {
	return t.version.Load().Stats(col)
}

// Store is a collection of tables.
type Store struct {
	mu      sync.RWMutex
	tables  map[string]*Table
	onBatch func(writes []TableWrite) error

	// pub serializes version installs (exclusive) against snapshot capture
	// (shared): a Snapshot sees either all or none of any publish.
	pub sync.RWMutex
}

// NewStore creates an empty store.
func NewStore() *Store {
	return &Store{tables: map[string]*Table{}}
}

// SetBatchHook installs the commit hook of AppendBatch: fn runs before a
// batch's rows become visible, and an error from it publishes nothing. The
// durability layer logs every row write through it — transactions,
// autocommit runs and loaded batches alike — so every engine view over a
// durable store logs its commits; Table.Append and Table.AppendCols never
// run it. It is attached only after recovery replay, so replayed rows are
// not re-logged, and fn must not call back into the store.
func (s *Store) SetBatchHook(fn func(writes []TableWrite) error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.onBatch = fn
}

// CreateTable registers an empty table for the metadata.
func (s *Store) CreateTable(meta *catalog.Table) (*Table, error) {
	name := strings.ToLower(meta.Name)
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.tables[name]; dup {
		return nil, fmt.Errorf("table %q already has storage", meta.Name)
	}
	t := NewTable(meta)
	t.pub = &s.pub
	s.tables[name] = t
	return t, nil
}

// Table looks a table up by name.
func (s *Store) Table(name string) (*Table, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	t, ok := s.tables[strings.ToLower(name)]
	return t, ok
}

// MustTable returns the table or panics; for use by tests and generators.
func (s *Store) MustTable(name string) *Table {
	t, ok := s.Table(name)
	if !ok {
		panic(fmt.Sprintf("no table %q", name))
	}
	return t
}

// StorageStats summarizes the store's physical state for the observability
// endpoints, plus the process-wide scan-path and index counters.
type StorageStats struct {
	Tables          int   `json:"tables"`
	Segments        int   `json:"segments"`
	Rows            int64 `json:"rows"`
	ColumnBytes     int64 `json:"column_bytes"`
	ZeroCopyScans   int64 `json:"zero_copy_scans"`
	PivotedScans    int64 `json:"pivoted_scans"`
	SegmentsSkipped int64 `json:"segments_skipped"`
	IndexRowsHashed int64 `json:"index_rows_hashed"`
}

// StorageStats walks every table's current version and sums segment counts
// and estimated column bytes. The walk touches every string payload, so it
// is metered for observability polling, not hot paths.
func (s *Store) StorageStats() StorageStats {
	s.mu.RLock()
	tabs := make([]*Table, 0, len(s.tables))
	for _, t := range s.tables {
		tabs = append(tabs, t)
	}
	s.mu.RUnlock()
	st := StorageStats{
		Tables:          len(tabs),
		ZeroCopyScans:   ZeroCopyScans(),
		PivotedScans:    PivotedScans(),
		SegmentsSkipped: SegmentsSkipped(),
		IndexRowsHashed: IndexRowsHashed(),
	}
	for _, t := range tabs {
		v := t.version.Load()
		st.Segments += len(v.segs)
		st.Rows += int64(v.n)
		for _, seg := range v.segs {
			st.ColumnBytes += seg.Bytes()
		}
	}
	return st
}

// Snapshot is a consistent read view over a store: one pinned version per
// table. Reading through a snapshot sees no writes published after capture.
// A nil *Snapshot is valid and resolves every table to its current version.
type Snapshot struct {
	versions map[*Table]*TableVersion
}

// Snapshot captures a consistent cut of every table's current version.
// Capture is cheap — one atomic load per table, no copying.
func (s *Store) Snapshot() *Snapshot {
	s.mu.RLock()
	tabs := make([]*Table, 0, len(s.tables))
	for _, t := range s.tables {
		tabs = append(tabs, t)
	}
	s.mu.RUnlock()
	sn := &Snapshot{versions: make(map[*Table]*TableVersion, len(tabs))}
	s.pub.RLock()
	for _, t := range tabs {
		sn.versions[t] = t.version.Load()
	}
	s.pub.RUnlock()
	return sn
}

// Version resolves a table to its pinned version, falling back to the
// current version for tables created after capture (new tables are only
// visible to readers once DDL completes, which the query service excludes
// from running queries anyway).
func (sn *Snapshot) Version(t *Table) *TableVersion {
	if sn != nil {
		if v, ok := sn.versions[t]; ok {
			return v
		}
	}
	return t.version.Load()
}

// Rows returns a row-major view of the pinned version for a table.
func (sn *Snapshot) Rows(t *Table) []Row { return sn.Version(t).Rows() }

// TableWrite is one table's buffered rows in a transaction commit.
type TableWrite struct {
	Table *Table
	Rows  []Row
}

// AppendBatch publishes appends to several tables atomically: the batch
// hook (see SetBatchHook; none on volatile stores) runs first — write-ahead
// — and an error from it vetoes the whole batch; then every new version is
// installed under one publish-lock hold, so no snapshot can observe a
// partially applied transaction. Writer locks are taken in table-name order
// to avoid deadlocking with concurrent commits. The hook runs before any
// lock so concurrent commits can share a group-commit fsync; two of them
// may therefore be logged in one order and published in the other, which
// replay tolerates because tables are multisets (an acknowledged row is
// present, order is not part of the contract).
func (s *Store) AppendBatch(writes []TableWrite) error {
	for _, w := range writes {
		if err := w.Table.checkArity(w.Rows); err != nil {
			return err
		}
	}
	s.mu.RLock()
	commit := s.onBatch
	s.mu.RUnlock()
	if commit != nil {
		if err := commit(writes); err != nil {
			return err
		}
	}
	sorted := make([]TableWrite, len(writes))
	copy(sorted, writes)
	sort.Slice(sorted, func(i, j int) bool {
		return sorted[i].Table.Meta.Name < sorted[j].Table.Meta.Name
	})
	for _, w := range sorted {
		w.Table.appendMu.Lock()
	}
	versions := make([]*TableVersion, len(sorted))
	for i, w := range sorted {
		versions[i] = w.Table.nextVersionLocked(w.Rows)
	}
	s.pub.Lock()
	for i, w := range sorted {
		w.Table.version.Store(versions[i])
	}
	s.pub.Unlock()
	for _, w := range sorted {
		w.Table.appendMu.Unlock()
	}
	return nil
}
