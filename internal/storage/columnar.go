// Columnar table storage: the physical layout behind TableVersion.
//
// A published version is a list of immutable column-major segments. Every
// segment but the last holds exactly SegmentRows rows (so ordinal→segment
// arithmetic is two integer ops); the last may be partial. Successive
// versions share segments: an append only ever adds new segments or extends
// the open tail, and the tail trick mirrors the previous row-major design —
// the writer owns backing arrays of capacity SegmentRows per column, copies
// new values past every published length, and publishes a fresh Segment
// header bounding a longer prefix. Readers therefore never observe a
// mutation: slice headers in a published Segment are immutable, and backing
// array slots are written only before any header covering them exists.
//
// The vectorized executor scans these segments zero-copy (batch column
// vectors alias segment storage); the row executor reads through a lazily
// pivoted row-major view cached per version (see TableVersion.Rows).
package storage

import (
	"math"
	"sync/atomic"
	"unsafe"

	"udfdecorr/internal/sqltypes"
)

// SegmentRows is the fixed segment size. Every published segment except a
// table's last is exactly this long, which keeps ordinal lookup O(1) and
// batch scans aligned. 4096 rows ≈ 4 vectorized batches per segment.
const SegmentRows = 4096

// Segment is one immutable column-major chunk of a table: one value vector
// per column, all of length Len. Segments are shared across table versions
// and must never be mutated after publication.
type Segment struct {
	cols [][]sqltypes.Value
	n    int
	// zones caches each column's zone, computed on first use (see Zone).
	zones []atomic.Pointer[Zone]
}

// NewSegment wraps column vectors as a segment, taking ownership of the
// slices (callers must not mutate them afterwards). All columns must share
// one length; n is the row count (passed explicitly so zero-column tables
// keep their cardinality).
func NewSegment(cols [][]sqltypes.Value, n int) *Segment {
	return &Segment{cols: cols, n: n, zones: make([]atomic.Pointer[Zone], len(cols))}
}

// Len returns the segment's row count.
func (s *Segment) Len() int { return s.n }

// Width returns the column count.
func (s *Segment) Width() int { return len(s.cols) }

// Col returns column c's value vector. The slice aliases storage: callers
// may read it freely but must never write through it.
func (s *Segment) Col(c int) []sqltypes.Value { return s.cols[c] }

// Zone returns column c's zone: the smallest and largest of its non-NULL
// values (a small materialized aggregate, Moerkotte, VLDB 1998). It is
// computed on first use over the segment's first Len values only — a
// published tail's backing arrays grow past Len — and cached on the
// segment; racing computations are idempotent.
func (s *Segment) Zone(c int) Zone {
	if z := s.zones[c].Load(); z != nil {
		return *z
	}
	z := zoneOf(s.cols[c][:s.n])
	s.zones[c].Store(&z)
	return z
}

// AppendRowTo materializes row i of the segment onto dst: the columns at
// cols, in that order, or every column when cols is nil.
func (s *Segment) AppendRowTo(dst Row, i int, cols []int) Row {
	if cols == nil {
		for _, c := range s.cols {
			dst = append(dst, c[i])
		}
		return dst
	}
	for _, c := range cols {
		dst = append(dst, s.cols[c][i])
	}
	return dst
}

// Bytes estimates the segment's in-memory column bytes (value headers plus
// string payloads), for the storage gauges.
func (s *Segment) Bytes() int64 {
	b := int64(s.n) * int64(len(s.cols)) * int64(unsafe.Sizeof(sqltypes.Value{}))
	for _, col := range s.cols {
		for _, v := range col {
			if v.Kind() == sqltypes.KindString {
				b += int64(len(v.Str()))
			}
		}
	}
	return b
}

// ---------------------------------------------------------------------------
// Zones
// ---------------------------------------------------------------------------

// Zone bounds one segment column: every non-NULL value v of the column
// orders Min <= v <= Max under sqltypes.Compare. The zero Zone is empty and
// rules nothing out; a column gets one when it holds a NaN (which compares
// equal to every number), holds kinds that Compare cannot order against
// each other, or holds no non-NULL value.
type Zone struct {
	Min, Max sqltypes.Value
}

// Empty reports whether the zone bounds nothing.
func (z Zone) Empty() bool { return z.Min.IsNull() }

// zoneOf computes the zone of a column vector.
func zoneOf(vals []sqltypes.Value) Zone {
	var z Zone
	for _, v := range vals {
		switch v.Kind() {
		case sqltypes.KindNull:
			continue
		case sqltypes.KindFloat:
			if math.IsNaN(v.Float()) {
				return Zone{}
			}
		}
		if z.Empty() {
			z.Min, z.Max = v, v
			continue
		}
		lo, ok := sqltypes.Compare(v, z.Min)
		if !ok {
			return Zone{}
		}
		if lo < 0 {
			z.Min = v
		} else if hi, _ := sqltypes.Compare(v, z.Max); hi > 0 {
			z.Max = v
		}
	}
	return z
}

// RulesOut reports whether the zone proves that no row of its column
// satisfies `column op key` under sqltypes.Cmp. A NULL key rules out every
// row, zone or none: a comparison with NULL is never true. A NaN key rules
// out none, since NaN compares equal to every number. A key of a kind the
// zone's values do not order against rules out every row, whose
// comparisons are all unknown. Operators other than =, <, <=, > and >=
// rule out nothing.
func (z Zone) RulesOut(op sqltypes.CmpOp, key sqltypes.Value) bool {
	if key.IsNull() {
		return true
	}
	if key.Kind() == sqltypes.KindFloat && math.IsNaN(key.Float()) {
		return false
	}
	if z.Empty() {
		return false
	}
	lo, ok := sqltypes.Compare(z.Min, key)
	if !ok {
		return true
	}
	hi, _ := sqltypes.Compare(z.Max, key)
	switch op {
	case sqltypes.CmpEQ:
		return lo > 0 || hi < 0
	case sqltypes.CmpLT:
		return lo >= 0
	case sqltypes.CmpLE:
		return lo > 0
	case sqltypes.CmpGT:
		return hi <= 0
	case sqltypes.CmpGE:
		return hi < 0
	}
	return false
}

// ---------------------------------------------------------------------------
// Scan-path metrics
// ---------------------------------------------------------------------------

// scanMetrics counts how table scans were served process-wide: zero-copy
// (batch vectors aliasing column segments) versus pivoted (a row-major
// materialization had to be built for the row executor). Exposed through
// /stats and /metrics as an observable guarantee that the hot path stays
// zero-copy.
var scanMetrics struct {
	zeroCopy    atomic.Int64
	pivoted     atomic.Int64
	segsSkipped atomic.Int64
}

// NoteZeroCopyScan records one scan served directly from column segments.
// The executor calls it when opening a zero-copy batch or morsel scan.
func NoteZeroCopyScan() { scanMetrics.zeroCopy.Add(1) }

// NotePivotedScan records one row-major pivot fallback (also called
// internally when a version materializes its row view).
func NotePivotedScan() { scanMetrics.pivoted.Add(1) }

// NoteSegmentsSkipped records n segments a bounded scan skipped because
// their zones ruled its predicate out.
func NoteSegmentsSkipped(n int) { scanMetrics.segsSkipped.Add(int64(n)) }

// SegmentsSkipped returns the process-wide count of segments skipped by
// zone.
func SegmentsSkipped() int64 { return scanMetrics.segsSkipped.Load() }

// ZeroCopyScans returns the process-wide zero-copy scan count.
func ZeroCopyScans() int64 { return scanMetrics.zeroCopy.Load() }

// PivotedScans returns the process-wide pivot-fallback count.
func PivotedScans() int64 { return scanMetrics.pivoted.Load() }

// ---------------------------------------------------------------------------
// Writer-side appender
// ---------------------------------------------------------------------------

// colAppender builds a table's next version under the table's appendMu. It
// copies the shared segment prefix (cheap: one pointer per 4096 rows) and
// extends the writer-owned open tail, sealing full segments as they fill.
type colAppender struct {
	t    *Table
	segs []*Segment
	n    int
}

// newAppenderLocked starts an append against the current version. Caller
// holds t.appendMu. It re-syncs the writer's tail backing when the current
// version's partial tail was not produced by this writer (a table freshly
// built from checkpoint segments): the partial rows are copied once into
// fresh backing arrays, and appends proceed in place from there.
func (t *Table) newAppenderLocked() *colAppender {
	cur := t.version.Load()
	w := len(t.Meta.Cols)
	full := len(cur.segs)
	m := 0
	if cur.n%SegmentRows != 0 {
		full--
		m = cur.n - full*SegmentRows
	}
	if m == 0 {
		t.tail, t.tailLen = nil, 0
	} else if t.tail == nil || t.tailLen != m {
		// Single-writer discipline makes tailLen==m equivalent to "the
		// published tail aliases t.tail"; a mismatch means the version came
		// from elsewhere (recovery install) and the partial tail is copied.
		last := cur.segs[len(cur.segs)-1]
		t.tail = make([][]sqltypes.Value, w)
		for c := range t.tail {
			buf := make([]sqltypes.Value, m, SegmentRows)
			copy(buf, last.cols[c][:m])
			t.tail[c] = buf
		}
		t.tailLen = m
	}
	segs := make([]*Segment, full, full+2)
	copy(segs, cur.segs[:full])
	return &colAppender{t: t, segs: segs, n: full * SegmentRows}
}

func (a *colAppender) ensureTail() {
	t := a.t
	if t.tail == nil {
		w := len(t.Meta.Cols)
		t.tail = make([][]sqltypes.Value, w)
		for c := range t.tail {
			t.tail[c] = make([]sqltypes.Value, 0, SegmentRows)
		}
		t.tailLen = 0
	}
}

// seal publishes the full tail as an immutable segment and resets the tail
// (fresh backing arrays are allocated on the next append).
func (a *colAppender) seal() {
	t := a.t
	cols := make([][]sqltypes.Value, len(t.tail))
	for c := range cols {
		cols[c] = t.tail[c][:SegmentRows:SegmentRows]
	}
	a.segs = append(a.segs, NewSegment(cols, SegmentRows))
	a.n += SegmentRows
	t.tail, t.tailLen = nil, 0
}

// appendRows pivots rows into the open tail.
func (a *colAppender) appendRows(rows []Row) {
	t := a.t
	w := len(t.Meta.Cols)
	for _, r := range rows {
		a.ensureTail()
		for c := 0; c < w; c++ {
			t.tail[c] = append(t.tail[c], r[c])
		}
		t.tailLen++
		if t.tailLen == SegmentRows {
			a.seal()
		}
	}
}

// appendCols appends nrows of column-major data. When the tail is empty and
// the chunk is exactly one full segment, the vectors are installed as a
// segment directly — zero copy — which is the checkpoint-replay fast path
// (columnar snapshot records decode straight into published segments).
func (a *colAppender) appendCols(cols [][]sqltypes.Value, nrows int) {
	t := a.t
	if t.tailLen == 0 && nrows == SegmentRows {
		t.tail = nil
		a.segs = append(a.segs, NewSegment(cols, nrows))
		a.n += nrows
		return
	}
	off := 0
	for off < nrows {
		a.ensureTail()
		take := SegmentRows - t.tailLen
		if rem := nrows - off; rem < take {
			take = rem
		}
		for c := range t.tail {
			t.tail[c] = append(t.tail[c], cols[c][off:off+take]...)
		}
		t.tailLen += take
		off += take
		if t.tailLen == SegmentRows {
			a.seal()
		}
	}
}

// version publishes the appender's state as the next immutable version. A
// partial tail becomes a fresh Segment header bounding the writer's backing
// arrays at the current length; the backing is extended in place by later
// appends, past every published bound.
func (a *colAppender) version() *TableVersion {
	t := a.t
	segs, n := a.segs, a.n
	if t.tailLen > 0 {
		cols := make([][]sqltypes.Value, len(t.tail))
		for c := range cols {
			cols[c] = t.tail[c][:t.tailLen]
		}
		segs = append(segs, NewSegment(cols, t.tailLen))
		n += t.tailLen
	}
	return newVersion(t, segs, n)
}
