package exec

// Zone-map pruning. A scan directly under a selection carries the
// selection's conjuncts `column op key`, whose key is a constant or a
// parameter, as bounds. At each open it evaluates the keys once and skips
// every segment whose zone (storage.Segment.Zone) proves that no row of the
// segment satisfies some bound. The filter above the scan still tests every
// row the scan reads, so a bound only ever removes rows the filter would
// reject. Transaction-overlay rows have no zone and are always read. A scan
// whose bounds rule out no segment reads exactly as an unbounded one.

import (
	"strings"

	"udfdecorr/internal/sqltypes"
	"udfdecorr/internal/storage"
)

// ScanBound is one conjunct `column op key` of the predicate over a scan.
type ScanBound struct {
	Col  int            // the column's ordinal in the table
	Op   sqltypes.CmpOp // =, <, <=, > or >=, with the column on the left
	Key  Evaluator      // row-independent: a constant or a parameter
	Text string         // the conjunct as EXPLAIN prints it
}

// zoneNote renders a scan's bounds for EXPLAIN: " zone[a >= 1, a <= 9]",
// or "" for an unbounded scan.
func zoneNote(bounds []ScanBound) string {
	if len(bounds) == 0 {
		return ""
	}
	texts := make([]string, len(bounds))
	for i, b := range bounds {
		texts[i] = b.Text
	}
	return " zone[" + strings.Join(texts, ", ") + "]"
}

// span is a half-open range [lo, hi) of row ordinals.
type span struct{ lo, hi int }

// keptSpans returns the ordinal ranges a scan of total rows reads: those of
// the segments that no bound rules out, then the overlay's [segRows, total),
// adjacent ranges merged, so a scan that skips nothing reads the one range
// [0, total). It evaluates the bounds' keys once; pruned reports whether a
// segment was skipped. Segment counts of a bounded scan go to owner's
// EXPLAIN ANALYZE stats and skipped segments to the process-wide counter.
func keptSpans(ctx *Ctx, owner Node, bounds []ScanBound, segs []*storage.Segment, total int) (kept []span, pruned bool) {
	keys, ok := boundKeys(ctx, bounds)
	if !ok {
		if total == 0 {
			return nil, false
		}
		return []span{{0, total}}, false
	}
	add := func(lo, hi int) {
		if n := len(kept); n > 0 && kept[n-1].hi == lo {
			kept[n-1].hi = hi
		} else if lo < hi {
			kept = append(kept, span{lo, hi})
		}
	}
	read, segRows := 0, 0
	for s, sg := range segs {
		lo := s * storage.SegmentRows
		segRows = lo + sg.Len()
		if ruledOut(sg, bounds, keys) {
			continue
		}
		read++
		add(lo, segRows)
	}
	add(segRows, total)
	ctx.noteSegments(owner, read, len(segs))
	if read == len(segs) {
		return kept, false
	}
	storage.NoteSegmentsSkipped(len(segs) - read)
	return kept, true
}

// boundKeys evaluates the bounds' keys; ok=false when there are none to
// prune by.
func boundKeys(ctx *Ctx, bounds []ScanBound) (keys []sqltypes.Value, ok bool) {
	if len(bounds) == 0 {
		return nil, false
	}
	keys = make([]sqltypes.Value, len(bounds))
	for i, b := range bounds {
		k, err := b.Key(ctx, nil)
		if err != nil {
			// The filter above evaluates the same key and reports the
			// error at the first row it tests.
			return nil, false
		}
		keys[i] = k
	}
	return keys, true
}

// ruledOut reports whether some bound's zone test rules the segment out.
func ruledOut(sg *storage.Segment, bounds []ScanBound, keys []sqltypes.Value) bool {
	for i, b := range bounds {
		if sg.Zone(b.Col).RulesOut(b.Op, keys[i]) {
			return true
		}
	}
	return false
}

// noteSegments adds a bounded scan's segment counts to owner's EXPLAIN
// ANALYZE stats.
func (c *Ctx) noteSegments(owner Node, read, total int) {
	if c.prof == nil {
		return
	}
	st := c.prof.statsFor(owner)
	st.SegsRead += int64(read)
	st.Segs += int64(total)
}

// spansIter iterates the rows at several ordinal ranges of a table:
// ordinals below segRows index the version's row view, the rest the
// transaction overlay.
type spansIter struct {
	rows    []storage.Row
	segRows int
	overlay []storage.Row
	spans   []span
	cur     []storage.Row
}

func (s *spansIter) Next() (storage.Row, bool, error) {
	for len(s.cur) == 0 {
		if len(s.spans) == 0 {
			return nil, false, nil
		}
		lo, hi := s.spans[0].lo, s.spans[0].hi
		if lo < s.segRows {
			// A range that runs on into the overlay resumes there.
			hi = min(hi, s.segRows)
			s.cur = s.rows[lo:hi]
		} else {
			s.cur = s.overlay[lo-s.segRows : hi-s.segRows]
		}
		if hi == s.spans[0].hi {
			s.spans = s.spans[1:]
		} else {
			s.spans[0].lo = hi
		}
	}
	r := s.cur[0]
	s.cur = s.cur[1:]
	return r, true, nil
}

func (s *spansIter) Close() error { return nil }
