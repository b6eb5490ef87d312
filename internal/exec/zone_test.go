package exec

import (
	"strings"
	"testing"

	"udfdecorr/internal/algebra"
	"udfdecorr/internal/sqltypes"
	"udfdecorr/internal/storage"
)

// TestZoneScansReportSegments runs scans bounded to one of three segments
// of a = 0, 1, 2, … on each scan path, plus one overlay row the zones
// would rule out: every path reads the one segment only, returns the
// overlay row too, and EXPLAIN ANALYZE shows segs=1/3 on the scan, or on
// the parallel operator that runs it. Keeping the last segment runs its
// range on into the overlay's.
func TestZoneScansReportSegments(t *testing.T) {
	defer func(old int) { MorselRows = old }(MorselRows)
	MorselRows = 1000

	tab := intTable(t, "z", 3*storage.SegmentRows, 7)
	sc := schema2("a", "b", "c")
	overlay := storage.Row{sqltypes.NewInt(-1), sqltypes.NewInt(0), sqltypes.NewInt(0)}
	for _, b := range []struct {
		op   sqltypes.CmpOp
		key  int64
		text string
	}{
		{sqltypes.CmpLT, 100, "a < 100"},
		{sqltypes.CmpGE, 2 * storage.SegmentRows, "a >= 8192"},
	} {
		bound := []ScanBound{{Col: 0, Op: b.op, Text: b.text,
			Key: func(*Ctx, storage.Row) (sqltypes.Value, error) { return sqltypes.NewInt(b.key), nil }}}
		row := NewTableScan(tab, sc)
		row.Bounds = bound
		batch := NewBatchScan(tab, sc)
		batch.Bounds = bound
		par, _, ok := Parallelize(&BatchFilter{Child: batch,
			Pred: mustPred(t, &algebra.Cmp{Op: sqltypes.CmpGE, L: &algebra.ColRef{Name: "b"}, R: &algebra.Const{Val: sqltypes.NewInt(0)}}, sc)}, 4)
		if !ok {
			t.Fatal("the filtered scan did not parallelize")
		}
		for _, tc := range []struct {
			name  string
			root  Node
			label string
		}{
			{"row", row, "TableScan(z) zone[" + b.text + "]"},
			{"vectorized", batch, "BatchScan(z) zone[" + b.text + "]"},
			{"parallel-4", par, "Exchange(scan(z) zone[" + b.text + "]→filter, degree=4)"},
		} {
			skipped := storage.SegmentsSkipped()
			ctx := NewCtx(nil)
			ctx.SetSnapshot(nil, map[*storage.Table][]storage.Row{tab: {overlay}})
			prof := ctx.EnableProfiling()
			rows, err := Drain(tc.root, ctx)
			if err != nil {
				t.Fatal(err)
			}
			if len(rows) != storage.SegmentRows+1 {
				t.Errorf("%s, %s: %d rows, want one segment and the overlay row", b.text, tc.name, len(rows))
			}
			if got := storage.SegmentsSkipped() - skipped; got != 2 {
				t.Errorf("%s, %s: skipped %d segments, want 2", b.text, tc.name, got)
			}
			tree := FormatTree(tc.root, prof)
			if !strings.Contains(tree, tc.label) || !strings.Contains(tree, "segs=1/3") {
				t.Errorf("%s, %s: EXPLAIN ANALYZE lacks %q or segs=1/3:\n%s", b.text, tc.name, tc.label, tree)
			}
		}
	}
}

func mustPred(t *testing.T, e algebra.Expr, sc []algebra.Column) PredFactory {
	t.Helper()
	pf, err := CompilePred(e, sc, nil)
	if err != nil {
		t.Fatal(err)
	}
	return pf
}
