package plan

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"udfdecorr/internal/algebra"
	"udfdecorr/internal/catalog"
	"udfdecorr/internal/exec"
	"udfdecorr/internal/sqltypes"
	"udfdecorr/internal/storage"
)

// zoneCols are the columns of the zone property test's table.
var zoneCols = []string{"k", "big", "s", "b", "m"}

// zoneRow builds row i of the zone test table:
//   - k: i/3 in load order, NULL at every 97th row, an integral float at
//     every 5th, -0.0 at row 1;
//   - big: ints within 8 of a per-segment base (-2^53, 2^53, 0, 2^53 + 64)
//     beside integral floats near it, one NaN in the third segment;
//   - s: strings in load order, NULL at every 89th row;
//   - b: false in the first segment, true in the second, alternating after;
//   - m: ints below row 6000, strings from there on, so the second
//     segment mixes kinds.
func zoneRow(i int) storage.Row {
	seg := i / storage.SegmentRows
	r := make(storage.Row, len(zoneCols))
	switch {
	case i%97 == 0:
		r[0] = sqltypes.Null
	case i == 1:
		r[0] = sqltypes.NewFloat(math.Copysign(0, -1))
	case i%5 == 0:
		r[0] = sqltypes.NewFloat(float64(i / 3))
	default:
		r[0] = sqltypes.NewInt(int64(i / 3))
	}
	base := []int64{-1 << 53, 1 << 53, 0, 1<<53 + 64}[min(seg, 3)]
	off := int64(i%17) - 8
	switch {
	case seg == 2 && i%storage.SegmentRows == 1234:
		r[1] = sqltypes.NewFloat(math.NaN())
	case i%3 == 0:
		r[1] = sqltypes.NewFloat(float64(base + off))
	default:
		r[1] = sqltypes.NewInt(base + off)
	}
	if i%89 == 0 {
		r[2] = sqltypes.Null
	} else {
		r[2] = sqltypes.NewString(fmt.Sprintf("s%06d", i))
	}
	switch seg {
	case 0:
		r[3] = sqltypes.NewBool(false)
	case 1:
		r[3] = sqltypes.NewBool(true)
	default:
		r[3] = sqltypes.NewBool(i%2 == 0)
	}
	if i < 6000 {
		r[4] = sqltypes.NewInt(int64(i))
	} else {
		r[4] = sqltypes.NewString(fmt.Sprintf("m%06d", i))
	}
	return r
}

// zoneKeys lists candidate keys for column c of rows: every segment's
// smallest and largest value and their neighbours, random values, NULL,
// NaN, and keys of other kinds.
func zoneKeys(rng *rand.Rand, rows []storage.Row, c int) []sqltypes.Value {
	keys := []sqltypes.Value{sqltypes.Null, sqltypes.NewFloat(math.NaN()), sqltypes.NewString("s004000"),
		sqltypes.NewInt(3000), sqltypes.NewBool(true), sqltypes.NewFloat(math.Copysign(0, -1)),
		sqltypes.NewInt(1 << 53), sqltypes.NewFloat(1 << 53), sqltypes.NewInt(1<<53 + 1)}
	for lo := 0; lo < len(rows); lo += storage.SegmentRows {
		var smallest, largest sqltypes.Value
		for _, r := range rows[lo:min(lo+storage.SegmentRows, len(rows))] {
			v := r[c]
			if v.IsNull() {
				continue
			}
			if c, ok := sqltypes.Compare(v, smallest); smallest.IsNull() || ok && c < 0 {
				smallest = v
			}
			if c, ok := sqltypes.Compare(v, largest); largest.IsNull() || ok && c > 0 {
				largest = v
			}
		}
		for _, v := range []sqltypes.Value{smallest, largest} {
			keys = append(keys, v)
			if v.Kind() == sqltypes.KindInt {
				keys = append(keys, sqltypes.NewInt(v.Int()-1), sqltypes.NewInt(v.Int()+1), sqltypes.NewFloat(float64(v.Int())))
			}
		}
	}
	for i := 0; i < 8; i++ {
		keys = append(keys, rows[rng.Intn(len(rows))][c])
	}
	return keys
}

// zoneExecutor is one way to run a plan: its planner settings and how the
// unbounded reference plan is built.
type zoneExecutor struct {
	name        string
	vectorized  bool
	parallelism int
}

var zoneExecutors = []zoneExecutor{{"row", false, 1}, {"vectorized", true, 1}, {"parallel-4", true, 4}}

// unboundedFilter builds the filter over a scan with no bounds, as the
// planner built it before zones.
func unboundedFilter(t *testing.T, x zoneExecutor, p *Planner, tab *storage.Table, scan *algebra.Scan, pred algebra.Expr) exec.Node {
	t.Helper()
	if !x.vectorized {
		ev, err := exec.Compile(pred, scan.Cols, p)
		if err != nil {
			t.Fatal(err)
		}
		return &exec.Filter{Pred: ev, Child: exec.NewTableScan(tab, scan.Cols)}
	}
	pf, err := exec.CompilePred(pred, scan.Cols, p)
	if err != nil {
		t.Fatal(err)
	}
	var n exec.Node = &exec.BatchFilter{Pred: pf, Child: exec.NewBatchScan(tab, scan.Cols)}
	n, _, _ = exec.Parallelize(n, x.parallelism)
	return n
}

func rowCounts(rows []storage.Row) map[string]int {
	m := make(map[string]int, len(rows))
	for _, r := range rows {
		m[sqltypes.KeyOf(r...)]++
	}
	return m
}

func sameCounts(a, b map[string]int) bool {
	if len(a) != len(b) {
		return false
	}
	for k, n := range a {
		if b[k] != n {
			return false
		}
	}
	return true
}

// TestZonePruningNeverChangesAnswers runs seeded random conjunctions of
// constant and parameter comparisons over a table of several segments
// and a partial tail, on the row, vectorized and parallel-4 executors, and
// requires the bounded scan's answer to equal the unbounded filter's: over
// the published table, under an open transaction's overlay rows, and
// before and after the table grows.
func TestZonePruningNeverChangesAnswers(t *testing.T) {
	defer func(old int) { exec.MorselRows = old }(exec.MorselRows)
	exec.MorselRows = 1000 // morsels inside and across kept segments

	cat := catalog.New()
	store := storage.NewStore()
	meta := &catalog.Table{Name: "z"}
	for _, c := range zoneCols {
		meta.Cols = append(meta.Cols, catalog.Column{Name: c, Type: sqltypes.KindInt})
	}
	if err := cat.AddTable(meta); err != nil {
		t.Fatal(err)
	}
	tab, err := store.CreateTable(meta)
	if err != nil {
		t.Fatal(err)
	}
	const first, grown = 3*storage.SegmentRows + 1500, 4*storage.SegmentRows + 700
	all := make([]storage.Row, grown)
	for i := range all {
		all[i] = zoneRow(i)
	}
	if err := tab.Append(all[:first]...); err != nil {
		t.Fatal(err)
	}
	interp := exec.NewInterp(cat, true)
	planners := make([]*Planner, len(zoneExecutors))
	for i, x := range zoneExecutors {
		planners[i] = New(cat, store, interp)
		planners[i].Vectorized, planners[i].Parallelism = x.vectorized, x.parallelism
	}
	scan := scanOf(cat, "z", "z")
	// Overlay rows fall outside most segments' zones.
	overlay := []storage.Row{
		{sqltypes.NewInt(5), sqltypes.NewInt(7), sqltypes.NewString("s000001"), sqltypes.NewBool(true), sqltypes.NewInt(-1)},
		{sqltypes.NewFloat(99999), sqltypes.NewFloat(math.NaN()), sqltypes.Null, sqltypes.NewBool(false), sqltypes.NewString("a")},
		{sqltypes.Null, sqltypes.NewInt(1 << 53), sqltypes.NewString("zzz"), sqltypes.Null, sqltypes.NewInt(1 << 40)},
	}

	rng := rand.New(rand.NewSource(20261019))
	ops := []sqltypes.CmpOp{sqltypes.CmpEQ, sqltypes.CmpNE, sqltypes.CmpLT, sqltypes.CmpLE, sqltypes.CmpGT, sqltypes.CmpGE}
	skippedBefore := storage.SegmentsSkipped()
	run := func(stage string, snap *storage.Snapshot, rows []storage.Row, ov []storage.Row, trials int) {
		keys := make([][]sqltypes.Value, len(zoneCols))
		for c := range keys {
			keys[c] = zoneKeys(rng, rows, c)
		}
		for trial := 0; trial < trials; trial++ {
			var conj []algebra.Expr
			params := map[string]sqltypes.Value{}
			for j, n := 0, 1+rng.Intn(3); j < n; j++ {
				c := rng.Intn(len(zoneCols))
				key := keys[c][rng.Intn(len(keys[c]))]
				var k algebra.Expr = &algebra.Const{Val: key}
				if rng.Intn(2) == 0 {
					name := fmt.Sprintf("p%d", j)
					params[name] = key
					k = &algebra.ParamRef{Name: name}
				}
				var col algebra.Expr = &algebra.ColRef{Qual: "z", Name: zoneCols[c]}
				cmp := &algebra.Cmp{Op: ops[rng.Intn(len(ops))], L: col, R: k}
				if rng.Intn(2) == 0 {
					cmp.L, cmp.R = k, col
				}
				conj = append(conj, cmp)
			}
			pred := algebra.AndAll(conj)
			sel := &algebra.Select{Pred: pred, In: scan}
			for i, x := range zoneExecutors {
				p := planners[i]
				bounded, err := p.Build(sel)
				if err != nil {
					t.Fatal(err)
				}
				ctx := func() *exec.Ctx {
					ctx := exec.NewCtx(interp)
					ctx.SetSnapshot(snap, map[*storage.Table][]storage.Row{tab: ov})
					for name, v := range params {
						ctx.Set(name, v)
					}
					return ctx
				}
				got, err := exec.Drain(bounded, ctx())
				if err != nil {
					t.Fatalf("%s %s %s: %v", stage, x.name, pred, err)
				}
				want, err := exec.Drain(unboundedFilter(t, x, p, tab, scan, pred), ctx())
				if err != nil {
					t.Fatalf("%s %s %s unbounded: %v", stage, x.name, pred, err)
				}
				if !sameCounts(rowCounts(got), rowCounts(want)) {
					t.Fatalf("%s %s: %s (params %v) returned %d rows with zone bounds, %d without",
						stage, x.name, pred, params, len(got), len(want))
				}
			}
		}
	}
	run("published", nil, all[:first], nil, 150)
	run("overlay", nil, all[:first], overlay, 60)
	before := store.Snapshot()
	if err := tab.Append(all[first:]...); err != nil {
		t.Fatal(err)
	}
	run("grown", nil, all, nil, 60)
	run("pinned before growth", before, all[:first], overlay, 40)
	if storage.SegmentsSkipped() == skippedBefore {
		t.Fatal("no trial skipped a segment: the bounds were never exercised")
	}
}

// TestZoneBoundsPlan checks which conjuncts become bounds: comparisons of a
// column with a constant or a parameter by =, <, <=, > or >=, in either
// order, but no <>, no column-column comparison and no other key
// expression; an index probe takes none; and EXPLAIN lists the bounds.
func TestZoneBoundsPlan(t *testing.T) {
	p, cat := testDB(t)
	ref := func(name string) algebra.Expr { return &algebra.ColRef{Qual: "m", Name: name} }
	num := func(v int64) algebra.Expr { return &algebra.Const{Val: sqltypes.NewInt(v)} }
	pred := algebra.AndAll([]algebra.Expr{
		&algebra.Cmp{Op: sqltypes.CmpGE, L: ref("k"), R: num(10)},
		&algebra.Cmp{Op: sqltypes.CmpGT, L: &algebra.ParamRef{Name: "hi"}, R: ref("k")},
		&algebra.Cmp{Op: sqltypes.CmpNE, L: ref("v"), R: num(3)},
		&algebra.Cmp{Op: sqltypes.CmpLT, L: ref("v"), R: ref("k")},
		&algebra.Cmp{Op: sqltypes.CmpLT, L: ref("v"), R: &algebra.Arith{Op: sqltypes.OpAdd, L: num(1), R: num(2)}},
	})
	node, choices, _, err := p.BuildExplain(&algebra.Select{Pred: pred, In: scanOf(cat, "mid", "m")})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := strings.Join(choices, "; "), "TableScan(mid) zone[k >= 10, k < :hi]"; got != want {
		t.Errorf("choices = %q, want %q", got, want)
	}
	f, ok := node.(*exec.Filter)
	if !ok {
		t.Fatalf("plan = %T, want the whole filter over the scan", node)
	}
	if s, ok := f.Child.(*exec.TableScan); !ok || len(s.Bounds) != 2 {
		t.Fatalf("scan = %#v, want two bounds", f.Child)
	}

	_, choices, _, err = p.BuildExplain(&algebra.Select{
		Pred: algebra.AndAll([]algebra.Expr{
			&algebra.Cmp{Op: sqltypes.CmpEQ, L: &algebra.ColRef{Qual: "b", Name: "k"}, R: num(7)},
			&algebra.Cmp{Op: sqltypes.CmpLT, L: &algebra.ColRef{Qual: "b", Name: "v"}, R: num(7)},
		}),
		In: scanOf(cat, "big", "b"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(choices, "; "); got != "IndexLookup(big.k)" {
		t.Errorf("index probe choices = %q, want the probe alone", got)
	}
}
