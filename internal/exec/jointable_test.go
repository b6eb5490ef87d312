package exec

import (
	"fmt"
	"testing"

	"udfdecorr/internal/algebra"
	"udfdecorr/internal/sqltypes"
	"udfdecorr/internal/storage"
)

// TestJoinTableBuildAllocs pins the build's allocation profile: a key costs
// no slice and a row no copy of its own, so building over 10 000 distinct
// integer keys allocates a few dozen times (column and index doublings),
// not once per key.
func TestJoinTableBuildAllocs(t *testing.T) {
	const nKeys = 10000
	var build [][]int64
	for i := int64(0); i < nKeys; i++ {
		build = append(build, []int64{i, 10 * i})
	}
	lsc, rsc := schema2("lk", "lv"), schema2("rk", "rv")
	tab := newTestTable(t, "r", []string{"rk", "rv"}, rowsWithNulls(build))
	lKey, _ := CompileVec(col("lk"), lsc, nil)
	rKey, _ := CompileVec(col("rk"), rsc, nil)
	j := NewBatchHashJoin(algebra.InnerJoin, []VecFactory{lKey}, []VecFactory{rKey}, nil,
		NewValues(nil, lsc), NewBatchScan(tab, rsc))
	allocs := testing.AllocsPerRun(5, func() {
		jt, err := buildJoinTable(NewCtx(nil), j, 1)
		if err != nil {
			t.Fatal(err)
		}
		if got := len(jt.parts[0].ords); got != nKeys {
			t.Fatalf("table holds %d ordinals, want %d", got, nKeys)
		}
	})
	if perKey := allocs / nKeys; perKey >= 0.01 {
		t.Fatalf("%.0f allocations for %d keys (%.4f per key), want < 0.01 per key", allocs, nKeys, perKey)
	}
}

// TestBatchHashJoinLeavesProbeVectors probes with a filtered scan, whose
// vectors alias the table's storage, through every join kind and output
// sizes that mix pass-through batches (the probe's own vectors under a new
// selection) with copied ones (a key with several matches). The join must
// return the nested-loop join's rows and must never write into a probe
// vector: the table reads back unchanged.
func TestBatchHashJoinLeavesProbeVectors(t *testing.T) {
	lsc, rsc := schema2("lk", "lv"), schema2("rk", "rv")
	var probe, build [][]int64
	for i := int64(0); i < 5000; i++ {
		probe = append(probe, []int64{i % 50, i})
	}
	for k := int64(0); k < 40; k++ {
		build = append(build, []int64{k, 100 + k})
	}
	for i := int64(0); i < 5; i++ {
		build = append(build, []int64{7, 200 + i}) // key 7 matches six times
	}
	rows := rowsWithNulls(probe)
	tab := newTestTable(t, "l", []string{"lk", "lv"}, rows)
	filter := cmp(sqltypes.CmpNE, col("lk"), lit(3))
	rowFilter, batchFilter := filterPair(t, filter, NewBatchScan(tab, lsc))
	r := NewValues(rowsWithNulls(build), rsc)
	joined := append(append([]algebra.Column{}, lsc...), rsc...)
	eq, err := Compile(cmp(sqltypes.CmpEQ, col("lk"), col("rk")), joined, nil)
	if err != nil {
		t.Fatal(err)
	}
	lKey, _ := CompileVec(col("lk"), lsc, nil)
	rKey, _ := CompileVec(col("rk"), rsc, nil)
	for _, kind := range []algebra.JoinKind{algebra.InnerJoin, algebra.LeftOuterJoin,
		algebra.SemiJoin, algebra.AntiJoin} {
		want, err := Drain(NewNLJoin(kind, eq, rowFilter, r), NewCtx(nil))
		if err != nil {
			t.Fatal(err)
		}
		j := NewBatchHashJoin(kind, []VecFactory{lKey}, []VecFactory{rKey}, nil, batchFilter, r)
		for _, size := range []int{1, 3, 7, DefaultBatchSize} {
			t.Run(fmt.Sprintf("%s/size=%d", kind, size), func(t *testing.T) {
				assertIdenticalRows(t, drainWithBatchSize(t, j, NewCtx(nil), size), want)
				stored, err := Drain(NewTableScan(tab, lsc), NewCtx(nil))
				if err != nil {
					t.Fatal(err)
				}
				assertIdenticalRows(t, stored, rows)
			})
		}
	}
}

// joinPassThroughCounts drains a join at the given size and counts the
// batches that passed the probe's columns through (a selection over the
// probe's positions) and the batches that were copied.
func joinPassThroughCounts(t *testing.T, n Node, ctx *Ctx, size int) (rows []storage.Row, through, copied int) {
	t.Helper()
	bi, err := OpenBatches(n, ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer bi.Close()
	for {
		b, ok, err := bi.NextBatch(size)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			return rows, through, copied
		}
		if b.Sel != nil {
			through++
		} else {
			copied++
		}
		rows = b.AppendTo(rows)
	}
}

// fixedIter serves one batch, as given, and then ends.
type fixedIter struct {
	b    *Batch
	done bool
}

func (f *fixedIter) NextBatch(int) (*Batch, bool, error) {
	if f.done {
		return nil, false, nil
	}
	f.done = true
	return f.b, true, nil
}

func (f *fixedIter) Close() error { return nil }

// TestContractCheckerReportsShape feeds the contract checker batches that
// break the shape clause — a selection that repeats, runs backwards or
// leaves [0, n), and a column shorter than the physical length — and one
// that keeps it, which must pass without a report.
func TestContractCheckerReportsShape(t *testing.T) {
	vals := []sqltypes.Value{sqltypes.NewInt(1), sqltypes.NewInt(2), sqltypes.NewInt(3)}
	for _, tc := range []struct {
		name string
		b    *Batch
		bad  bool
	}{
		{"ascending selection", &Batch{Cols: [][]sqltypes.Value{vals}, Sel: []int{0, 2}, n: 3}, false},
		{"no selection", &Batch{Cols: [][]sqltypes.Value{vals}, n: 3}, false},
		{"repeated position", &Batch{Cols: [][]sqltypes.Value{vals}, Sel: []int{1, 1}, n: 3}, true},
		{"descending selection", &Batch{Cols: [][]sqltypes.Value{vals}, Sel: []int{2, 0}, n: 3}, true},
		{"position past n", &Batch{Cols: [][]sqltypes.Value{vals}, Sel: []int{0, 3}, n: 3}, true},
		{"short column", &Batch{Cols: [][]sqltypes.Value{vals[:2]}, Sel: []int{0, 1}, n: 3}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var reports []string
			c := NewContractChecker(&fixedIter{b: tc.b}, func(v string) { reports = append(reports, v) })
			if _, ok, err := c.NextBatch(DefaultBatchSize); !ok || err != nil {
				t.Fatalf("ok=%v err=%v", ok, err)
			}
			if tc.bad != (len(reports) > 0) {
				t.Fatalf("reports %q, want a report: %v", reports, tc.bad)
			}
		})
	}
}
