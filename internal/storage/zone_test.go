package storage

import (
	"math"
	"sync"
	"testing"

	"udfdecorr/internal/sqltypes"
)

func TestZoneOf(t *testing.T) {
	i, f, s := sqltypes.NewInt, sqltypes.NewFloat, sqltypes.NewString
	nan := f(math.NaN())
	for _, tc := range []struct {
		name     string
		vals     []sqltypes.Value
		min, max sqltypes.Value // NULL: empty
	}{
		{"ints", []sqltypes.Value{i(5), sqltypes.Null, i(-3), i(9)}, i(-3), i(9)},
		{"ints and floats", []sqltypes.Value{f(2.5), i(1 << 53), f(-7), i(1<<53 + 1)}, f(-7), i(1<<53 + 1)},
		{"strings", []sqltypes.Value{s("b"), s("a"), sqltypes.Null, s("c")}, s("a"), s("c")},
		{"bools", []sqltypes.Value{sqltypes.NewBool(true), sqltypes.NewBool(false)}, sqltypes.NewBool(false), sqltypes.NewBool(true)},
		{"NaN", []sqltypes.Value{i(1), nan, i(2)}, sqltypes.Null, sqltypes.Null},
		{"NaN first", []sqltypes.Value{nan, i(1)}, sqltypes.Null, sqltypes.Null},
		{"mixed kinds", []sqltypes.Value{i(1), s("a")}, sqltypes.Null, sqltypes.Null},
		{"all NULL", []sqltypes.Value{sqltypes.Null, sqltypes.Null}, sqltypes.Null, sqltypes.Null},
		{"none", nil, sqltypes.Null, sqltypes.Null},
	} {
		z := zoneOf(tc.vals)
		if z.Empty() != tc.min.IsNull() {
			t.Errorf("%s: empty = %v, want %v", tc.name, z.Empty(), tc.min.IsNull())
			continue
		}
		if !z.Empty() && (!sqltypes.Equal(z.Min, tc.min) || !sqltypes.Equal(z.Max, tc.max)) {
			t.Errorf("%s: zone [%v, %v], want [%v, %v]", tc.name, z.Min, z.Max, tc.min, tc.max)
		}
	}
}

func TestZoneRulesOut(t *testing.T) {
	i := sqltypes.NewInt
	z := Zone{Min: i(10), Max: i(20)}
	for _, tc := range []struct {
		op   sqltypes.CmpOp
		key  sqltypes.Value
		want bool
	}{
		{sqltypes.CmpEQ, i(9), true}, {sqltypes.CmpEQ, i(10), false}, {sqltypes.CmpEQ, i(20), false}, {sqltypes.CmpEQ, i(21), true},
		{sqltypes.CmpLT, i(10), true}, {sqltypes.CmpLT, i(11), false},
		{sqltypes.CmpLE, i(9), true}, {sqltypes.CmpLE, i(10), false},
		{sqltypes.CmpGT, i(20), true}, {sqltypes.CmpGT, i(19), false},
		{sqltypes.CmpGE, i(21), true}, {sqltypes.CmpGE, i(20), false},
		{sqltypes.CmpNE, i(15), false},
		{sqltypes.CmpEQ, sqltypes.NewFloat(20.5), true}, {sqltypes.CmpGE, sqltypes.NewFloat(19.5), false},
		// A NULL key rules out everything; NaN nothing; a string key
		// compares with no int.
		{sqltypes.CmpLE, sqltypes.Null, true},
		{sqltypes.CmpEQ, sqltypes.NewFloat(math.NaN()), false}, {sqltypes.CmpLT, sqltypes.NewFloat(math.NaN()), false},
		{sqltypes.CmpEQ, sqltypes.NewString("15"), true},
	} {
		if got := z.RulesOut(tc.op, tc.key); got != tc.want {
			t.Errorf("[10, 20] %s %v: RulesOut = %v, want %v", tc.op, tc.key, got, tc.want)
		}
	}
	if (Zone{}).RulesOut(sqltypes.CmpEQ, i(1)) {
		t.Error("an empty zone ruled a key out")
	}
	if !(Zone{}).RulesOut(sqltypes.CmpEQ, sqltypes.Null) {
		t.Error("an empty zone kept a NULL key")
	}
}

// TestZoneUnderConcurrentScansAndAppends computes zones lazily from
// several readers while a writer appends to the open tail: each version's
// tail zone must cover exactly the rows it publishes (run under -race in
// CI).
func TestZoneUnderConcurrentScansAndAppends(t *testing.T) {
	tab := NewTable(intMeta("z", "a", "b"))
	const batches, batch = 40, 300
	var wg sync.WaitGroup
	stop := make(chan struct{})
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
				base := 0
				for _, sg := range v.Segments() {
					z := sg.Zone(0)
					lo, hi := int64(base), int64(base+sg.Len()-1)
					if z.Min.Int() != lo || z.Max.Int() != hi {
						t.Errorf("segment at %d: zone [%v, %v], want [%d, %d]", base, z.Min, z.Max, lo, hi)
						return
					}
					base += sg.Len()
				}
			}
		}()
	}
	for b := 0; b < batches; b++ {
		if err := tab.Append(intRows(b*batch, (b+1)*batch)...); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
}
