package engine_test

import (
	"runtime"
	"testing"

	"udfdecorr/internal/bench"
	"udfdecorr/internal/engine"
)

// TestVectorizedUDFCallBytes bounds the bytes one interpreted UDF call
// allocates on the vectorized executor. Each embedded statement of the
// body reaches the batch consumer through the row-to-batch bridge; a
// bridge that starts its batch at full capacity allocates a 1024-slot
// column per output column (40 KiB each) to return one row. One call of
// exp1's discount runs two embedded statements; the bound is under half
// of one such column.
func TestVectorizedUDFCallBytes(t *testing.T) {
	const (
		sql   = "select top 1 orderkey, discount(totalprice, custkey) from orders"
		runs  = 20
		bound = 16 << 10
	)
	profile := engine.SYS1
	profile.Vectorized = true
	e, err := bench.NewEngine(profile, engine.ModeIterative, bench.SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	// The first run builds indexes, statistics and cached plans.
	if res, err := e.Query(sql); err != nil || len(res.Rows) != 1 || res.Counters.UDFCalls != 1 {
		t.Fatalf("warm-up: %v (result %+v)", err, res)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if _, err := e.Query(sql); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	perCall := (after.TotalAlloc - before.TotalAlloc) / runs
	t.Logf("%d bytes per statement", perCall)
	if perCall >= bound {
		t.Fatalf("one vectorized UDF call allocates %d bytes, want < %d", perCall, bound)
	}
}
