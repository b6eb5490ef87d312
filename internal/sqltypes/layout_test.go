package sqltypes

import (
	"math"
	"math/rand"
	"testing"
	"unsafe"
)

// TestValueLayout pins Value at 32 bytes: the largest struct Go's compiler
// keeps in registers. A fifth field would put every cell the executors pass
// around back on the stack.
func TestValueLayout(t *testing.T) {
	if got := unsafe.Sizeof(Value{}); got != 32 {
		t.Fatalf("unsafe.Sizeof(Value{}) = %d, want 32", got)
	}
}

// TestPayloadRoundTrip checks that the one payload word carries every
// float's bits and every int unchanged, and that each accessor reads 0 from
// the other numeric kind.
func TestPayloadRoundTrip(t *testing.T) {
	nan := math.Float64frombits(0x7ff8_0000_dead_beef)
	for _, f := range []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1),
		math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64, nan, 1.5} {
		v := NewFloat(f)
		if got := v.Float(); math.Float64bits(got) != math.Float64bits(f) {
			t.Errorf("NewFloat(%v).Float() bits = %#x, want %#x", f, math.Float64bits(got), math.Float64bits(f))
		}
		if v.Kind() != KindFloat || v.Int() != 0 {
			t.Errorf("NewFloat(%v): kind %s, Int() = %d, want FLOAT and 0", f, v.Kind(), v.Int())
		}
	}
	for _, i := range []int64{math.MinInt64, math.MaxInt64, 0, -1, 1 << 53} {
		v := NewInt(i)
		if v.Int() != i || v.Kind() != KindInt {
			t.Errorf("NewInt(%d) = %v (%s)", i, v, v.Kind())
		}
		if got := v.Float(); math.Float64bits(got) != 0 {
			t.Errorf("NewInt(%d).Float() = %v, want 0", i, got)
		}
	}
	for _, v := range []Value{Null, NewString("x"), NewBool(true)} {
		if v.Float() != 0 {
			t.Errorf("%s.Float() = %v, want 0", v.Kind(), v.Float())
		}
	}
}

// TestCompareAgreesWithKeyOf checks, over a seeded sample of ints near
// ±2^53 and ±2^63 and of floats, that two numbers compare equal exactly when
// their keys are equal: the join and group tables rely on keys for what
// Compare calls equality. NaN is left out. Compare calls a NaN equal to
// every number while KeyOf gives it a key of its own (ROADMAP item 37's
// known defect), so the law does not hold for it yet.
func TestCompareAgreesWithKeyOf(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	near := func(base float64) float64 { return base + float64(rng.Intn(9)-4) }
	var vals []Value
	for i := 0; i < 40; i++ {
		for _, base := range []int64{1 << 53, -1 << 53, math.MaxInt64, math.MinInt64} {
			d := int64(rng.Intn(9) - 4)
			if (base == math.MaxInt64 && d > 0) || (base == math.MinInt64 && d < 0) {
				d = -d // stay in range
			}
			vals = append(vals, NewInt(base+d))
		}
		vals = append(vals,
			NewFloat(near(1<<53)), NewFloat(-near(1<<53)),
			NewFloat(math.Ldexp(1, 63)), NewFloat(-math.Ldexp(1, 63)),
			NewFloat(math.Nextafter(math.Ldexp(1, 63), 0)),
			NewFloat(rng.NormFloat64()*1e6), NewFloat(float64(rng.Intn(7)-3)),
			NewInt(int64(rng.Intn(7)-3)), NewFloat(math.Copysign(0, -1)),
			NewFloat(math.Inf(1)), NewFloat(math.Inf(-1)))
	}
	for _, a := range vals {
		for _, b := range vals {
			c, ok := Compare(a, b)
			if !ok {
				t.Fatalf("Compare(%v, %v) not ok", a, b)
			}
			if (c == 0) != (KeyOf(a) == KeyOf(b)) {
				t.Fatalf("Compare(%v %s, %v %s) = %d but keys equal = %v",
					a, a.Kind(), b, b.Kind(), c, KeyOf(a) == KeyOf(b))
			}
		}
	}
}
