package sqltypes

import (
	"math"
	"math/rand"
	"testing"
)

// TestKeyIndexMatchesReference feeds seeded key streams to a KeyIndex and
// to a reference map over KeyOf that numbers keys in first-seen order:
// every Add must return the reference's id and report a new key exactly
// when the reference has not seen it, and afterwards Get must find
// every key under its id and miss keys never added. The integer stream
// must stay on the integer index; the switching stream leaves it midway,
// and the ids handed out before the switch must survive it.
func TestKeyIndexMatchesReference(t *testing.T) {
	I, F, S, B := NewInt, NewFloat, NewString, NewBool
	r := rand.New(rand.NewSource(68))
	edges := []int64{0, 1, -1, 1<<53 - 1, 1 << 53, 1<<53 + 1, -(1<<53 - 1), -(1 << 53), -(1<<53 + 1),
		math.MaxInt64, math.MaxInt64 - 1, math.MinInt64, math.MinInt64 + 1}
	intKey := func() Value {
		switch r.Intn(4) {
		case 0:
			return I(edges[r.Intn(len(edges))])
		case 1:
			// An integral float: 3.0 must share 3's id, -0.0 must share 0's.
			switch r.Intn(4) {
			case 0:
				return F(math.Copysign(0, -1))
			case 1:
				return F(1 << 53)
			case 2:
				return F(-(1 << 63))
			}
			return F(float64(r.Intn(40) - 20))
		}
		return I(int64(r.Intn(40) - 20))
	}
	otherKey := func() Value {
		switch r.Intn(5) {
		case 0:
			return F(float64(r.Intn(40)-20) + 0.5)
		case 1:
			return F(1 << 63) // integral, but past int64
		case 2:
			return S(string(rune('a' + r.Intn(6))))
		case 3:
			return B(r.Intn(2) == 0)
		}
		return intKey()
	}
	anyKey := func() Value {
		if r.Intn(2) == 0 {
			return intKey()
		}
		return otherKey()
	}
	streams := []struct {
		name    string
		width   int
		key     func(i, n int) Value
		intOnly bool
	}{
		{"ints", 1, func(int, int) Value { return intKey() }, true},
		{"ints then strings", 1, func(i, n int) Value {
			if i < n/2 {
				return intKey()
			}
			return otherKey()
		}, false},
		{"mixed", 1, func(int, int) Value { return anyKey() }, false},
		{"two columns", 2, func(int, int) Value { return anyKey() }, false},
	}
	for _, st := range streams {
		t.Run(st.name, func(t *testing.T) {
			const n = 3000
			vecs := make([][]Value, st.width)
			for c := range vecs {
				vecs[c] = make([]Value, n)
			}
			for i := 0; i < n; i++ {
				for c := range vecs {
					vecs[c][i] = st.key(i, n)
				}
			}
			tuple := func(p int) []Value {
				out := make([]Value, st.width)
				for c := range vecs {
					out[c] = vecs[c][p]
				}
				return out
			}
			var x KeyIndex
			ref := map[string]int32{}
			check := func(p int) {
				t.Helper()
				k := KeyOf(tuple(p)...)
				want, seen := ref[k]
				if !seen {
					want = int32(len(ref))
					ref[k] = want
				}
				id, added := x.Add(vecs, p)
				if id != want || added == seen {
					t.Fatalf("add %v: id %d added %v, want id %d added %v", tuple(p), id, added, want, !seen)
				}
			}
			for p := 0; p < n; p++ {
				check(p)
			}
			// Adding the stream again, after any switch, finds every id.
			for p := 0; p < n; p++ {
				check(p)
			}
			if x.Len() != len(ref) {
				t.Fatalf("len %d, want %d", x.Len(), len(ref))
			}
			if st.intOnly && x.enc != nil {
				t.Fatal("an integer stream left the integer index")
			}
			if !st.intOnly && x.enc == nil {
				t.Fatal("the stream never left the integer index")
			}
			for p := 0; p < n; p++ {
				id, ok := x.Get(vecs, p)
				if want := ref[KeyOf(tuple(p)...)]; !ok || id != want {
					t.Fatalf("get %v: id %d ok %v, want %d", tuple(p), id, ok, want)
				}
			}
			absent := make([][]Value, st.width)
			for c := range absent {
				absent[c] = []Value{I(12345), S("zz"), F(0.25)}
			}
			for p := range absent[0] {
				if id, ok := x.Get(absent, p); ok {
					t.Fatalf("get of an absent key found id %d", id)
				}
			}
		})
	}
	var empty KeyIndex
	if _, ok := empty.Get([][]Value{{I(1)}}, 0); ok {
		t.Fatal("an empty index found a key")
	}
}
