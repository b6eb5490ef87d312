package sqltypes

import (
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestKindString(t *testing.T) {
	cases := map[Kind]string{
		KindNull: "NULL", KindInt: "INT", KindFloat: "FLOAT",
		KindString: "VARCHAR", KindBool: "BOOLEAN",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, got, want)
		}
	}
}

func TestZeroValueIsNull(t *testing.T) {
	var v Value
	if !v.IsNull() {
		t.Fatal("zero Value must be NULL")
	}
	if v.Kind() != KindNull {
		t.Fatalf("zero Value kind = %v", v.Kind())
	}
}

func TestConstructorsAndAccessors(t *testing.T) {
	if v := NewInt(42); v.Int() != 42 || v.Kind() != KindInt {
		t.Errorf("NewInt: %v", v)
	}
	if v := NewFloat(2.5); v.Float() != 2.5 || v.Kind() != KindFloat {
		t.Errorf("NewFloat: %v", v)
	}
	if v := NewString("hi"); v.Str() != "hi" || v.Kind() != KindString {
		t.Errorf("NewString: %v", v)
	}
	if v := NewBool(true); !v.Bool() || v.Kind() != KindBool {
		t.Errorf("NewBool(true): %v", v)
	}
	if v := NewBool(false); v.Bool() {
		t.Errorf("NewBool(false): %v", v)
	}
}

func TestAsFloatAsInt(t *testing.T) {
	if f, ok := NewInt(3).AsFloat(); !ok || f != 3.0 {
		t.Errorf("int AsFloat = %v,%v", f, ok)
	}
	if f, ok := NewFloat(3.5).AsFloat(); !ok || f != 3.5 {
		t.Errorf("float AsFloat = %v,%v", f, ok)
	}
	if _, ok := NewString("x").AsFloat(); ok {
		t.Error("string AsFloat should fail")
	}
	if _, ok := Null.AsFloat(); ok {
		t.Error("null AsFloat should fail")
	}
	if i, ok := NewFloat(3.9).AsInt(); !ok || i != 3 {
		t.Errorf("float AsInt = %v,%v", i, ok)
	}
	if i, ok := NewInt(-7).AsInt(); !ok || i != -7 {
		t.Errorf("int AsInt = %v,%v", i, ok)
	}
}

func TestValueString(t *testing.T) {
	cases := []struct {
		v    Value
		want string
	}{
		{Null, "NULL"},
		{NewInt(5), "5"},
		{NewFloat(1.5), "1.5"},
		{NewString("a'b"), "'a''b'"},
		{NewBool(true), "TRUE"},
		{NewBool(false), "FALSE"},
		{NewInt(math.MinInt64), "-9223372036854775808"},
		{NewFloat(math.Copysign(0, -1)), "-0"},
		{NewFloat(math.Inf(-1)), "-Inf"},
		{NewFloat(math.NaN()), "NaN"},
		{NewFloat(5e-324), "5e-324"},
		{NewFloat(1e21), "1e+21"},
		{NewString(""), "''"},
		{NewString("''x'"), "'''''x'''"},
		{NewString(strings.Repeat("long ", 10)), "'" + strings.Repeat("long ", 10) + "'"},
	}
	for _, c := range cases {
		if got := c.v.String(); got != c.want {
			t.Errorf("String(%v) = %q, want %q", c.v.Kind(), got, c.want)
		}
		if got := string(c.v.AppendText([]byte("x="))); got != "x="+c.want {
			t.Errorf("AppendText(%v) = %q, want %q", c.v.Kind(), got, "x="+c.want)
		}
	}
	if got := NewString("x").Display(); got != "x" {
		t.Errorf("Display = %q", got)
	}
}

func TestTriLogic(t *testing.T) {
	// Truth tables for SQL 3VL.
	and := [3][3]Tri{
		{False, False, False},
		{False, True, Unknown},
		{False, Unknown, Unknown},
	}
	or := [3][3]Tri{
		{False, True, Unknown},
		{True, True, True},
		{Unknown, True, Unknown},
	}
	vals := []Tri{False, True, Unknown}
	for i, a := range vals {
		for j, b := range vals {
			if got := a.And(b); got != and[i][j] {
				t.Errorf("%v AND %v = %v, want %v", a, b, got, and[i][j])
			}
			if got := a.Or(b); got != or[i][j] {
				t.Errorf("%v OR %v = %v, want %v", a, b, got, or[i][j])
			}
		}
	}
	if True.Not() != False || False.Not() != True || Unknown.Not() != Unknown {
		t.Error("Not truth table broken")
	}
}

func TestTriOfAndBack(t *testing.T) {
	if TriOf(Null) != Unknown {
		t.Error("TriOf(NULL)")
	}
	if TriOf(NewBool(true)) != True || TriOf(NewBool(false)) != False {
		t.Error("TriOf(bool)")
	}
	if TriOf(NewInt(7)) != True || TriOf(NewInt(0)) != False {
		t.Error("TriOf(int) coercion")
	}
	if !TriValue(Unknown).IsNull() {
		t.Error("TriValue(Unknown) should be NULL")
	}
	if !TriValue(True).Bool() || TriValue(False).Bool() {
		t.Error("TriValue bool round trip")
	}
}

func TestCompare(t *testing.T) {
	if _, ok := Compare(Null, NewInt(1)); ok {
		t.Error("NULL compares should fail")
	}
	if c, ok := Compare(NewInt(1), NewFloat(1.0)); !ok || c != 0 {
		t.Error("numeric promotion in compare")
	}
	if c, ok := Compare(NewInt(2), NewInt(3)); !ok || c != -1 {
		t.Error("int compare")
	}
	if c, ok := Compare(NewString("a"), NewString("b")); !ok || c >= 0 {
		t.Error("string compare")
	}
	if _, ok := Compare(NewString("a"), NewInt(1)); ok {
		t.Error("cross-kind compare should fail")
	}
	if c, ok := Compare(NewBool(false), NewBool(true)); !ok || c >= 0 {
		t.Error("bool compare")
	}
}

// TestCompareIntFloatExact pins the mixed int/float order beyond 2^53,
// where float64 cannot hold every int: the int is never rounded.
func TestCompareIntFloatExact(t *testing.T) {
	const p53 = 1 << 53
	cases := []struct {
		i    int64
		f    float64
		want int
	}{
		{p53 + 1, p53, 1},
		{p53, p53, 0},
		{p53 - 1, p53, -1},
		{-p53 - 1, -p53, -1},
		{1, 1.5, -1},
		{2, 1.5, 1},
		{-1, -0.5, -1},
		{0, math.Copysign(0, -1), 0},
		{math.MaxInt64, 1 << 63, -1},
		{math.MinInt64, -(1 << 63), 0},
		{math.MinInt64, math.Inf(-1), 1},
		{math.MaxInt64, math.Inf(1), -1},
		{5, math.NaN(), 0},
	}
	for _, c := range cases {
		if got := CompareIntFloat(c.i, c.f); got != c.want {
			t.Errorf("CompareIntFloat(%d, %v) = %d, want %d", c.i, c.f, got, c.want)
		}
		got, ok := Compare(NewInt(c.i), NewFloat(c.f))
		if !ok || got != c.want {
			t.Errorf("Compare(%d, %v) = %d, want %d", c.i, c.f, got, c.want)
		}
		if got, _ := Compare(NewFloat(c.f), NewInt(c.i)); got != -c.want {
			t.Errorf("Compare(%v, %d) = %d, want %d", c.f, c.i, got, -c.want)
		}
		// Equal under Compare iff the keys are equal, so a filter, a hash
		// join and a GROUP BY agree.
		if math.IsNaN(c.f) {
			continue
		}
		if sameKey := KeyOf(NewInt(c.i)) == KeyOf(NewFloat(c.f)); sameKey != (c.want == 0) {
			t.Errorf("%d vs %v: same key = %v, compare = %d", c.i, c.f, sameKey, c.want)
		}
	}
}

func TestTotalCompareIsTotalOrder(t *testing.T) {
	vals := []Value{Null, NewBool(false), NewBool(true), NewInt(-1), NewInt(0),
		NewFloat(0.5), NewInt(1), NewString(""), NewString("z")}
	for i := range vals {
		for j := range vals {
			c := TotalCompare(vals[i], vals[j])
			d := TotalCompare(vals[j], vals[i])
			if c != -d {
				t.Errorf("antisymmetry broken for %v,%v", vals[i], vals[j])
			}
			if i == j && c != 0 {
				t.Errorf("reflexivity broken for %v", vals[i])
			}
		}
	}
	// NULL sorts first.
	for _, v := range vals[1:] {
		if TotalCompare(Null, v) >= 0 {
			t.Errorf("NULL should sort before %v", v)
		}
	}
}

func TestArithIntAndFloat(t *testing.T) {
	cases := []struct {
		op   ArithOp
		a, b Value
		want Value
	}{
		{OpAdd, NewInt(2), NewInt(3), NewInt(5)},
		{OpSub, NewInt(2), NewInt(3), NewInt(-1)},
		{OpMul, NewInt(4), NewInt(3), NewInt(12)},
		{OpDiv, NewInt(7), NewInt(2), NewInt(3)},
		{OpMod, NewInt(7), NewInt(2), NewInt(1)},
		{OpAdd, NewInt(2), NewFloat(0.5), NewFloat(2.5)},
		{OpMul, NewFloat(1.5), NewInt(2), NewFloat(3)},
		{OpDiv, NewFloat(7), NewFloat(2), NewFloat(3.5)},
	}
	for _, c := range cases {
		got, err := Arith(c.op, c.a, c.b)
		if err != nil {
			t.Errorf("%v %v %v: %v", c.a, c.op, c.b, err)
			continue
		}
		if !Equal(got, c.want) {
			t.Errorf("%v %v %v = %v, want %v", c.a, c.op, c.b, got, c.want)
		}
	}
}

func TestArithNullPropagation(t *testing.T) {
	for _, op := range []ArithOp{OpAdd, OpSub, OpMul, OpDiv, OpMod} {
		if v, err := Arith(op, Null, NewInt(1)); err != nil || !v.IsNull() {
			t.Errorf("NULL %v 1 should be NULL", op)
		}
		if v, err := Arith(op, NewInt(1), Null); err != nil || !v.IsNull() {
			t.Errorf("1 %v NULL should be NULL", op)
		}
	}
}

func TestArithErrors(t *testing.T) {
	if _, err := Arith(OpDiv, NewInt(1), NewInt(0)); err == nil {
		t.Error("int division by zero should error")
	}
	if _, err := Arith(OpDiv, NewFloat(1), NewFloat(0)); err == nil {
		t.Error("float division by zero should error")
	}
	if _, err := Arith(OpMod, NewInt(1), NewInt(0)); err == nil {
		t.Error("modulo by zero should error")
	}
	if _, err := Arith(OpAdd, NewString("a"), NewInt(1)); err == nil {
		t.Error("string arithmetic should error")
	}
}

// TestFloatModuloByFraction pins float modulo's int64 truncation: a divisor
// in (-1, 1) truncates to zero and must be an error, not a runtime panic,
// and an operand with no int64 truncation (NaN, the infinities, values
// outside [-2^63, 2^63)) is an error, not a wrapped result.
func TestFloatModuloByFraction(t *testing.T) {
	for _, y := range []float64{0.5, -0.5, 0.999} {
		_, err := Arith(OpMod, NewInt(7), NewFloat(y))
		if err == nil || err.Error() != "modulo by zero" {
			t.Errorf("7 %% %v: err = %v, want modulo by zero", y, err)
		}
	}
	for _, v := range []float64{1e19, -1e19, 0x1p63, -0x1p64, math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, c := range [][2]Value{{NewFloat(v), NewFloat(3)}, {NewInt(7), NewFloat(v)}} {
			got, err := Arith(OpMod, c[0], c[1])
			if err == nil || !strings.HasPrefix(err.Error(), "modulo operand out of integer range") {
				t.Errorf("%v %% %v = %v, %v; want an out-of-range error", c[0], c[1], got, err)
			}
		}
	}
	for _, c := range []struct{ x, y, want float64 }{
		{7.5, 2.5, 1}, {-7, 1.5, 0}, {7, -2.9, 1}, {7.5, 2.0, 1},
		{-0x1p63, 3, -2}, {0x1p63 - 1024, 1e18, 223372036854774784}, {7, 0x1p62, 7},
	} {
		got, err := Arith(OpMod, NewFloat(c.x), NewFloat(c.y))
		if err != nil || got.Kind() != KindFloat || got.Float() != c.want {
			t.Errorf("%v %% %v = %v, %v; want %v", c.x, c.y, got, err, c.want)
		}
	}
}

// TestNeg pins negation as the algebrizer compiles unary minus: -x is
// 0 - x, so -(0.0) is +0 and renders as 0.
func TestNeg(t *testing.T) {
	neg := func(v Value) (Value, error) { return Arith(OpSub, NewInt(0), v) }
	if v, _ := neg(NewInt(3)); !Equal(v, NewInt(-3)) {
		t.Error("neg int")
	}
	if v, _ := neg(NewFloat(2.5)); !Equal(v, NewFloat(-2.5)) {
		t.Error("neg float")
	}
	if v, _ := neg(NewFloat(0)); v.Display() != "0" {
		t.Errorf("neg 0.0 renders %q, want 0", v.Display())
	}
	if v, _ := neg(Null); !v.IsNull() {
		t.Error("neg NULL")
	}
	if _, err := neg(NewString("x")); err == nil {
		t.Error("neg string should error")
	}
}

func TestConcat(t *testing.T) {
	if v := Concat(NewString("a"), NewString("b")); v.Str() != "ab" {
		t.Error("concat strings")
	}
	if v := Concat(NewString("a"), NewInt(1)); v.Str() != "a1" {
		t.Error("concat mixed")
	}
	if v := Concat(Null, NewString("b")); !v.IsNull() {
		t.Error("concat NULL")
	}
}

func TestCmp(t *testing.T) {
	if Cmp(CmpEQ, NewInt(1), NewFloat(1)) != True {
		t.Error("1 = 1.0")
	}
	if Cmp(CmpLT, NewInt(1), NewInt(2)) != True {
		t.Error("1 < 2")
	}
	if Cmp(CmpGE, NewString("b"), NewString("a")) != True {
		t.Error("b >= a")
	}
	if Cmp(CmpNE, NewInt(1), NewInt(1)) != False {
		t.Error("1 <> 1")
	}
	if Cmp(CmpEQ, Null, NewInt(1)) != Unknown {
		t.Error("NULL = 1 should be Unknown")
	}
	if Cmp(CmpEQ, NewString("a"), NewInt(1)) != Unknown {
		t.Error("cross-kind compare should be Unknown")
	}
}

func TestCmpOpNegate(t *testing.T) {
	ops := []CmpOp{CmpEQ, CmpNE, CmpLT, CmpLE, CmpGT, CmpGE}
	for _, op := range ops {
		n := op.Negate()
		if n.Negate() != op {
			t.Errorf("double negation of %v", op)
		}
		// Semantics: for non-null comparable values, op and its negation
		// must produce opposite results.
		a, b := NewInt(3), NewInt(5)
		if Cmp(op, a, b) == Cmp(n, a, b) {
			t.Errorf("%v and %v agree on (3,5)", op, n)
		}
	}
}

func TestEncodeKeyDistinctness(t *testing.T) {
	vals := []Value{
		Null, NewBool(false), NewBool(true), NewInt(0), NewInt(1),
		NewFloat(0.5), NewString(""), NewString("a"), NewString("ab"),
		// Beyond 2^53 float64 rounds ...993 to ...992.
		NewInt(9007199254740993), NewInt(9007199254740992),
		NewInt(math.MaxInt64), NewInt(math.MinInt64 + 1),
	}
	seen := map[string]Value{}
	for _, v := range vals {
		k := KeyOf(v)
		if prev, dup := seen[k]; dup {
			t.Errorf("key collision between %v and %v", prev, v)
		}
		seen[k] = v
	}
	// Numeric promotion: 1 and 1.0 must encode the same.
	if KeyOf(NewInt(1)) != KeyOf(NewFloat(1)) {
		t.Error("1 and 1.0 should share a key")
	}
	if KeyOf(NewInt(9007199254740992)) != KeyOf(NewFloat(9007199254740992)) {
		t.Error("2^53 and 2^53.0 should share a key")
	}
	// -0.0 and 0.0 normalize.
	if KeyOf(NewFloat(0)) != KeyOf(NewFloat(-0.0)) {
		t.Error("-0.0 should normalize")
	}
	// Tuple keys must not be ambiguous across boundaries.
	if KeyOf(NewString("a"), NewString("b")) == KeyOf(NewString("ab"), NewString("")) {
		t.Error("tuple key ambiguity")
	}
}

// randomValue generates an arbitrary Value for property tests.
func randomValue(r *rand.Rand) Value {
	switch r.Intn(5) {
	case 0:
		return Null
	case 1:
		return NewInt(int64(r.Intn(200) - 100))
	case 2:
		return NewFloat(float64(r.Intn(200)-100) / 4)
	case 3:
		return NewString(string(rune('a' + r.Intn(26))))
	default:
		return NewBool(r.Intn(2) == 0)
	}
}

type valuePair struct{ A, B Value }

// Generate implements quick.Generator.
func (valuePair) Generate(r *rand.Rand, _ int) reflect.Value {
	return reflect.ValueOf(valuePair{randomValue(r), randomValue(r)})
}

func TestQuickCompareSymmetry(t *testing.T) {
	f := func(p valuePair) bool {
		c1, ok1 := Compare(p.A, p.B)
		c2, ok2 := Compare(p.B, p.A)
		if ok1 != ok2 {
			return false
		}
		return !ok1 || c1 == -c2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestQuickKeyEqualsIffCompareEquals(t *testing.T) {
	f := func(p valuePair) bool {
		sameKey := KeyOf(p.A) == KeyOf(p.B)
		c, ok := Compare(p.A, p.B)
		if p.A.IsNull() && p.B.IsNull() {
			return sameKey // NULL keys group together
		}
		if !ok {
			return !sameKey || p.A.Kind() == p.B.Kind()
		}
		return sameKey == (c == 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestQuickTriDeMorgan(t *testing.T) {
	f := func(p valuePair) bool {
		a, b := TriOf(p.A), TriOf(p.B)
		return a.And(b).Not() == a.Not().Or(b.Not()) &&
			a.Or(b).Not() == a.Not().And(b.Not())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestQuickArithCommutativity(t *testing.T) {
	f := func(p valuePair) bool {
		for _, op := range []ArithOp{OpAdd, OpMul} {
			x, errX := Arith(op, p.A, p.B)
			y, errY := Arith(op, p.B, p.A)
			if (errX == nil) != (errY == nil) {
				return false
			}
			if errX == nil && !(x.IsNull() && y.IsNull()) && !Equal(x, y) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}
