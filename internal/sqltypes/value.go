// Package sqltypes implements the SQL value system used throughout the
// library: typed scalar values with SQL NULL semantics, three-valued logic,
// numeric promotion for arithmetic, a total ordering for sorting, and a
// stable binary encoding used as join and grouping keys.
package sqltypes

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Kind enumerates the runtime kinds a Value can take.
type Kind uint8

const (
	// KindNull is the SQL NULL marker; it carries no payload.
	KindNull Kind = iota
	// KindInt is a 64-bit signed integer.
	KindInt
	// KindFloat is a 64-bit IEEE float.
	KindFloat
	// KindString is a variable-length character string.
	KindString
	// KindBool is a boolean (the result of predicates).
	KindBool
)

// String returns the SQL-ish name of the kind.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "NULL"
	case KindInt:
		return "INT"
	case KindFloat:
		return "FLOAT"
	case KindString:
		return "VARCHAR"
	case KindBool:
		return "BOOLEAN"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Value is a single SQL scalar value. The zero Value is NULL.
//
// It is 32 bytes: one payload word holds an INT or BOOL payload or a
// FLOAT's math.Float64bits, beside the string header. Go's compiler keeps
// structs of at most 32 bytes in registers, so the executors pass and
// return values without spilling them to the stack, and the collector
// scans a fifth fewer bytes per cell than with a separate float field.
// Values are never compared with ==, which would compare a float's bits:
// they tell -0.0 from 0.0, which Compare calls equal.
type Value struct {
	kind Kind
	i    int64 // INT or BOOL payload, or a FLOAT's bits (read them with fl)
	s    string
}

// Null is the SQL NULL value.
var Null = Value{}

// NewInt returns an INT value.
func NewInt(v int64) Value { return Value{kind: KindInt, i: v} }

// NewFloat returns a FLOAT value.
func NewFloat(v float64) Value { return Value{kind: KindFloat, i: int64(math.Float64bits(v))} }

// NewString returns a VARCHAR value.
func NewString(v string) Value { return Value{kind: KindString, s: v} }

// NewBool returns a BOOLEAN value.
func NewBool(v bool) Value {
	if v {
		return Value{kind: KindBool, i: 1}
	}
	return Value{kind: KindBool, i: 0}
}

// Kind reports the runtime kind of the value.
func (v Value) Kind() Kind { return v.kind }

// IsNull reports whether the value is SQL NULL.
func (v Value) IsNull() bool { return v.kind == KindNull }

// Int returns the integer payload; callers must check Kind first. A FLOAT
// returns 0, as a BOOL returns its 0/1 and a string or NULL 0.
func (v Value) Int() int64 {
	if v.kind == KindFloat {
		return 0
	}
	return v.i
}

// Float returns the float payload; callers must check Kind first. Any
// other kind returns 0.
func (v Value) Float() float64 {
	if v.kind != KindFloat {
		return 0
	}
	return v.fl()
}

// fl reads the payload word as a float; only a FLOAT's is one.
func (v Value) fl() float64 { return math.Float64frombits(uint64(v.i)) }

// Str returns the string payload; callers must check Kind first.
func (v Value) Str() string { return v.s }

// Bool returns the boolean payload; callers must check Kind first. A FLOAT
// returns false.
func (v Value) Bool() bool { return v.kind != KindFloat && v.i != 0 }

// AsFloat converts a numeric value to float64. NULL and non-numeric values
// return 0 and ok=false.
func (v Value) AsFloat() (float64, bool) {
	switch v.kind {
	case KindInt:
		return float64(v.i), true
	case KindFloat:
		return v.fl(), true
	default:
		return 0, false
	}
}

// AsInt converts a numeric value to int64 (floats are truncated toward zero).
func (v Value) AsInt() (int64, bool) {
	switch v.kind {
	case KindInt:
		return v.i, true
	case KindFloat:
		return int64(v.fl()), true
	default:
		return 0, false
	}
}

// IsNumeric reports whether the value is INT or FLOAT.
func (v Value) IsNumeric() bool { return v.kind == KindInt || v.kind == KindFloat }

// Go maps the value onto the plain Go value space — int64, float64,
// string, bool, or nil for NULL (the shape Scan targets and database/sql
// driver.Value expect).
func (v Value) Go() any {
	switch v.kind {
	case KindInt:
		return v.i
	case KindFloat:
		return v.fl()
	case KindString:
		return v.s
	case KindBool:
		return v.i != 0
	default:
		return nil
	}
}

// String renders the value in SQL literal syntax (NULL unquoted, strings
// single-quoted): the bytes AppendText appends.
func (v Value) String() string {
	var buf [32]byte
	return string(v.AppendText(buf[:0]))
}

// AppendText appends the value's SQL literal text to b: NULL, TRUE and
// FALSE bare, an INT in decimal, a FLOAT in its shortest round-tripping
// form, a string single-quoted with each ' doubled.
func (v Value) AppendText(b []byte) []byte {
	switch v.kind {
	case KindNull:
		return append(b, "NULL"...)
	case KindInt:
		return strconv.AppendInt(b, v.i, 10)
	case KindFloat:
		return strconv.AppendFloat(b, v.fl(), 'g', -1, 64)
	case KindString:
		b = append(b, '\'')
		s := v.s
		for {
			i := strings.IndexByte(s, '\'')
			if i < 0 {
				break
			}
			b = append(append(b, s[:i+1]...), '\'')
			s = s[i+1:]
		}
		return append(append(b, s...), '\'')
	case KindBool:
		if v.i != 0 {
			return append(b, "TRUE"...)
		}
		return append(b, "FALSE"...)
	default:
		return append(b, '?')
	}
}

// Display renders the value for result tables (strings unquoted).
func (v Value) Display() string {
	if v.kind == KindString {
		return v.s
	}
	return v.String()
}

// Tri is the three-valued logic truth value of SQL predicates.
type Tri uint8

// Three-valued logic constants.
const (
	False Tri = iota
	True
	Unknown
)

// Not negates a three-valued truth value.
func (t Tri) Not() Tri {
	switch t {
	case True:
		return False
	case False:
		return True
	default:
		return Unknown
	}
}

// And combines two truth values with SQL AND semantics.
func (t Tri) And(o Tri) Tri {
	if t == False || o == False {
		return False
	}
	if t == True && o == True {
		return True
	}
	return Unknown
}

// Or combines two truth values with SQL OR semantics.
func (t Tri) Or(o Tri) Tri {
	if t == True || o == True {
		return True
	}
	if t == False && o == False {
		return False
	}
	return Unknown
}

// TriOf converts a BOOLEAN value to a Tri (NULL maps to Unknown).
func TriOf(v Value) Tri {
	if v.IsNull() {
		return Unknown
	}
	if v.kind == KindBool {
		if v.i != 0 {
			return True
		}
		return False
	}
	// Non-boolean non-null values are truthy when non-zero, mirroring the
	// permissive coercion some procedural dialects perform.
	if f, ok := v.AsFloat(); ok {
		if f != 0 {
			return True
		}
		return False
	}
	return Unknown
}

// TriValue converts a Tri back to a BOOLEAN Value (Unknown maps to NULL).
func TriValue(t Tri) Value {
	switch t {
	case True:
		return NewBool(true)
	case False:
		return NewBool(false)
	default:
		return Null
	}
}

// Compare orders two values with SQL comparison semantics. It returns
// (cmp, Unknown has no meaning here): ok=false when either side is NULL or
// the kinds are incomparable. Numeric kinds compare after promotion.
func Compare(a, b Value) (int, bool) {
	if a.IsNull() || b.IsNull() {
		return 0, false
	}
	if a.IsNumeric() && b.IsNumeric() {
		switch {
		case a.kind == KindInt && b.kind == KindInt:
			switch {
			case a.i < b.i:
				return -1, true
			case a.i > b.i:
				return 1, true
			default:
				return 0, true
			}
		case a.kind == KindInt:
			return CompareIntFloat(a.i, b.fl()), true
		case b.kind == KindInt:
			return -CompareIntFloat(b.i, a.fl()), true
		}
		switch af, bf := a.fl(), b.fl(); {
		case af < bf:
			return -1, true
		case af > bf:
			return 1, true
		default:
			return 0, true
		}
	}
	if a.kind == KindString && b.kind == KindString {
		return strings.Compare(a.s, b.s), true
	}
	if a.kind == KindBool && b.kind == KindBool {
		switch {
		case a.i < b.i:
			return -1, true
		case a.i > b.i:
			return 1, true
		default:
			return 0, true
		}
	}
	return 0, false
}

// CompareIntFloat orders an int against a float exactly: the int is not
// rounded to float64 first, so 9007199254740993 > 9007199254740992.0, as
// their EncodeKey keys differ. A NaN compares "equal" to everything, as in
// the float-float order.
func CompareIntFloat(i int64, f float64) int {
	fi := float64(i)
	switch {
	case fi < f:
		return -1
	case fi > f:
		return 1
	case fi != f: // NaN
		return 0
	}
	// Rounding to float64 is monotone, so only a tie can hide an order. A
	// tie means f is an integer in [-2^63, 2^63]; all but 2^63 fit int64.
	if f >= 1<<63 {
		return -1
	}
	switch t := int64(f); {
	case i < t:
		return -1
	case i > t:
		return 1
	default:
		return 0
	}
}

// TotalCompare is a total order over values used for sorting: NULL sorts
// first, then booleans, numbers, strings. It never fails.
func TotalCompare(a, b Value) int {
	ra, rb := totalRank(a), totalRank(b)
	if ra != rb {
		return ra - rb
	}
	if c, ok := Compare(a, b); ok {
		return c
	}
	return 0
}

func totalRank(v Value) int {
	switch v.kind {
	case KindNull:
		return 0
	case KindBool:
		return 1
	case KindInt, KindFloat:
		return 2
	case KindString:
		return 3
	default:
		return 4
	}
}

// Equal reports strict SQL equality (NULL = anything is not equal; this is
// the ok && cmp==0 shorthand).
func Equal(a, b Value) bool {
	c, ok := Compare(a, b)
	return ok && c == 0
}

// EncodeKey appends a stable binary encoding of v to dst. Distinct values
// get distinct encodings and numerically-equal INT/FLOAT values encode
// identically, so encodings can serve as hash-join and group-by keys.
func EncodeKey(dst []byte, v Value) []byte {
	switch v.kind {
	case KindNull:
		return append(dst, 0x00)
	case KindBool:
		if v.i != 0 {
			return append(dst, 0x01, 0x01)
		}
		return append(dst, 0x01, 0x00)
	case KindInt, KindFloat:
		// Numerics encode as float64 bits, so 1 and 1.0 share a key. An
		// int that float64 cannot hold exactly (beyond ±2^53) encodes its
		// own bits under a tag of its own, so no other value shares its key.
		f, _ := v.AsFloat()
		tag, bits := byte(0x02), math.Float64bits(f)
		if v.kind == KindInt && (f >= 1<<63 || int64(f) != v.i) {
			tag, bits = 0x04, uint64(v.i)
		} else if f == 0 { // normalize -0.0
			bits = 0
		}
		dst = append(dst, tag)
		for shift := 56; shift >= 0; shift -= 8 {
			dst = append(dst, byte(bits>>uint(shift)))
		}
		return dst
	case KindString:
		dst = append(dst, 0x03)
		n := len(v.s)
		dst = append(dst, byte(n>>24), byte(n>>16), byte(n>>8), byte(n))
		return append(dst, v.s...)
	default:
		return append(dst, 0xff)
	}
}

// KeyOf encodes a tuple of values into a single string key.
func KeyOf(vals ...Value) string {
	var buf []byte
	for _, v := range vals {
		buf = EncodeKey(buf, v)
	}
	return string(buf)
}
