package sqltypes

import "fmt"

// ArithOp enumerates binary arithmetic operators.
type ArithOp uint8

// Arithmetic operators.
const (
	OpAdd ArithOp = iota
	OpSub
	OpMul
	OpDiv
	OpMod
)

// String returns the SQL spelling of the operator.
func (op ArithOp) String() string {
	switch op {
	case OpAdd:
		return "+"
	case OpSub:
		return "-"
	case OpMul:
		return "*"
	case OpDiv:
		return "/"
	case OpMod:
		return "%"
	default:
		return "?"
	}
}

// Arith applies a binary arithmetic operator with SQL semantics:
// NULL operands yield NULL; INT op INT stays INT (division truncates, as in
// most commercial dialects); any FLOAT operand promotes to FLOAT.
// Division or modulo by zero is an error, and so is a float modulo operand
// int64 cannot hold.
func Arith(op ArithOp, a, b Value) (Value, error) {
	if a.IsNull() || b.IsNull() {
		return Null, nil
	}
	if !a.IsNumeric() || !b.IsNumeric() {
		return Null, fmt.Errorf("arithmetic on non-numeric values %s %s %s", a, op, b)
	}
	if a.kind == KindInt && b.kind == KindInt {
		x, y := a.i, b.i
		switch op {
		case OpAdd:
			return NewInt(x + y), nil
		case OpSub:
			return NewInt(x - y), nil
		case OpMul:
			return NewInt(x * y), nil
		case OpDiv:
			if y == 0 {
				return Null, fmt.Errorf("division by zero")
			}
			return NewInt(x / y), nil
		case OpMod:
			if y == 0 {
				return Null, fmt.Errorf("modulo by zero")
			}
			return NewInt(x % y), nil
		}
	}
	x, _ := a.AsFloat()
	y, _ := b.AsFloat()
	switch op {
	case OpAdd:
		return NewFloat(x + y), nil
	case OpSub:
		return NewFloat(x - y), nil
	case OpMul:
		return NewFloat(x * y), nil
	case OpDiv:
		if y == 0 {
			return Null, fmt.Errorf("division by zero")
		}
		return NewFloat(x / y), nil
	case OpMod:
		// Float modulo truncates both operands to int64, so any divisor in
		// (-1, 1) is an integer zero. NaN, the infinities and values
		// outside [-2^63, 2^63) have no int64 truncation (Go leaves the
		// conversion undefined), so they are an error, not a wrapped result.
		if !truncatesToInt64(x) || !truncatesToInt64(y) {
			return Null, fmt.Errorf("modulo operand out of integer range: %s %% %s", a, b)
		}
		if int64(y) == 0 {
			return Null, fmt.Errorf("modulo by zero")
		}
		return NewFloat(float64(int64(x) % int64(y))), nil
	}
	return Null, fmt.Errorf("unknown arithmetic operator")
}

// truncatesToInt64 reports whether int64(f) is defined: f is a number in
// [-2^63, 2^63).
func truncatesToInt64(f float64) bool {
	return f >= -0x1p63 && f < 0x1p63
}

// Concat concatenates two values as strings with NULL propagation.
func Concat(a, b Value) Value {
	if a.IsNull() || b.IsNull() {
		return Null
	}
	return NewString(a.Display() + b.Display())
}

// CmpOp enumerates comparison operators.
type CmpOp uint8

// Comparison operators.
const (
	CmpEQ CmpOp = iota
	CmpNE
	CmpLT
	CmpLE
	CmpGT
	CmpGE
)

// String returns the SQL spelling of the comparison operator.
func (op CmpOp) String() string {
	switch op {
	case CmpEQ:
		return "="
	case CmpNE:
		return "<>"
	case CmpLT:
		return "<"
	case CmpLE:
		return "<="
	case CmpGT:
		return ">"
	case CmpGE:
		return ">="
	default:
		return "?"
	}
}

// Mirror returns the operator with its operands swapped: a < b is b > a.
func (op CmpOp) Mirror() CmpOp {
	switch op {
	case CmpLT:
		return CmpGT
	case CmpLE:
		return CmpGE
	case CmpGT:
		return CmpLT
	case CmpGE:
		return CmpLE
	}
	return op
}

// Negate returns the logical negation of the operator (e.g. = becomes <>).
func (op CmpOp) Negate() CmpOp {
	switch op {
	case CmpEQ:
		return CmpNE
	case CmpNE:
		return CmpEQ
	case CmpLT:
		return CmpGE
	case CmpLE:
		return CmpGT
	case CmpGT:
		return CmpLE
	case CmpGE:
		return CmpLT
	}
	return op
}

// Cmp evaluates a comparison with SQL semantics, returning a Tri
// (Unknown when either side is NULL or the kinds are incomparable).
func Cmp(op CmpOp, a, b Value) Tri {
	c, ok := Compare(a, b)
	if !ok {
		return Unknown
	}
	var r bool
	switch op {
	case CmpEQ:
		r = c == 0
	case CmpNE:
		r = c != 0
	case CmpLT:
		r = c < 0
	case CmpLE:
		r = c <= 0
	case CmpGT:
		r = c > 0
	case CmpGE:
		r = c >= 0
	}
	if r {
		return True
	}
	return False
}
