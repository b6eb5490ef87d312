package bench

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// CanonicalCell normalizes one rendered (SQL-literal-syntax) cell for
// result comparison: every numeric rounds to 9 significant digits, because
// parallel aggregation may re-associate float additions across worker
// partials. The renderer prints whole-valued floats without a decimal point
// (12345.0 becomes "12345"), so integers and floats are indistinguishable
// here and ALL in-range numerics must canonicalize the same way for both
// sides of a comparison to agree; integers beyond float53 precision stay
// exact strings (a float could not have produced them losslessly). String
// literals arrive quoted and are left alone.
func CanonicalCell(s string) string {
	if s == "" || strings.HasPrefix(s, "'") {
		return s
	}
	f, err := strconv.ParseFloat(s, 64)
	if err != nil || math.Abs(f) >= 1<<53 {
		return s
	}
	return fmt.Sprintf("f:%.9g", f)
}

// CanonicalRows renders a rendered-row multiset order-insensitively for
// comparison (shared by udfctl and the database/sql driver differential
// tests, so their float tolerance cannot drift apart).
func CanonicalRows(rows [][]string) string {
	keys := make([]string, len(rows))
	for i, r := range rows {
		cells := make([]string, len(r))
		for j, c := range r {
			cells[j] = CanonicalCell(c)
		}
		keys[i] = strings.Join(cells, "\x1f")
	}
	sort.Strings(keys)
	return strings.Join(keys, "\x1e")
}
