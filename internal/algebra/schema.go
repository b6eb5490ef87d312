package algebra

import "udfdecorr/internal/sqltypes"

// ResolveRef finds the column a (qual, name) reference resolves to in a
// schema. Unqualified references match any qualifier; the first match wins
// (the algebrizer guarantees unambiguous references).
func ResolveRef(schema []Column, qual, name string) (Column, bool) {
	if i := RefIndex(schema, qual, name); i >= 0 {
		return schema[i], true
	}
	return Column{}, false
}

// RefIndex returns the position of the column ResolveRef finds, or -1.
func RefIndex(schema []Column, qual, name string) int {
	for i, c := range schema {
		if c.Matches(qual, name) {
			return i
		}
	}
	return -1
}

// HasRef reports whether the schema provides the referenced column.
func HasRef(schema []Column, qual, name string) bool {
	_, ok := ResolveRef(schema, qual, name)
	return ok
}

// TypeOf infers the static type of an expression against a schema. It is
// best effort: unknown types come back as KindNull (the engine is
// dynamically typed at runtime).
func TypeOf(e Expr, schema []Column) sqltypes.Kind {
	switch x := e.(type) {
	case *ColRef:
		if c, ok := ResolveRef(schema, x.Qual, x.Name); ok {
			return c.Type
		}
		return sqltypes.KindNull
	case *Const:
		return x.Val.Kind()
	case *Arith:
		lt, rt := TypeOf(x.L, schema), TypeOf(x.R, schema)
		if lt == sqltypes.KindFloat || rt == sqltypes.KindFloat {
			return sqltypes.KindFloat
		}
		if lt == sqltypes.KindInt && rt == sqltypes.KindInt {
			return sqltypes.KindInt
		}
		return sqltypes.KindNull
	case *Cmp, *Logic, *Not, *IsNull, *Exists:
		return sqltypes.KindBool
	case *Case:
		for _, w := range x.Whens {
			if t := TypeOf(w.Then, schema); t != sqltypes.KindNull {
				return t
			}
		}
		if x.Else != nil {
			return TypeOf(x.Else, schema)
		}
		return sqltypes.KindNull
	case *Subquery:
		cols := x.Rel.Schema()
		if len(cols) == 1 {
			return cols[0].Type
		}
		return sqltypes.KindNull
	case *Call:
		switch x.Name {
		case "abs", "length":
			return sqltypes.KindInt
		case "upper", "lower", "concat", "substr":
			return sqltypes.KindString
		}
		return sqltypes.KindNull
	}
	return sqltypes.KindNull
}

// ColRefsTo returns ColRef expressions for every column of a schema,
// preserving qualifiers.
func ColRefsTo(schema []Column) []Expr {
	out := make([]Expr, len(schema))
	for i, c := range schema {
		out[i] = &ColRef{Qual: c.Qual, Name: c.Name}
	}
	return out
}

// IdentityProjCols builds pass-through projection columns for a schema.
func IdentityProjCols(schema []Column) []ProjCol {
	out := make([]ProjCol, len(schema))
	for i, c := range schema {
		out[i] = ProjCol{E: &ColRef{Qual: c.Qual, Name: c.Name}, Qual: c.Qual, As: c.Name}
	}
	return out
}
