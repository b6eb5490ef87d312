package algebra

import (
	"fmt"
	"strings"

	"udfdecorr/internal/sqltypes"
)

// Column is one column of a relation's schema.
type Column struct {
	Qual string // table alias or "" for computed/variable columns
	Name string
	Type sqltypes.Kind
}

// String renders the column as qual.name.
func (c Column) String() string {
	if c.Qual != "" {
		return c.Qual + "." + c.Name
	}
	return c.Name
}

// Matches reports whether a reference (qual may be empty) resolves to this
// column.
func (c Column) Matches(qual, name string) bool {
	return c.Name == name && (qual == "" || qual == c.Qual)
}

// JoinKind enumerates join and apply flavours: cross product, inner join,
// left outer join, left semijoin and left antijoin (Section II).
type JoinKind uint8

// Join kinds.
const (
	CrossJoin JoinKind = iota
	InnerJoin
	LeftOuterJoin
	SemiJoin
	AntiJoin
)

// String names the join kind.
func (k JoinKind) String() string {
	switch k {
	case CrossJoin:
		return "cross"
	case InnerJoin:
		return "inner"
	case LeftOuterJoin:
		return "leftouter"
	case SemiJoin:
		return "semi"
	case AntiJoin:
		return "anti"
	default:
		return "?"
	}
}

// Rel is a logical relational operator tree node.
type Rel interface {
	// Schema returns the output columns.
	Schema() []Column
	// Children returns the relational children in a stable order.
	Children() []Rel
	// WithChildren returns a copy of the node with the children replaced;
	// len(ch) must equal len(Children()).
	WithChildren(ch []Rel) Rel
	// Describe returns a one-line description for tree printing.
	Describe() string
}

// ---------------------------------------------------------------------------
// Standard operators
// ---------------------------------------------------------------------------

// Scan reads a base table under an alias.
type Scan struct {
	Table string
	Alias string // qualifier for output columns (defaults to table name)
	Cols  []Column
}

// Single is the relation S with a single empty tuple and no attributes
// (Section III).
type Single struct{}

// Select filters rows by a predicate (σ).
type Select struct {
	Pred Expr
	In   Rel
}

// ProjCol is one output column of a projection: an expression with a result
// name (generalized projection, Section III).
type ProjCol struct {
	E    Expr
	Qual string // optional output qualifier
	As   string
}

// Project is generalized projection (Π / Πd).
type Project struct {
	Cols  []ProjCol
	Dedup bool // true for Π with duplicate elimination
	In    Rel
}

// Join combines two relations (⋈, ⟕, ⋉, ⋉̄, ×).
type Join struct {
	Kind JoinKind
	Cond Expr // nil for cross
	L, R Rel
}

// AggCall is one aggregate computation of a group-by.
type AggCall struct {
	Func     string // sum, count, min, max, avg, or a user-defined aggregate
	Args     []Expr // empty for count(*)
	Distinct bool
	As       string
}

// String renders the aggregate call.
func (a AggCall) String() string {
	parts := make([]string, len(a.Args))
	for i, e := range a.Args {
		parts[i] = e.String()
	}
	inner := strings.Join(parts, ", ")
	if len(a.Args) == 0 {
		inner = "*"
	}
	if a.Distinct {
		inner = "DISTINCT " + inner
	}
	return fmt.Sprintf("%s(%s) AS %s", a.Func, inner, a.As)
}

// GroupBy groups by key columns and computes aggregates (the G operator).
// An empty Keys list is scalar aggregation producing exactly one row.
type GroupBy struct {
	Keys []*ColRef
	Aggs []AggCall
	In   Rel
}

// UnionAll concatenates two relations with identical arity.
type UnionAll struct {
	L, R Rel
}

// Limit returns the first N rows (TOP n).
type Limit struct {
	N  int64
	In Rel
}

// SortKey is one ORDER BY key.
type SortKey struct {
	E    Expr
	Desc bool
}

// Sort orders rows.
type Sort struct {
	Keys []SortKey
	In   Rel
}

// ---------------------------------------------------------------------------
// Apply and its extensions
// ---------------------------------------------------------------------------

// Bind is one parameter mapping of the bind extension (Section III):
// formal parameter Param is assigned the value of Arg (an expression over
// the outer relation) before the inner expression is evaluated.
type Bind struct {
	Param string
	Arg   Expr
}

// Apply evaluates the parameterized right child once per tuple of the left
// child and combines results according to Kind. Binds is the optional
// bind-extension parameter mapping.
type Apply struct {
	Kind  JoinKind
	Binds []Bind
	L, R  Rel
}

// MergeAssign is one assignment of an Apply-Merge: left-child column Target
// receives right-child column Source.
type MergeAssign struct {
	Target string
	Source string
}

// ApplyMerge (AM) evaluates the single-tuple right child per left tuple and
// merges the listed columns into the left tuple (Section III). An empty
// Assigns list means "assign all common attributes". When the right child
// produces no row the targets become NULL — an empty SELECT INTO leaves its
// targets at ⊥, exactly as iterative invocation does; more than one row is a
// runtime error.
type ApplyMerge struct {
	Assigns []MergeAssign
	L, R    Rel
}

// CondApplyMerge (AMC) models assignments inside if-then-else blocks: per
// left tuple, if Pred holds Then is evaluated, otherwise Else, and the
// resulting single tuple is merged by column name. Else may be nil,
// meaning "no assignment" (the existing values are retained).
type CondApplyMerge struct {
	Pred Expr
	Then Rel
	Else Rel // may be nil
	In   Rel
}

// ---------------------------------------------------------------------------
// Schema inference
// ---------------------------------------------------------------------------

// Schema implements Rel.
func (s *Scan) Schema() []Column { return s.Cols }

// Schema implements Rel.
func (s *Single) Schema() []Column { return nil }

// Schema implements Rel.
func (s *Select) Schema() []Column { return s.In.Schema() }

// Schema implements Rel.
func (p *Project) Schema() []Column {
	in := p.In.Schema()
	out := make([]Column, len(p.Cols))
	for i, c := range p.Cols {
		out[i] = Column{Qual: c.Qual, Name: c.As, Type: TypeOf(c.E, in)}
	}
	return out
}

// Schema implements Rel.
func (j *Join) Schema() []Column {
	switch j.Kind {
	case SemiJoin, AntiJoin:
		return j.L.Schema()
	default:
		return append(append([]Column{}, j.L.Schema()...), j.R.Schema()...)
	}
}

// Schema implements Rel.
func (g *GroupBy) Schema() []Column {
	in := g.In.Schema()
	var out []Column
	for _, k := range g.Keys {
		if c, ok := ResolveRef(in, k.Qual, k.Name); ok {
			out = append(out, c)
		} else {
			out = append(out, Column{Qual: k.Qual, Name: k.Name})
		}
	}
	for _, a := range g.Aggs {
		out = append(out, Column{Name: a.As, Type: aggType(a, in)})
	}
	return out
}

func aggType(a AggCall, in []Column) sqltypes.Kind {
	switch a.Func {
	case "count":
		return sqltypes.KindInt
	case "avg":
		return sqltypes.KindFloat
	case "sum", "min", "max":
		if len(a.Args) == 1 {
			return TypeOf(a.Args[0], in)
		}
		return sqltypes.KindNull
	default:
		return sqltypes.KindNull // user-defined: unknown statically
	}
}

// Schema implements Rel.
func (u *UnionAll) Schema() []Column { return u.L.Schema() }

// Schema implements Rel.
func (l *Limit) Schema() []Column { return l.In.Schema() }

// Schema implements Rel.
func (s *Sort) Schema() []Column { return s.In.Schema() }

// Schema implements Rel.
func (a *Apply) Schema() []Column {
	switch a.Kind {
	case SemiJoin, AntiJoin:
		return a.L.Schema()
	default:
		return append(append([]Column{}, a.L.Schema()...), a.R.Schema()...)
	}
}

// Schema implements Rel.
func (a *ApplyMerge) Schema() []Column { return a.L.Schema() }

// Schema implements Rel.
func (a *CondApplyMerge) Schema() []Column { return a.In.Schema() }

// ---------------------------------------------------------------------------
// Children / WithChildren
// ---------------------------------------------------------------------------

// Children implements Rel.
func (s *Scan) Children() []Rel { return nil }

// WithChildren implements Rel.
func (s *Scan) WithChildren(ch []Rel) Rel { return s }

// Children implements Rel.
func (s *Single) Children() []Rel { return nil }

// WithChildren implements Rel.
func (s *Single) WithChildren(ch []Rel) Rel { return s }

// Children implements Rel.
func (s *Select) Children() []Rel { return []Rel{s.In} }

// WithChildren implements Rel.
func (s *Select) WithChildren(ch []Rel) Rel { return &Select{Pred: s.Pred, In: ch[0]} }

// Children implements Rel.
func (p *Project) Children() []Rel { return []Rel{p.In} }

// WithChildren implements Rel.
func (p *Project) WithChildren(ch []Rel) Rel {
	return &Project{Cols: p.Cols, Dedup: p.Dedup, In: ch[0]}
}

// Children implements Rel.
func (j *Join) Children() []Rel { return []Rel{j.L, j.R} }

// WithChildren implements Rel.
func (j *Join) WithChildren(ch []Rel) Rel {
	return &Join{Kind: j.Kind, Cond: j.Cond, L: ch[0], R: ch[1]}
}

// Children implements Rel.
func (g *GroupBy) Children() []Rel { return []Rel{g.In} }

// WithChildren implements Rel.
func (g *GroupBy) WithChildren(ch []Rel) Rel {
	return &GroupBy{Keys: g.Keys, Aggs: g.Aggs, In: ch[0]}
}

// Children implements Rel.
func (u *UnionAll) Children() []Rel { return []Rel{u.L, u.R} }

// WithChildren implements Rel.
func (u *UnionAll) WithChildren(ch []Rel) Rel { return &UnionAll{L: ch[0], R: ch[1]} }

// Children implements Rel.
func (l *Limit) Children() []Rel { return []Rel{l.In} }

// WithChildren implements Rel.
func (l *Limit) WithChildren(ch []Rel) Rel { return &Limit{N: l.N, In: ch[0]} }

// Children implements Rel.
func (s *Sort) Children() []Rel { return []Rel{s.In} }

// WithChildren implements Rel.
func (s *Sort) WithChildren(ch []Rel) Rel { return &Sort{Keys: s.Keys, In: ch[0]} }

// Children implements Rel.
func (a *Apply) Children() []Rel { return []Rel{a.L, a.R} }

// WithChildren implements Rel.
func (a *Apply) WithChildren(ch []Rel) Rel {
	return &Apply{Kind: a.Kind, Binds: a.Binds, L: ch[0], R: ch[1]}
}

// Children implements Rel.
func (a *ApplyMerge) Children() []Rel { return []Rel{a.L, a.R} }

// WithChildren implements Rel.
func (a *ApplyMerge) WithChildren(ch []Rel) Rel {
	return &ApplyMerge{Assigns: a.Assigns, L: ch[0], R: ch[1]}
}

// Children implements Rel.
func (a *CondApplyMerge) Children() []Rel {
	ch := []Rel{a.In, a.Then}
	if a.Else != nil {
		ch = append(ch, a.Else)
	}
	return ch
}

// WithChildren implements Rel.
func (a *CondApplyMerge) WithChildren(ch []Rel) Rel {
	n := &CondApplyMerge{Pred: a.Pred, In: ch[0], Then: ch[1]}
	if len(ch) > 2 {
		n.Else = ch[2]
	}
	return n
}

// ---------------------------------------------------------------------------
// Describe
// ---------------------------------------------------------------------------

// Describe implements Rel.
func (s *Scan) Describe() string {
	if s.Alias != "" && s.Alias != s.Table {
		return "Scan(" + s.Table + " AS " + s.Alias + ")"
	}
	return "Scan(" + s.Table + ")"
}

// Describe implements Rel.
func (s *Single) Describe() string { return "Single" }

// Describe implements Rel.
func (s *Select) Describe() string { return "Select[" + s.Pred.String() + "]" }

// Describe implements Rel.
func (p *Project) Describe() string {
	parts := make([]string, len(p.Cols))
	for i, c := range p.Cols {
		parts[i] = c.E.String() + " AS " + c.As
	}
	name := "Project"
	if p.Dedup {
		name = "ProjectDistinct"
	}
	return name + "[" + strings.Join(parts, ", ") + "]"
}

// Describe implements Rel.
func (j *Join) Describe() string {
	s := "Join(" + j.Kind.String() + ")"
	if j.Cond != nil {
		s += "[" + j.Cond.String() + "]"
	}
	return s
}

// Describe implements Rel.
func (g *GroupBy) Describe() string {
	var keys []string
	for _, k := range g.Keys {
		keys = append(keys, k.String())
	}
	var aggs []string
	for _, a := range g.Aggs {
		aggs = append(aggs, a.String())
	}
	return "GroupBy[" + strings.Join(keys, ", ") + "][" + strings.Join(aggs, ", ") + "]"
}

// Describe implements Rel.
func (u *UnionAll) Describe() string { return "UnionAll" }

// Describe implements Rel.
func (l *Limit) Describe() string { return fmt.Sprintf("Limit(%d)", l.N) }

// Describe implements Rel.
func (s *Sort) Describe() string {
	parts := make([]string, len(s.Keys))
	for i, k := range s.Keys {
		parts[i] = k.E.String()
		if k.Desc {
			parts[i] += " DESC"
		}
	}
	return "Sort[" + strings.Join(parts, ", ") + "]"
}

// Describe implements Rel.
func (a *Apply) Describe() string {
	s := "Apply(" + a.Kind.String() + ")"
	if len(a.Binds) > 0 {
		parts := make([]string, len(a.Binds))
		for i, b := range a.Binds {
			parts[i] = b.Param + "=" + b.Arg.String()
		}
		s += "{bind: " + strings.Join(parts, ", ") + "}"
	}
	return s
}

// Describe implements Rel.
func (a *ApplyMerge) Describe() string {
	if len(a.Assigns) == 0 {
		return "ApplyMerge"
	}
	parts := make([]string, len(a.Assigns))
	for i, as := range a.Assigns {
		parts[i] = as.Target + "=" + as.Source
	}
	return "ApplyMerge{" + strings.Join(parts, ", ") + "}"
}

// Describe implements Rel.
func (a *CondApplyMerge) Describe() string {
	return "CondApplyMerge[" + a.Pred.String() + "]"
}

// Print renders the operator tree with indentation for debugging and
// golden tests.
func Print(r Rel) string {
	var b strings.Builder
	printRel(&b, r, 0)
	return b.String()
}

func printRel(b *strings.Builder, r Rel, depth int) {
	b.WriteString(strings.Repeat("  ", depth))
	b.WriteString(r.Describe())
	b.WriteString("\n")
	for _, c := range r.Children() {
		printRel(b, c, depth+1)
	}
	// Also show relations nested inside scalar subqueries.
	for _, e := range NodeExprs(r) {
		VisitExpr(e, func(Expr) {}, func(sub Rel) {
			b.WriteString(strings.Repeat("  ", depth+1))
			b.WriteString("(subquery)\n")
			printRel(b, sub, depth+2)
		})
	}
}
