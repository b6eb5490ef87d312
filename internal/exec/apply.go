package exec

import (
	"udfdecorr/internal/algebra"
	"udfdecorr/internal/storage"
)

// CorrBinding maps a parameter name to a column ordinal of the outer row;
// the Apply operator publishes these into the context before each inner
// evaluation. This is how correlated (iterative) plans execute when
// decorrelation is not applied or not possible.
type CorrBinding struct {
	Param string
	Col   int // ordinal in the left row
}

// ApplyBind is one explicit bind-extension argument: the parameter receives
// the value of an expression over the left row.
type ApplyBind struct {
	Param string
	Arg   Evaluator
}

// Apply executes the parameterized right child once per left row, exactly
// as the paper's Apply operator semantics prescribe: E0 A⊗ E1 =
// ⋃_{t∈E0} ({t} ⊗ E1(t)).
type Apply struct {
	Kind  algebra.JoinKind
	Corr  []CorrBinding
	Binds []ApplyBind
	L, R  Node
	outputList
}

// NewApply constructs a correlated Apply node.
func NewApply(kind algebra.JoinKind, corr []CorrBinding, binds []ApplyBind, l, r Node) *Apply {
	return &Apply{Kind: kind, Corr: corr, Binds: binds, L: l, R: r,
		outputList: newJoinOutput(kind, l, r)}
}

// Open implements Node.
func (a *Apply) Open(ctx *Ctx) (Iter, error) {
	li, err := OpenRows(a.L, ctx)
	if err != nil {
		return nil, err
	}
	return &rowJoinIter{kind: a.Kind, ctx: ctx, li: li, cols: a.cols, lWidth: len(a.L.Schema()),
		candidates: func(left storage.Row) ([]storage.Row, error) { return a.eval(ctx, left) }}, nil
}

// eval runs the right side with the parameters bound from left.
func (a *Apply) eval(ctx *Ctx, left storage.Row) ([]storage.Row, error) {
	ctx.Push()
	defer ctx.Pop()
	for _, c := range a.Corr {
		ctx.Set(c.Param, left[c.Col])
	}
	for _, b := range a.Binds {
		v, err := b.Arg(ctx, left)
		if err != nil {
			return nil, err
		}
		ctx.Set(b.Param, v)
	}
	return Drain(a.R, ctx)
}
