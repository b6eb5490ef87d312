package exec

import (
	"udfdecorr/internal/algebra"
	"udfdecorr/internal/catalog"
	"udfdecorr/internal/sqltypes"
)

// aggState is the running state of one aggregate within one group.
type aggState interface {
	add(ctx *Ctx, args []sqltypes.Value) error
	result(ctx *Ctx) (sqltypes.Value, error)
}

// mergeableState is an aggregate state that can absorb another partial state
// of the same type. The parallel group-by builds per-worker partial states
// and merges them; only aggregates whose states implement this (the builtin
// non-DISTINCT ones) are eligible for parallel aggregation.
type mergeableState interface {
	aggState
	mergeState(other aggState) error
}

// ---------------------------------------------------------------------------
// Builtin aggregate states
// ---------------------------------------------------------------------------

type sumState struct {
	acc     sqltypes.Value
	seenAny bool
}

func (s *sumState) add(_ *Ctx, args []sqltypes.Value) error {
	v := args[0]
	if v.IsNull() {
		return nil
	}
	if !s.seenAny {
		s.acc = v
		s.seenAny = true
		return nil
	}
	acc, err := sqltypes.Arith(sqltypes.OpAdd, s.acc, v)
	if err != nil {
		return err
	}
	s.acc = acc
	return nil
}

func (s *sumState) result(*Ctx) (sqltypes.Value, error) {
	if !s.seenAny {
		return sqltypes.Null, nil // SUM over empty/all-NULL is NULL
	}
	return s.acc, nil
}

func (s *sumState) mergeState(other aggState) error {
	o := other.(*sumState)
	if !o.seenAny {
		return nil
	}
	if !s.seenAny {
		s.acc, s.seenAny = o.acc, true
		return nil
	}
	acc, err := sqltypes.Arith(sqltypes.OpAdd, s.acc, o.acc)
	if err != nil {
		return err
	}
	s.acc = acc
	return nil
}

type countState struct {
	n    int64
	star bool // count(*) counts every row; count(e) skips NULL
}

func (s *countState) add(_ *Ctx, args []sqltypes.Value) error {
	if s.star || (len(args) > 0 && !args[0].IsNull()) {
		s.n++
	}
	return nil
}

func (s *countState) result(*Ctx) (sqltypes.Value, error) {
	return sqltypes.NewInt(s.n), nil
}

func (s *countState) mergeState(other aggState) error {
	s.n += other.(*countState).n
	return nil
}

type minMaxState struct {
	best sqltypes.Value
	max  bool
	seen bool
}

func (s *minMaxState) add(_ *Ctx, args []sqltypes.Value) error {
	v := args[0]
	if v.IsNull() {
		return nil
	}
	if !s.seen {
		s.best = v
		s.seen = true
		return nil
	}
	c := sqltypes.TotalCompare(v, s.best)
	if (s.max && c > 0) || (!s.max && c < 0) {
		s.best = v
	}
	return nil
}

func (s *minMaxState) result(*Ctx) (sqltypes.Value, error) {
	if !s.seen {
		return sqltypes.Null, nil
	}
	return s.best, nil
}

func (s *minMaxState) mergeState(other aggState) error {
	o := other.(*minMaxState)
	if !o.seen {
		return nil
	}
	return s.add(nil, []sqltypes.Value{o.best})
}

type avgState struct {
	sum float64
	n   int64
}

func (s *avgState) add(_ *Ctx, args []sqltypes.Value) error {
	v := args[0]
	if v.IsNull() {
		return nil
	}
	f, ok := v.AsFloat()
	if !ok {
		return Errorf("avg of non-numeric value %s", v)
	}
	s.sum += f
	s.n++
	return nil
}

func (s *avgState) result(*Ctx) (sqltypes.Value, error) {
	if s.n == 0 {
		return sqltypes.Null, nil
	}
	return sqltypes.NewFloat(s.sum / float64(s.n)), nil
}

func (s *avgState) mergeState(other aggState) error {
	o := other.(*avgState)
	s.sum += o.sum
	s.n += o.n
	return nil
}

// userAggState runs a user-defined aggregate (Section VII, Example 6):
// initialize sets the state variables, accumulate runs the interpreted body
// once per row, terminate reads the result variable.
type userAggState struct {
	def  *catalog.Aggregate
	vars map[string]sqltypes.Value
}

func newUserAggState(def *catalog.Aggregate) *userAggState {
	vars := make(map[string]sqltypes.Value, len(def.State))
	for _, sv := range def.State {
		vars[sv.Name] = sv.Init
	}
	return &userAggState{def: def, vars: vars}
}

func (s *userAggState) add(ctx *Ctx, args []sqltypes.Value) error {
	if ctx.Interp == nil {
		return Errorf("user-defined aggregate %s requires an interpreter", s.def.Name)
	}
	return ctx.Interp.Accumulate(ctx, s.def, s.vars, args)
}

func (s *userAggState) result(*Ctx) (sqltypes.Value, error) {
	v, ok := s.vars[s.def.Result]
	if !ok {
		return sqltypes.Null, Errorf("aggregate %s: unknown result variable %q", s.def.Name, s.def.Result)
	}
	return v, nil
}

// AggSpec is one compiled aggregate of a HashAgg.
type AggSpec struct {
	Func     string
	Args     []Evaluator // empty for count(*)
	Distinct bool
	UserDef  *catalog.Aggregate // non-nil for user-defined aggregates
}

// Mergeable reports whether the aggregate's partial states can be merged
// (parallel aggregation eligibility): builtin, non-DISTINCT aggregates.
// DISTINCT needs a global seen-set and user-defined aggregates run an
// arbitrary interpreted body with no derivable merge function.
func (a *AggSpec) Mergeable() bool {
	return a.UserDef == nil && !a.Distinct && catalog.BuiltinAggregates[a.Func]
}

func (a *AggSpec) newState() (aggState, error) {
	if a.UserDef != nil {
		return newUserAggState(a.UserDef), nil
	}
	switch a.Func {
	case "sum":
		return &sumState{}, nil
	case "count":
		return &countState{star: len(a.Args) == 0}, nil
	case "min":
		return &minMaxState{}, nil
	case "max":
		return &minMaxState{max: true}, nil
	case "avg":
		return &avgState{}, nil
	default:
		return nil, Errorf("unknown aggregate %q", a.Func)
	}
}

// HashAgg groups input rows by key expressions and computes aggregates.
// With no keys it is scalar aggregation: exactly one output row even for
// empty input.
type HashAgg struct {
	Keys   []Evaluator
	Aggs   []*AggSpec
	Child  Node
	schema []algebra.Column
}

// NewHashAgg builds a hash aggregation node with the given output schema
// (keys first, then one column per aggregate).
func NewHashAgg(keys []Evaluator, aggs []*AggSpec, child Node, schema []algebra.Column) *HashAgg {
	return &HashAgg{Keys: keys, Aggs: aggs, Child: child, schema: schema}
}

// Schema implements Node.
func (h *HashAgg) Schema() []algebra.Column { return h.schema }

// Open implements Node.
func (h *HashAgg) Open(ctx *Ctx) (Iter, error) {
	it, err := OpenRows(h.Child, ctx)
	if err != nil {
		return nil, err
	}
	defer it.Close()
	gt := newGroupTable(h.Aggs, len(h.Keys))
	keys := make([]sqltypes.Value, len(h.Keys))
	var args []sqltypes.Value
	for {
		if err := ctx.Cancelled(); err != nil {
			return nil, err
		}
		row, ok, err := it.Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		for i, k := range h.Keys {
			if keys[i], err = k(ctx, row); err != nil {
				return nil, err
			}
		}
		grp, _, err := gt.find(keys, nil)
		if err != nil {
			return nil, err
		}
		for i, a := range h.Aggs {
			args = args[:0]
			for _, ae := range a.Args {
				v, err := ae(ctx, row)
				if err != nil {
					return nil, err
				}
				args = append(args, v)
			}
			if err := gt.add(ctx, grp, i, args); err != nil {
				return nil, err
			}
		}
	}
	rows, err := gt.rows(ctx, len(h.Keys) == 0)
	if err != nil {
		return nil, err
	}
	return &sliceIter{rows: rows}, nil
}
