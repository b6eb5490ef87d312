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

// ---------------------------------------------------------------------------
// Builtin aggregate states
// ---------------------------------------------------------------------------

type sumState struct {
	acc sqltypes.Value // NULL until a non-NULL value arrives
}

func (s *sumState) add(_ *Ctx, args []sqltypes.Value) error { return sumInto(&s.acc, &args[0]) }

// result is NULL over empty or all-NULL input.
func (s *sumState) result(*Ctx) (sqltypes.Value, error) { return s.acc, nil }

// sumInto folds v into the running sum acc, which stays NULL until the
// first non-NULL value arrives. Two floats or two integers add in place;
// any other pair goes through sqltypes.Arith, which also rejects
// non-numeric values. The result is the one Arith gives either way.
func sumInto(acc, v *sqltypes.Value) error {
	switch ak, vk := acc.Kind(), v.Kind(); {
	case vk == sqltypes.KindNull:
	case ak == sqltypes.KindNull:
		*acc = *v
	case ak == sqltypes.KindFloat && vk == sqltypes.KindFloat:
		*acc = sqltypes.NewFloat(acc.Float() + v.Float())
	case ak == sqltypes.KindInt && vk == sqltypes.KindInt:
		*acc = sqltypes.NewInt(acc.Int() + v.Int())
	default:
		sum, err := sqltypes.Arith(sqltypes.OpAdd, *acc, *v)
		if err != nil {
			return err
		}
		*acc = sum
	}
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

type minMaxState struct {
	best sqltypes.Value // NULL until a non-NULL value arrives
	max  bool
}

func (s *minMaxState) add(_ *Ctx, args []sqltypes.Value) error {
	minMaxInto(&s.best, &args[0], s.max)
	return nil
}

func (s *minMaxState) result(*Ctx) (sqltypes.Value, error) { return s.best, nil }

// minMaxInto folds v into the running minimum (or maximum, with isMax set)
// best, which stays NULL until the first non-NULL value arrives.
func minMaxInto(best, v *sqltypes.Value, isMax bool) {
	switch {
	case v.IsNull():
	case best.IsNull():
		*best = *v
	default:
		c := sqltypes.TotalCompare(*v, *best)
		if (isMax && c > 0) || (!isMax && c < 0) {
			*best = *v
		}
	}
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
	// Each row goes into the group table as a batch of one: every key and
	// argument vector is a one-value window onto keyRow or argRow.
	gt := newGroupTable(h.Aggs, len(h.Keys))
	keyRow := make([]sqltypes.Value, len(h.Keys))
	keyVecs := make([][]sqltypes.Value, len(h.Keys))
	for k := range keyVecs {
		keyVecs[k] = keyRow[k : k+1 : k+1]
	}
	width := 0
	for _, a := range h.Aggs {
		width += len(a.Args)
	}
	argRow := make([]sqltypes.Value, width)
	vecs := make([][]sqltypes.Value, width)
	for j := range vecs {
		vecs[j] = argRow[j : j+1 : j+1]
	}
	argVecs := make([][][]sqltypes.Value, len(h.Aggs))
	for i, a := range h.Aggs {
		argVecs[i], vecs = vecs[:len(a.Args):len(a.Args)], vecs[len(a.Args):]
	}
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
		for k, ev := range h.Keys {
			if keyRow[k], err = ev(ctx, row); err != nil {
				return nil, err
			}
		}
		j := 0
		for _, a := range h.Aggs {
			for _, ev := range a.Args {
				if argRow[j], err = ev(ctx, row); err != nil {
					return nil, err
				}
				j++
			}
		}
		if err := gt.add(ctx, 1, nil, keyVecs, argVecs); err != nil {
			return nil, err
		}
	}
	rows, err := gt.rows(ctx, len(h.Keys) == 0)
	if err != nil {
		return nil, err
	}
	return &sliceIter{rows: rows}, nil
}
