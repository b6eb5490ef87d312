package exec

import (
	"sort"

	"udfdecorr/internal/algebra"
	"udfdecorr/internal/sqltypes"
	"udfdecorr/internal/storage"
)

// BatchGroupBy is the vectorized aggregation operator, keyed or not: grouping
// keys and aggregate arguments evaluate batch-at-a-time into the groupTable
// the row HashAgg also fills. It accepts every aggregate — builtins,
// DISTINCT, and user-defined (interpreted) aggregates — which is what lets
// grouped queries (the shape every decorrelated UDF rewrite produces) stay
// on the batch path instead of bridging to the row engine.
type BatchGroupBy struct {
	Keys   []VecFactory
	Aggs   []*AggSpec     // row specs: state construction + DISTINCT flags
	Args   [][]VecFactory // batched argument evaluators of Aggs[i]
	Child  Node
	schema []algebra.Column
}

// NewBatchGroupBy builds a vectorized grouped aggregation node.
func NewBatchGroupBy(keys []VecFactory, aggs []*AggSpec, args [][]VecFactory, child Node, schema []algebra.Column) *BatchGroupBy {
	return &BatchGroupBy{Keys: keys, Aggs: aggs, Args: args, Child: child, schema: schema}
}

// Schema implements Node.
func (g *BatchGroupBy) Schema() []algebra.Column { return g.schema }

// Open implements Node.
func (g *BatchGroupBy) Open(ctx *Ctx) (Iter, error) { return openRowsViaBatches(g, ctx) }

// OpenBatch implements BatchNode.
func (g *BatchGroupBy) OpenBatch(ctx *Ctx) (BatchIter, error) {
	in, err := OpenBatches(g.Child, ctx)
	if err != nil {
		return nil, err
	}
	defer in.Close()
	gt, err := g.aggregate(ctx, in)
	if err != nil {
		return nil, err
	}
	return g.feed(ctx, gt)
}

// aggregate drains in into a fresh group table (the whole input serially,
// one worker's share in parallel).
func (g *BatchGroupBy) aggregate(ctx *Ctx, in BatchIter) (*groupTable, error) {
	gt := newGroupTable(g.Aggs, len(g.Keys))
	return gt, gt.consume(ctx, in, Instantiate(g.Keys), instantiateArgs(g.Args))
}

// feed serves a finished table's groups as batches.
func (g *BatchGroupBy) feed(ctx *Ctx, gt *groupTable) (BatchIter, error) {
	rows, err := gt.rows(ctx, len(g.Keys) == 0)
	if err != nil {
		return nil, err
	}
	return &rowFeedIter{rows: rows, width: len(g.schema)}, nil
}

// instantiateArgs materializes per-execution argument evaluators.
func instantiateArgs(args [][]VecFactory) [][]VecEvaluator {
	out := make([][]VecEvaluator, len(args))
	for i, fs := range args {
		out[i] = Instantiate(fs)
	}
	return out
}

// ---------------------------------------------------------------------------
// groupTable
// ---------------------------------------------------------------------------

// groupTable accumulates aggregate groups, in first-seen order, for the row
// HashAgg, BatchGroupBy and the parallel group-by, whose merge phase
// absorbs one worker's table into another. While every key is a single
// integer value it keeps an integer map and skips key encoding; the first
// key of another kind moves it to encoded keys for good.
type groupTable struct {
	aggs      []*AggSpec
	nKeys     int
	groups    map[string]*aggGroup
	intGroups map[int64]*aggGroup // non-nil while every key is an integer
	n         int
}

// aggGroup is one group: its key values, one state per aggregate, and the
// seen-set of each DISTINCT aggregate.
type aggGroup struct {
	keyVals  []sqltypes.Value
	states   []aggState
	distinct []map[string]bool
	order    int
}

func newGroupTable(aggs []*AggSpec, nKeys int) *groupTable {
	g := &groupTable{aggs: aggs, nKeys: nKeys, groups: map[string]*aggGroup{}}
	if nKeys == 1 {
		g.intGroups = map[int64]*aggGroup{}
	}
	return g
}

func (g *groupTable) newGroup(keyVals []sqltypes.Value) (*aggGroup, error) {
	grp := &aggGroup{keyVals: keyVals, states: make([]aggState, len(g.aggs)),
		distinct: make([]map[string]bool, len(g.aggs)), order: g.n}
	g.n++
	for i, a := range g.aggs {
		st, err := a.newState()
		if err != nil {
			return nil, err
		}
		grp.states[i] = st
		if a.Distinct {
			grp.distinct[i] = map[string]bool{}
		}
	}
	return grp, nil
}

// find returns the group for keyVals, creating it when absent. When adopt is
// non-nil a missing group installs adopt (re-ordered to this table's
// sequence) instead of constructing fresh states — the merge path. keyVals
// are cloned on insertion unless adopt already owns them.
func (g *groupTable) find(keyVals []sqltypes.Value, adopt *aggGroup) (*aggGroup, bool, error) {
	install := func() (*aggGroup, error) {
		if adopt != nil {
			adopt.order = g.n
			g.n++
			return adopt, nil
		}
		clone := make([]sqltypes.Value, len(keyVals))
		copy(clone, keyVals)
		return g.newGroup(clone)
	}
	if g.intGroups != nil {
		if ik, ok := intKeyOf(keyVals); ok {
			if grp, ok := g.intGroups[ik]; ok {
				return grp, false, nil
			}
			grp, err := install()
			if err != nil {
				return nil, false, err
			}
			g.intGroups[ik] = grp
			return grp, true, nil
		}
		var buf []byte
		for ik, ig := range g.intGroups {
			buf = sqltypes.EncodeKey(buf[:0], sqltypes.NewInt(ik))
			g.groups[string(buf)] = ig
		}
		g.intGroups = nil
	}
	key := sqltypes.KeyOf(keyVals...)
	if grp, ok := g.groups[key]; ok {
		return grp, false, nil
	}
	grp, err := install()
	if err != nil {
		return nil, false, err
	}
	g.groups[key] = grp
	return grp, true, nil
}

// add feeds one row's arguments to aggregate i of grp, skipping them when
// the aggregate is DISTINCT and has seen them.
func (g *groupTable) add(ctx *Ctx, grp *aggGroup, i int, args []sqltypes.Value) error {
	if g.aggs[i].Distinct {
		dk := sqltypes.KeyOf(args...)
		if grp.distinct[i][dk] {
			return nil
		}
		grp.distinct[i][dk] = true
	}
	return grp.states[i].add(ctx, args)
}

// consume drains a batch iterator into the table, evaluating keys and
// aggregate arguments batch-at-a-time.
func (g *groupTable) consume(ctx *Ctx, in BatchIter, keys []VecEvaluator, args [][]VecEvaluator) error {
	keyVecs := make([][]sqltypes.Value, len(keys))
	keyBuf := make([]sqltypes.Value, len(keys))
	argVecs := make([][][]sqltypes.Value, len(args))
	for i := range args {
		argVecs[i] = make([][]sqltypes.Value, len(args[i]))
	}
	width := 0
	for _, vecs := range argVecs {
		width = max(width, len(vecs))
	}
	rowArgs := make([]sqltypes.Value, width) // one row's arguments
	for {
		if err := ctx.Cancelled(); err != nil {
			return err
		}
		b, ok, err := in.NextBatch(DefaultBatchSize)
		if err != nil {
			return err
		}
		if !ok {
			return nil
		}
		for i, k := range keys {
			if keyVecs[i], err = k(ctx, b); err != nil {
				return err
			}
		}
		for i := range args {
			for c, ev := range args[i] {
				if argVecs[i][c], err = ev(ctx, b); err != nil {
					return err
				}
			}
		}
		n := b.Len()
		// Without keys every row is in the one group: look it up per batch.
		var grp *aggGroup
		if len(keys) == 0 {
			if grp, _, err = g.find(nil, nil); err != nil {
				return err
			}
		}
		for r := 0; r < n; r++ {
			p := b.LiveAt(r)
			if len(keys) > 0 {
				for i := range keys {
					keyBuf[i] = keyVecs[i][p]
				}
				if grp, _, err = g.find(keyBuf, nil); err != nil {
					return err
				}
			}
			for i, vecs := range argVecs {
				vals := rowArgs[:len(vecs)]
				for c, vec := range vecs {
					vals[c] = vec[p]
				}
				if err := g.add(ctx, grp, i, vals); err != nil {
					return err
				}
			}
		}
	}
}

// absorb merges another table's groups into g, in the other table's group
// order. All aggregate states must be mergeable (the parallel planner
// guarantees it); missing groups are adopted wholesale.
func (g *groupTable) absorb(o *groupTable) error {
	for _, src := range o.ordered() {
		dst, created, err := g.find(src.keyVals, src)
		if err != nil {
			return err
		}
		if created {
			continue
		}
		for i := range g.aggs {
			m, ok := dst.states[i].(mergeableState)
			if !ok {
				return Errorf("aggregate %q has no mergeable state", g.aggs[i].Func)
			}
			if err := m.mergeState(src.states[i]); err != nil {
				return err
			}
		}
	}
	return nil
}

// ordered returns the groups in first-seen order.
func (g *groupTable) ordered() []*aggGroup {
	out := make([]*aggGroup, 0, g.n)
	for _, grp := range g.groups {
		out = append(out, grp)
	}
	for _, grp := range g.intGroups {
		out = append(out, grp)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].order < out[j].order })
	return out
}

// rows materializes the result rows (keys then aggregate results). With
// scalarOneRow set an empty input still yields the single row of "empty"
// aggregate results, matching scalar-aggregation semantics.
func (g *groupTable) rows(ctx *Ctx, scalarOneRow bool) ([]storage.Row, error) {
	if scalarOneRow && g.n == 0 {
		if _, _, err := g.find(nil, nil); err != nil {
			return nil, err
		}
	}
	ordered := g.ordered()
	rows := make([]storage.Row, 0, len(ordered))
	for _, grp := range ordered {
		row := make(storage.Row, 0, g.nKeys+len(g.aggs))
		row = append(row, grp.keyVals...)
		for _, st := range grp.states {
			v, err := st.result(ctx)
			if err != nil {
				return nil, err
			}
			row = append(row, v)
		}
		rows = append(rows, row)
	}
	return rows, nil
}
