package exec

import (
	"math"

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

// groupTable accumulates aggregate groups for the row HashAgg, BatchGroupBy
// and the parallel group-by, whose merge phase absorbs one worker's table
// into another. A group is a dense id, assigned in first-seen order. Its
// key values and the state of each aggregate live in columns indexed by
// that id, so a group costs no heap object of its own and the groups come
// out in first-seen order without a sort. The ids come from a
// sqltypes.KeyIndex. Without keys every row is in group 0.
type groupTable struct {
	keys  [][]sqltypes.Value // keys[k][id]: the first-seen value of key k
	cols  []aggColumn
	index sqltypes.KeyIndex
	n     int // group count

	// Scratch reused from batch to batch.
	ids     []int32
	fresh   []int // positions of the rows that opened a group
	rowArgs []sqltypes.Value
}

// zeroIDs is the group-id vector of a keyless batch: every row is group 0.
// It is only ever read.
var zeroIDs [DefaultBatchSize]int32

func newGroupTable(aggs []*AggSpec, nKeys int) *groupTable {
	g := &groupTable{keys: make([][]sqltypes.Value, nKeys), cols: make([]aggColumn, len(aggs))}
	width := 0
	for i, a := range aggs {
		g.cols[i] = newAggColumn(a)
		if g.cols[i].kind == aggBoxed {
			width = max(width, len(a.Args))
		}
	}
	if width > 0 {
		g.rowArgs = make([]sqltypes.Value, width)
	}
	return g
}

// add folds n rows into the table. keys[k][p] is key k of the row at
// position p and args[i][c][p] its argument c of aggregate i; the rows'
// positions are sel, or 0..n-1 when sel is nil.
func (g *groupTable) add(ctx *Ctx, n int, sel []int, keys [][]sqltypes.Value, args [][][]sqltypes.Value) error {
	ids, err := g.groupIDs(keys, n, sel)
	if err != nil {
		return err
	}
	for i := range g.cols {
		c := &g.cols[i]
		if err := c.grow(g.n); err != nil {
			return err
		}
		if err := c.add(ctx, ids, sel, args[i], g.rowArgs); err != nil {
			return err
		}
	}
	return nil
}

// groupIDs returns the group id of each of the n rows, opening a group for
// every key not seen before. The new groups' key values are appended to the
// key columns one column at a time.
func (g *groupTable) groupIDs(keys [][]sqltypes.Value, n int, sel []int) ([]int32, error) {
	if len(g.keys) == 0 {
		g.n = max(g.n, 1)
		if n <= len(zeroIDs) {
			return zeroIDs[:n], nil
		}
		return make([]int32, n), nil
	}
	if g.n+n > math.MaxInt32 {
		return nil, Errorf("group-by has more than %d groups", math.MaxInt32)
	}
	if cap(g.ids) < n {
		g.ids, g.fresh = make([]int32, n), make([]int, 0, n)
	}
	ids, fresh := g.ids[:n], g.fresh[:0]
	for r := range ids {
		p := at(sel, r)
		id, added := g.index.Add(keys, p)
		if added {
			fresh = append(fresh, p)
		}
		ids[r] = id
	}
	for k, vec := range keys {
		col := extend(g.keys[k], g.n+len(fresh))
		for j, p := range fresh {
			col[g.n+j] = vec[p]
		}
		g.keys[k] = col
	}
	g.n += len(fresh)
	return ids, nil
}

// consume drains a batch iterator into the table, evaluating keys and
// aggregate arguments batch-at-a-time.
func (g *groupTable) consume(ctx *Ctx, in BatchIter, keys []VecEvaluator, args [][]VecEvaluator) error {
	keyVecs := make([][]sqltypes.Value, len(keys))
	argVecs := make([][][]sqltypes.Value, len(args))
	width := 0
	for _, evs := range args {
		width += len(evs)
	}
	flat := make([][]sqltypes.Value, width)
	for i, evs := range args {
		argVecs[i], flat = flat[:len(evs):len(evs)], flat[len(evs):]
	}
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
		for i, evs := range args {
			for c, ev := range evs {
				if argVecs[i][c], err = ev(ctx, b); err != nil {
					return err
				}
			}
		}
		if err := g.add(ctx, b.Len(), b.Sel, keyVecs, argVecs); err != nil {
			return err
		}
	}
}

// absorb merges another table's groups into g, in the other table's group
// order: each of o's groups finds or opens its group in g, then every
// aggregate column merges o's entries into g's. All aggregates must be
// mergeable (the parallel planner guarantees it).
func (g *groupTable) absorb(o *groupTable) error {
	if o.n == 0 {
		return nil
	}
	dst, err := g.groupIDs(o.keys, o.n, nil)
	if err != nil {
		return err
	}
	for i := range g.cols {
		c := &g.cols[i]
		if err := c.grow(g.n); err != nil {
			return err
		}
		if err := c.merge(&o.cols[i], dst); err != nil {
			return err
		}
	}
	return nil
}

// rows materializes the result rows (keys then aggregate results) in group
// id order, which is first-seen order, carving them all out of one block.
// With scalarOneRow set an empty input still yields the single row of
// "empty" aggregate results, matching scalar-aggregation semantics.
func (g *groupTable) rows(ctx *Ctx, scalarOneRow bool) ([]storage.Row, error) {
	if scalarOneRow && g.n == 0 {
		g.n = 1
	}
	w := len(g.keys) + len(g.cols)
	block := make([]sqltypes.Value, g.n*w)
	rows := make([]storage.Row, g.n)
	for id := range rows {
		rows[id] = block[id*w : (id+1)*w : (id+1)*w]
	}
	for k, col := range g.keys {
		for id, v := range col {
			rows[id][k] = v
		}
	}
	for i := range g.cols {
		c := &g.cols[i]
		if err := c.grow(g.n); err != nil {
			return nil, err
		}
		for id, row := range rows {
			v, err := c.result(ctx, id)
			if err != nil {
				return nil, err
			}
			row[len(g.keys)+i] = v
		}
	}
	return rows, nil
}

// ---------------------------------------------------------------------------
// Aggregate state columns
// ---------------------------------------------------------------------------

// aggKind selects an aggColumn's state vector and kernels.
type aggKind uint8

const (
	aggBoxed aggKind = iota // DISTINCT, user-defined: one aggState per group
	aggCountStar
	aggCount
	aggSum
	aggMin
	aggMax
	aggAvg
)

// aggColumn is one aggregate's state for every group of a groupTable,
// indexed by group id. Builtin aggregates keep typed vectors that a kernel
// folds a whole batch into; DISTINCT and user-defined aggregates keep an
// aggState per group (and a DISTINCT one the argument tuples each group
// has seen).
type aggColumn struct {
	spec  *AggSpec
	kind  aggKind
	count []int64          // count, count(*)
	acc   []sqltypes.Value // sum, min, max: NULL until a non-NULL argument reaches the group
	avg   []avgState
	boxed []aggState
	seen  []sqltypes.KeyIndex
}

func newAggColumn(a *AggSpec) aggColumn {
	c := aggColumn{spec: a}
	if a.UserDef != nil || a.Distinct {
		return c
	}
	switch a.Func {
	case "count":
		c.kind = aggCount
		if len(a.Args) == 0 {
			c.kind = aggCountStar
		}
	case "sum":
		c.kind = aggSum
	case "min":
		c.kind = aggMin
	case "max":
		c.kind = aggMax
	case "avg":
		c.kind = aggAvg
	}
	return c
}

// grow lengthens the column to n groups, giving each new group the empty
// state.
func (c *aggColumn) grow(n int) error {
	switch c.kind {
	case aggCountStar, aggCount:
		c.count = extend(c.count, n)
	case aggSum, aggMin, aggMax:
		c.acc = extend(c.acc, n)
	case aggAvg:
		c.avg = extend(c.avg, n)
	default:
		for len(c.boxed) < n {
			st, err := c.spec.newState()
			if err != nil {
				return err
			}
			c.boxed = append(c.boxed, st)
			if c.spec.Distinct {
				c.seen = append(c.seen, sqltypes.KeyIndex{})
			}
		}
	}
	return nil
}

// add folds a batch into the column: the row at sel position r (see at)
// belongs to group ids[r], and args[c] is the vector of argument c. rowArgs
// is scratch for one row's arguments.
func (c *aggColumn) add(ctx *Ctx, ids []int32, sel []int, args [][]sqltypes.Value, rowArgs []sqltypes.Value) error {
	var arg []sqltypes.Value
	if len(args) > 0 {
		arg = args[0]
	}
	switch c.kind {
	case aggCountStar:
		for _, id := range ids {
			c.count[id]++
		}
	case aggCount:
		for r, id := range ids {
			if !arg[at(sel, r)].IsNull() {
				c.count[id]++
			}
		}
	case aggSum:
		for r, id := range ids {
			if err := sumInto(&c.acc[id], &arg[at(sel, r)]); err != nil {
				return err
			}
		}
	case aggMin, aggMax:
		for r, id := range ids {
			minMaxInto(&c.acc[id], &arg[at(sel, r)], c.kind == aggMax)
		}
	case aggAvg:
		for r, id := range ids {
			p := at(sel, r)
			if err := c.avg[id].add(ctx, arg[p:p+1]); err != nil {
				return err
			}
		}
	default:
		vals := rowArgs[:len(args)]
		for r, id := range ids {
			p := at(sel, r)
			if c.seen != nil {
				if _, added := c.seen[id].Add(args, p); !added {
					continue
				}
			}
			for i, vec := range args {
				vals[i] = vec[p]
			}
			if err := c.boxed[id].add(ctx, vals); err != nil {
				return err
			}
		}
	}
	return nil
}

// merge folds o's group i into this column's group dst[i], for every group
// of o.
func (c *aggColumn) merge(o *aggColumn, dst []int32) error {
	switch c.kind {
	case aggCountStar, aggCount:
		for i, d := range dst {
			c.count[d] += o.count[i]
		}
	case aggSum:
		for i, d := range dst {
			if err := sumInto(&c.acc[d], &o.acc[i]); err != nil {
				return err
			}
		}
	case aggMin, aggMax:
		for i, d := range dst {
			minMaxInto(&c.acc[d], &o.acc[i], c.kind == aggMax)
		}
	case aggAvg:
		for i, d := range dst {
			c.avg[d].sum += o.avg[i].sum
			c.avg[d].n += o.avg[i].n
		}
	default:
		return Errorf("aggregate %q has no mergeable state", c.spec.Func)
	}
	return nil
}

// result finalizes group id's state.
func (c *aggColumn) result(ctx *Ctx, id int) (sqltypes.Value, error) {
	switch c.kind {
	case aggCountStar, aggCount:
		return sqltypes.NewInt(c.count[id]), nil
	case aggSum, aggMin, aggMax:
		return c.acc[id], nil
	case aggAvg:
		return c.avg[id].result(ctx)
	default:
		return c.boxed[id].result(ctx)
	}
}

// extend returns s lengthened to n entries. Entries past len(s) are zero:
// the table only ever lengthens its vectors, so spare capacity is never
// written. It doubles the capacity when s must move, where append grows a
// large slice by only a quarter and so would move it on nearly every batch.
func extend[T any](s []T, n int) []T {
	if n <= cap(s) {
		return s[:n]
	}
	ns := make([]T, n, max(n, 2*cap(s)))
	copy(ns, s)
	return ns
}

// at returns the position of the r-th row of a batch whose live positions
// are sel (0..n-1 when sel is nil).
func at(sel []int, r int) int {
	if sel != nil {
		return sel[r]
	}
	return r
}
