// Shard feasibility: the planner pass behind the sharded query tier. Given
// a normalized logical plan and a catalog whose tables declare shard keys
// (CREATE TABLE ... SHARD KEY (col); keyless tables are replicated to every
// shard), ClassifyShard decides how the router may execute the statement:
//
//   - single-shard: the statement reads no hash-partitioned data (every
//     table it touches — including through UDF bodies — is replicated), or
//     it pins the one sharded table it scans to a single partition with a
//     shard-key equality predicate. Route to one shard, relay verbatim.
//   - scatter-concat: a per-row pipeline (scan/filter/project/join/apply)
//     over exactly one sharded scan. Shard partitions are disjoint and
//     replicated tables are complete everywhere, so concatenating the
//     shard streams reproduces the single-node result multiset.
//   - scatter-merge: a projection over a GROUP BY of mergeable builtin
//     aggregates above a concat-safe input. The MergeSpec carries the
//     partial-aggregate statement every shard runs as ordinary SQL (group
//     keys, then one column per partial, avg split into sum and count);
//     the router merges the per-shard partials with exec's HashAgg, then
//     applies the original projection order from the MergeSpec. This file
//     alone decides that layout.
//   - rejected: everything whose distributed execution would be wrong —
//     the Reason names the unsupported shape and becomes the message of a
//     typed UNSHARDABLE wire error, because a wrong merged result is worse
//     than no result.
package plan

import (
	"fmt"
	"strings"

	"udfdecorr/internal/algebra"
	"udfdecorr/internal/ast"
	"udfdecorr/internal/catalog"
	"udfdecorr/internal/core"
	"udfdecorr/internal/sqlgen"
	"udfdecorr/internal/sqltypes"
)

// ShardKind classifies how a statement may execute across shards.
type ShardKind int

// Shard execution classes.
const (
	ShardRejected ShardKind = iota
	ShardSingle
	ShardScatterConcat
	ShardScatterMerge
)

// String names the class (for /stats and error messages).
func (k ShardKind) String() string {
	switch k {
	case ShardSingle:
		return "single-shard"
	case ShardScatterConcat:
		return "scatter-concat"
	case ShardScatterMerge:
		return "scatter-merge"
	default:
		return "rejected"
	}
}

// MergeAgg is one aggregate of a scatter-merge plan, in GROUP BY order.
type MergeAgg struct {
	Func string // lower-case builtin: sum, count, min, max, avg
}

// OutputCol maps one final output column to its merged source.
type OutputCol struct {
	IsAgg bool
	Index int // key ordinal, or agg ordinal when IsAgg
}

// partialSumSuffix / partialCountSuffix name the two columns an avg
// decomposes into in the partial statement.
const (
	partialSumSuffix   = "__psum"
	partialCountSuffix = "__pcnt"
)

// MergeSpec tells the router how to run and merge a scatter-merge: every
// shard runs SQL, whose rows are NumKeys group-key cells followed by the
// partial cells of each agg (avg ships two: sum and count); after merging,
// the final row is assembled in Output order under the Cols names.
type MergeSpec struct {
	SQL     string
	NumKeys int
	Aggs    []MergeAgg
	Output  []OutputCol
	Cols    []string
}

// ShardInfo is the classification result.
type ShardInfo struct {
	Kind ShardKind
	// Reason names the unsupported shape when Kind == ShardRejected.
	Reason string
	// Table is the sharded table a scatter reads (or a key-equality route
	// pins); empty when the statement touches only replicated tables.
	Table string
	// KeyValue is the shard-key equality constant of a pinned single-shard
	// route; nil for replicated-only statements (run anywhere).
	KeyValue *sqltypes.Value
	// Merge is set for ShardScatterMerge.
	Merge *MergeSpec
}

func rejected(format string, args ...any) ShardInfo {
	return ShardInfo{Kind: ShardRejected, Reason: fmt.Sprintf(format, args...)}
}

// ClassifyShard classifies a normalized logical plan for distributed
// execution. cat must be the catalog the plan was algebrized against, with
// ShardKey declarations on the partitioned tables.
func ClassifyShard(rel algebra.Rel, cat *catalog.Catalog) ShardInfo {
	sharded := shardedTables(cat)
	if len(sharded) == 0 {
		return ShardInfo{Kind: ShardSingle}
	}

	// Pass 1 — collect every read of a sharded table, by provenance:
	// top-level pipeline scans can scatter; reads buried in scalar
	// subqueries or UDF/TVF bodies execute per row against what must be a
	// complete table, so they pin the statement to rejection.
	c := &shardCollector{cat: cat, sharded: sharded, funcReads: map[string]map[string]bool{}}
	c.walkRel(rel, false)
	if c.err != "" {
		return rejected("%s", c.err)
	}
	for _, sub := range c.subScans {
		return rejected("subquery reads sharded table %s (per-row evaluation needs the whole table on one node)", sub)
	}

	switch len(c.scans) {
	case 0:
		// Replicated tables are complete on every shard: any single shard
		// answers exactly like a single node.
		return ShardInfo{Kind: ShardSingle}
	case 1:
		// fall through
	default:
		names := make([]string, len(c.scans))
		distinct := map[string]bool{}
		for i, s := range c.scans {
			names[i] = s.Table
			distinct[strings.ToLower(s.Table)] = true
		}
		if len(distinct) > 1 {
			return rejected("statement reads two sharded tables (%s): co-partitioned joins are not supported", strings.Join(names, ", "))
		}
		return rejected("sharded table %s is read twice (self-join over disjoint partitions)", names[0])
	}

	scan := c.scans[0]
	key := sharded[strings.ToLower(scan.Table)]

	// Shard-key equality directly over the scan pins every qualifying row
	// to hash(key): the whole statement — any shape — runs on that shard
	// against its complete partition plus fully replicated tables.
	if v, ok := keyEquality(rel, scan, key); ok {
		return ShardInfo{Kind: ShardSingle, Table: scan.Table, KeyValue: &v}
	}

	// Scatter-merge: projection over an all-mergeable GROUP BY.
	if proj, ok := rel.(*algebra.Project); ok && !proj.Dedup {
		if gb, ok := proj.In.(*algebra.GroupBy); ok {
			return classifyMerge(proj, gb, scan, sharded)
		}
	}

	// Scatter-concat: the spine holding the sharded scan must be per-row.
	if reason := concatSafe(rel, sharded); reason != "" {
		return rejected("%s", reason)
	}
	return ShardInfo{Kind: ShardScatterConcat, Table: scan.Table}
}

// shardedTables maps lower-cased table name -> shard key column.
func shardedTables(cat *catalog.Catalog) map[string]string {
	out := map[string]string{}
	for _, t := range cat.Tables() {
		if t.ShardKey != "" {
			out[strings.ToLower(t.Name)] = strings.ToLower(t.ShardKey)
		}
	}
	return out
}

// ---------------------------------------------------------------------------
// Read collection (algebra + UDF bodies)
// ---------------------------------------------------------------------------

type shardCollector struct {
	cat     *catalog.Catalog
	sharded map[string]string
	// scans are top-level pipeline scans of sharded tables; subScans the
	// sharded tables read inside scalar subqueries.
	scans    []*algebra.Scan
	subScans []string
	// funcReads memoizes table reads per UDF (cycle-safe).
	funcReads map[string]map[string]bool
	err       string
}

func (c *shardCollector) walkRel(r algebra.Rel, inSub bool) {
	if c.err != "" {
		return
	}
	if s, ok := r.(*algebra.Scan); ok {
		if _, isSharded := c.sharded[strings.ToLower(s.Table)]; isSharded {
			if inSub {
				c.subScans = append(c.subScans, s.Table)
			} else {
				c.scans = append(c.scans, s)
			}
		}
	}
	if tf, ok := r.(*algebra.TableFunc); ok {
		c.checkFunc(tf.Name)
	}
	for _, ch := range r.Children() {
		c.walkRel(ch, inSub)
	}
	for _, e := range algebra.NodeExprs(r) {
		c.walkExpr(e)
	}
}

func (c *shardCollector) walkExpr(e algebra.Expr) {
	algebra.VisitExpr(e, func(x algebra.Expr) {
		if call, ok := x.(*algebra.Call); ok {
			c.checkFunc(call.Name)
		}
	}, func(sub algebra.Rel) {
		c.walkRel(sub, true)
	})
}

// checkFunc rejects UDFs whose bodies (transitively) read sharded tables:
// the body executes per invocation against what must be the complete table.
func (c *shardCollector) checkFunc(name string) {
	if c.err != "" {
		return
	}
	if _, ok := c.cat.Function(name); !ok {
		return // builtin (abs, ...) — reads nothing
	}
	reads := c.readsOf(name)
	if c.err != "" {
		return
	}
	for t := range reads {
		if _, isSharded := c.sharded[t]; isSharded {
			c.err = fmt.Sprintf("UDF %s reads sharded table %s (per-invocation body needs the whole table on one node)", name, t)
			return
		}
	}
}

// readsOf returns the lower-cased base tables a UDF's body reads,
// transitively through nested UDF calls. The body's expressions and
// queries are algebrized as the interpreter lowers them, so the reads are
// the scans of the plans the body will run. Cycles terminate via the
// memo's placeholder entry; a body that does not algebrize sets c.err.
func (c *shardCollector) readsOf(name string) map[string]bool {
	key := strings.ToLower(name)
	if m, ok := c.funcReads[key]; ok {
		return m
	}
	m := map[string]bool{}
	c.funcReads[key] = m // placeholder breaks recursion cycles
	fn, ok := c.cat.Function(name)
	if !ok {
		return m
	}
	if err := c.bodyReads(core.NewAlgebrizer(c.cat), fn.Def.Body, m); err != nil && c.err == "" {
		c.err = fmt.Sprintf("UDF %s body does not algebrize: %v", name, err)
	}
	return m
}

func (c *shardCollector) bodyReads(alg *core.Algebrizer, body []ast.Stmt, m map[string]bool) error {
	expr := func(e ast.Expr) error {
		if e == nil {
			return nil
		}
		ae, err := alg.Expr(e)
		if err != nil {
			return err
		}
		c.exprReads(ae, m)
		return nil
	}
	query := func(sel *ast.SelectStmt) error {
		rel, err := alg.Query(sel)
		if err != nil {
			return err
		}
		c.relReads(rel, m)
		return nil
	}
	for _, st := range body {
		var err error
		switch s := st.(type) {
		case *ast.DeclareStmt:
			err = expr(s.Init)
		case *ast.AssignStmt:
			err = expr(s.Expr)
		case *ast.ReturnStmt:
			err = expr(s.Expr)
		case *ast.IfStmt:
			if err = expr(s.Cond); err == nil {
				if err = c.bodyReads(alg, s.Then, m); err == nil {
					err = c.bodyReads(alg, s.Else, m)
				}
			}
		case *ast.WhileStmt:
			if err = expr(s.Cond); err == nil {
				err = c.bodyReads(alg, s.Body, m)
			}
		case *ast.SelectIntoStmt:
			err = query(s.Select)
		case *ast.DeclareCursorStmt:
			err = query(s.Select)
		case *ast.InsertStmt:
			for _, e := range s.Values {
				if err = expr(e); err != nil {
					break
				}
			}
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// relReads adds a body query's scanned tables and the reads of the UDFs
// and TVFs it calls (subqueries included) to m.
func (c *shardCollector) relReads(r algebra.Rel, m map[string]bool) {
	switch n := r.(type) {
	case *algebra.Scan:
		m[n.Table] = true
	case *algebra.TableFunc:
		c.addReads(n.Name, m)
	}
	for _, ch := range r.Children() {
		c.relReads(ch, m)
	}
	for _, e := range algebra.NodeExprs(r) {
		c.exprReads(e, m)
	}
}

// exprReads adds the reads of a body expression (its UDF calls and
// subqueries) to m.
func (c *shardCollector) exprReads(e algebra.Expr, m map[string]bool) {
	algebra.VisitExpr(e, func(x algebra.Expr) {
		if call, ok := x.(*algebra.Call); ok {
			c.addReads(call.Name, m)
		}
	}, func(sub algebra.Rel) { c.relReads(sub, m) })
}

func (c *shardCollector) addReads(name string, m map[string]bool) {
	for t := range c.readsOf(name) {
		m[t] = true
	}
}

// ---------------------------------------------------------------------------
// Shape checks
// ---------------------------------------------------------------------------

// readsSharded reports whether any scan in the subtree (subqueries
// included) touches a sharded table. Subtrees that do not are computed
// entirely from replicated tables — identical on every shard — and are
// concat-safe regardless of shape.
func readsSharded(r algebra.Rel, sharded map[string]string) bool {
	found := false
	algebra.Visit(r, func(n algebra.Rel) {
		if s, ok := n.(*algebra.Scan); ok {
			if _, isSharded := sharded[strings.ToLower(s.Table)]; isSharded {
				found = true
			}
		}
	})
	return found
}

// concatSafe checks that the spine from the root to the sharded scan is a
// per-row pipeline; it returns the rejection reason, or "" when safe.
func concatSafe(r algebra.Rel, sharded map[string]string) string {
	if !readsSharded(r, sharded) {
		return ""
	}
	switch n := r.(type) {
	case *algebra.Scan:
		return ""
	case *algebra.Select:
		return concatSafe(n.In, sharded)
	case *algebra.Project:
		if n.Dedup {
			return "DISTINCT over a sharded scan needs a global duplicate-eliminating merge"
		}
		return concatSafe(n.In, sharded)
	case *algebra.Join:
		lSharded := readsSharded(n.L, sharded)
		switch n.Kind {
		case algebra.InnerJoin, algebra.CrossJoin:
			// Either side may be partitioned: partition ⋈ complete unions
			// back to complete ⋈ complete.
		case algebra.LeftOuterJoin, algebra.SemiJoin, algebra.AntiJoin:
			// The probe (left) side may be partitioned; a partitioned
			// lookup side would drop or duplicate preserved rows.
			if !lSharded {
				return fmt.Sprintf("%s join probes a partitioned inner side", n.Kind)
			}
		}
		if lSharded {
			return concatSafe(n.L, sharded)
		}
		return concatSafe(n.R, sharded)
	case *algebra.Apply:
		if !readsSharded(n.L, sharded) {
			return "correlated apply evaluates its outer side per row over a sharded subplan"
		}
		return concatSafe(n.L, sharded)
	case *algebra.ApplyMerge:
		if !readsSharded(n.L, sharded) {
			return "apply-merge evaluates a sharded subplan per outer row"
		}
		return concatSafe(n.L, sharded)
	case *algebra.CondApplyMerge:
		return concatSafe(n.In, sharded)
	case *algebra.GroupBy:
		return "aggregation over a sharded table below the plan root cannot be merged (only a root GROUP BY of mergeable aggregates scatters)"
	case *algebra.Sort:
		return "ORDER BY over a sharded table cannot be merged from concatenated shard streams"
	case *algebra.Limit:
		return "LIMIT/TOP without ORDER BY is nondeterministic across shards"
	case *algebra.UnionAll:
		return "UNION ALL mixing sharded and replicated branches would duplicate replicated rows per shard"
	default:
		return fmt.Sprintf("operator %s over a sharded table is not distributable", r.Describe())
	}
}

// classifyMerge validates the Project-over-GroupBy shape and builds the
// MergeSpec with the shards' partial-aggregate statement.
func classifyMerge(proj *algebra.Project, gb *algebra.GroupBy, scan *algebra.Scan, sharded map[string]string) ShardInfo {
	if reason := concatSafe(gb.In, sharded); reason != "" {
		return rejected("%s", reason)
	}
	spec := &MergeSpec{NumKeys: len(gb.Keys)}
	partial := &algebra.GroupBy{Keys: gb.Keys, In: gb.In}
	for _, a := range gb.Aggs {
		fn := strings.ToLower(a.Func)
		if a.Distinct {
			return rejected("DISTINCT aggregate %s cannot be merged across shards (a value may occur on several shards)", a.String())
		}
		if !catalog.BuiltinAggregates[fn] {
			return rejected("aggregate %s has no shard merge function", a.String())
		}
		spec.Aggs = append(spec.Aggs, MergeAgg{Func: fn})
		if fn == "avg" {
			// A shard-local average loses its weight; ship the numerator and
			// the non-NULL denominator instead. count(args) (not count(*))
			// keeps NULL handling identical to single-node avg.
			partial.Aggs = append(partial.Aggs,
				algebra.AggCall{Func: "sum", Args: a.Args, As: a.As + partialSumSuffix},
				algebra.AggCall{Func: "count", Args: a.Args, As: a.As + partialCountSuffix})
			continue
		}
		partial.Aggs = append(partial.Aggs, a)
	}
	// Map the final projection onto the GROUP BY output: plain column
	// references only — an expression over merged aggregates would need a
	// post-merge evaluator the router does not have.
	gbSchema := gb.Schema()
	for _, pc := range proj.Cols {
		cr, ok := pc.E.(*algebra.ColRef)
		if !ok {
			return rejected("projection %s computes over aggregate results; only plain key/aggregate columns merge across shards", pc.E.String())
		}
		idx := -1
		for i, col := range gbSchema {
			if !strings.EqualFold(col.Name, cr.Name) {
				continue
			}
			if cr.Qual != "" && col.Qual != "" && !strings.EqualFold(col.Qual, cr.Qual) {
				continue
			}
			idx = i
			break
		}
		if idx < 0 {
			return rejected("projection column %s does not name a GROUP BY output", cr.String())
		}
		if idx < spec.NumKeys {
			spec.Output = append(spec.Output, OutputCol{Index: idx})
		} else {
			spec.Output = append(spec.Output, OutputCol{IsAgg: true, Index: idx - spec.NumKeys})
		}
	}
	for _, col := range proj.Schema() {
		spec.Cols = append(spec.Cols, col.Name)
	}
	sql, err := sqlgen.Generate(partial)
	if err != nil {
		return rejected("partial aggregate has no SQL form: %v", err)
	}
	spec.SQL = sql
	return ShardInfo{Kind: ShardScatterMerge, Table: scan.Table, Merge: spec}
}

// ---------------------------------------------------------------------------
// Single-shard key pinning
// ---------------------------------------------------------------------------

// keyEquality looks for a `scanAlias.shardKey = const` conjunct in a Select
// chain directly above the sharded scan (where normalization pushes it).
// Such a predicate confines every qualifying row to hash(const)'s shard.
func keyEquality(rel algebra.Rel, scan *algebra.Scan, key string) (sqltypes.Value, bool) {
	var found *sqltypes.Value
	algebra.Visit(rel, func(n algebra.Rel) {
		sel, ok := n.(*algebra.Select)
		if !ok || found != nil {
			return
		}
		// The Select must sit on the scan (through more Selects only).
		in := sel.In
		for {
			if inner, ok := in.(*algebra.Select); ok {
				in = inner.In
				continue
			}
			break
		}
		if in != algebra.Rel(scan) {
			return
		}
		alias := scan.Alias
		if alias == "" {
			alias = scan.Table
		}
		for _, conj := range conjuncts(sel.Pred) {
			cmp, ok := conj.(*algebra.Cmp)
			if !ok || cmp.Op != sqltypes.CmpEQ {
				continue
			}
			if v, ok := keyEqSides(cmp.L, cmp.R, alias, key); ok {
				found = &v
				return
			}
			if v, ok := keyEqSides(cmp.R, cmp.L, alias, key); ok {
				found = &v
				return
			}
		}
	})
	if found == nil {
		return sqltypes.Value{}, false
	}
	return *found, true
}

func keyEqSides(colSide, constSide algebra.Expr, alias, key string) (sqltypes.Value, bool) {
	cr, ok := colSide.(*algebra.ColRef)
	if !ok || !strings.EqualFold(cr.Name, key) {
		return sqltypes.Value{}, false
	}
	if cr.Qual != "" && !strings.EqualFold(cr.Qual, alias) {
		return sqltypes.Value{}, false
	}
	c, ok := constSide.(*algebra.Const)
	if !ok {
		return sqltypes.Value{}, false
	}
	return c.Val, true
}

func conjuncts(e algebra.Expr) []algebra.Expr {
	if l, ok := e.(*algebra.Logic); ok && l.Op == algebra.LogicAnd {
		return append(conjuncts(l.L), conjuncts(l.R)...)
	}
	return []algebra.Expr{e}
}
