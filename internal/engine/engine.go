// Package engine is the database facade: it owns the catalog, storage, the
// planner and the UDF interpreter. Statements come in through one prepare
// path (Prepare), one run path (Run) and one script loop (Exec), with three
// execution modes — iterative UDF invocation (the paper's baseline), forced
// decorrelation (the paper's rewrite tool), and cost-based choice between
// the two (the integration the paper argues for).
package engine

import (
	"context"
	"fmt"
	"strings"

	"udfdecorr/internal/algebra"
	"udfdecorr/internal/ast"
	"udfdecorr/internal/catalog"
	"udfdecorr/internal/core"
	"udfdecorr/internal/exec"
	"udfdecorr/internal/parser"
	"udfdecorr/internal/plan"
	"udfdecorr/internal/sqltypes"
	"udfdecorr/internal/storage"
)

// Mode selects how queries with UDF invocations execute.
type Mode uint8

// Execution modes.
const (
	// ModeIterative never rewrites: UDFs run tuple-at-a-time through the
	// interpreter.
	ModeIterative Mode = iota
	// ModeRewrite always decorrelates when the rules fully remove the
	// Apply operators, else falls back to iterative execution.
	ModeRewrite
	// ModeCostBased plans both forms and picks the cheaper estimate.
	ModeCostBased
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case ModeIterative:
		return "iterative"
	case ModeRewrite:
		return "rewrite"
	case ModeCostBased:
		return "cost-based"
	default:
		return "?"
	}
}

// Profile models the two commercial systems of the paper's evaluation.
// SYS1 plans each query embedded in a UDF body once, at its first
// execution; SYS2 re-plans it on every execution, modelling a system with
// heavier per-invocation overhead. Both count every execution in
// Counters.QueryExecs and every plan in Counters.PlanBuilds.
type Profile struct {
	Name       string
	CachePlans bool
	// Vectorized selects the batch execution path: operators exchange
	// column-vector batches instead of single rows, and scalar expressions
	// evaluate batch-at-a-time. Results are identical to the row engine
	// (the differential suite asserts this); only throughput changes.
	Vectorized bool
	// Parallelism is the intra-query worker degree for vectorized plans
	// (<= 1 disables): pipeline segments run morsel-driven on N workers and
	// aggregations build per-worker partial states. Parallel plans may emit
	// rows in any order and may re-associate floating-point aggregation, so
	// results are multiset-equal (exactly equal for integer aggregates) to
	// the serial executor's.
	Parallelism int
}

// Profiles.
var (
	SYS1 = Profile{Name: "SYS1", CachePlans: true}
	SYS2 = Profile{Name: "SYS2", CachePlans: false}
)

// Engine is an in-memory SQL engine with procedural UDF support.
//
// Concurrency: Prepare, Run, RunContext, Query and RewriteSQL are safe to
// call concurrently from many goroutines on one Engine, PROVIDED no DDL runs
// concurrently (scripts with CREATE statements and CreateIndex require
// exclusive access — the query service serializes them behind a write
// lock). The Mode/Profile fields are configuration fixed at construction,
// not runtime switches. Sessions that need distinct settings over the same
// data use NewShared to get independent engine views of one catalog+store.
type Engine struct {
	Cat     *catalog.Catalog
	Store   *storage.Store
	Interp  *exec.Interp
	Planner *plan.Planner
	Mode    Mode
	Profile Profile
	// Durable is the write-ahead-log/checkpoint state of an engine opened
	// with OpenDurable; nil for volatile engines (New) and for NewShared
	// views, which still log every mutation through the hooks OpenDurable
	// installed on the catalog and store.
	Durable *Durability
}

// New creates an empty engine.
func New(profile Profile, mode Mode) *Engine {
	return NewShared(catalog.New(), storage.NewStore(), profile, mode)
}

// NewShared creates an engine view over an existing catalog and store. Each
// view has its own interpreter (and therefore its own lowered UDF bodies
// and embedded-query plans) and planner settings, so concurrent sessions
// with different modes, profiles or executors can share one dataset.
func NewShared(cat *catalog.Catalog, store *storage.Store, profile Profile, mode Mode) *Engine {
	e := &Engine{
		Cat:     cat,
		Store:   store,
		Mode:    mode,
		Profile: profile,
	}
	e.Interp = exec.NewInterp(e.Cat, profile.CachePlans)
	e.Planner = plan.New(e.Cat, e.Store, e.Interp)
	e.Interp.Planner = e.Planner
	e.Planner.Vectorized = profile.Vectorized
	e.Planner.Parallelism = profile.Parallelism
	return e
}

// ExecScript parses src and executes it with Exec under a background
// context, with script-local transactions.
func (e *Engine) ExecScript(src string) error {
	script, err := parser.ParseScript(src)
	if err != nil {
		return err
	}
	return e.Exec(context.Background(), script, nil)
}

// Exec executes a parsed script's statements in source order. It is the one
// statement loop behind ExecScript, the query service's /exec and the
// database/sql driver, and it honors cancellation between statements (and
// inside INSERT value evaluation, which may invoke UDFs).
//
// BEGIN/COMMIT/ROLLBACK open and end the transaction held in slot, and
// INSERTs inside one are buffered and published atomically at COMMIT. A
// session's slot outlives the call, so BEGIN and COMMIT may arrive in
// different scripts. A nil slot makes transactions script-local: one left
// open at script end (or abandoned by an error) is rolled back. DDL while a
// transaction is open is refused.
//
// INSERTs outside a transaction run as autocommit runs: each maximal run
// publishes (and is logged) as one group when another statement starts, at
// script end, or — on an error or cancellation at a later statement — before
// that error returns, so the already-applied prefix stays applied. Bare
// SELECTs are ignored (queries go through Prepare and Run).
func (e *Engine) Exec(ctx context.Context, script *ast.Script, slot *TxnSlot) (err error) {
	if slot == nil {
		slot = &TxnSlot{}
		defer slot.Rollback()
	}
	run := autocommit{eng: e}
	defer func() { err = run.finish(err) }()
	for _, stmt := range script.Stmts {
		if err := ctx.Err(); err != nil {
			return err
		}
		txn := slot.Txn()
		if ins, ok := stmt.(*ast.InsertStmt); ok && txn == nil {
			if err := run.insert(ctx, ins); err != nil {
				return err
			}
			continue
		}
		if err := run.commit(); err != nil {
			return err
		}
		switch s := stmt.(type) {
		case *ast.CreateTableStmt:
			if txn != nil {
				return errDDLInTxn
			}
			meta, err := e.Cat.AddTableFromAST(s)
			if err != nil {
				return err
			}
			if _, err := e.Store.CreateTable(meta); err != nil {
				return err
			}
		case *ast.CreateFunctionStmt:
			if txn != nil {
				return errDDLInTxn
			}
			if _, err := e.Cat.AddFunction(s); err != nil {
				return err
			}
		case *ast.InsertStmt:
			if err := txn.Insert(ctx, s); err != nil {
				return err
			}
		case *ast.TxnStmt:
			if err := slot.control(e, s.Kind); err != nil {
				return err
			}
		}
	}
	return nil
}

// evalInsertRow checks arity against the catalog and evaluates the value
// expressions under ctx (whose snapshot, if set, scopes any UDF reads).
// The values compile as a UDF body's expressions do, once per statement.
func (e *Engine) evalInsertRow(ctx *exec.Ctx, ins *ast.InsertStmt) (storage.Row, error) {
	meta, ok := e.Cat.Table(ins.Table)
	if !ok {
		return nil, fmt.Errorf("unknown table %q", ins.Table)
	}
	if len(ins.Values) != len(meta.Cols) {
		return nil, fmt.Errorf("INSERT into %s: %d values for %d columns",
			ins.Table, len(ins.Values), len(meta.Cols))
	}
	row := make(storage.Row, len(ins.Values))
	for i, expr := range ins.Values {
		ev, err := e.Interp.CompileExpr(expr)
		if err == nil {
			row[i], err = ev(ctx, nil)
		}
		if err != nil {
			return nil, fmt.Errorf("INSERT into %s: %w", ins.Table, err)
		}
	}
	return row, nil
}

// CreateIndex declares a secondary hash index on a column. This is DDL: it
// bumps the catalog schema version (invalidating cached plans) and must not
// run concurrently with queries.
func (e *Engine) CreateIndex(table, col string) error {
	return e.Cat.AddIndex(table, col)
}

// Load appends rows to a table as a one-table Store.AppendBatch, so on a
// durable store it is logged exactly like a transaction: one
// BEGIN/TXN-INSERT/COMMIT group written before the rows become visible.
func (e *Engine) Load(table string, rows []storage.Row) error {
	t, ok := e.Store.Table(table)
	if !ok {
		return fmt.Errorf("unknown table %q", table)
	}
	return e.Store.AppendBatch([]storage.TableWrite{{Table: t, Rows: rows}})
}

// Result is a materialized query result.
type Result struct {
	Cols []string
	Rows []storage.Row
	// Counters are the execution metrics (UDF invocations etc.).
	Counters exec.Counters
	// Rewritten reports whether the decorrelated form was executed.
	Rewritten bool
}

// Format renders the result as an aligned text table.
func (r *Result) Format() string {
	var b strings.Builder
	b.WriteString(strings.Join(r.Cols, "\t"))
	b.WriteString("\n")
	for _, row := range r.Rows {
		parts := make([]string, len(row))
		for i, v := range row {
			parts[i] = v.Display()
		}
		b.WriteString(strings.Join(parts, "\t"))
		b.WriteString("\n")
	}
	return b.String()
}

// Prepared is a compiled query: the physical plan plus everything needed to
// execute or explain it. A Prepared is immutable and safe to execute
// concurrently (and from different engine views sharing the same catalog and
// store): all execution state flows through the per-call Ctx, so the query
// service caches Prepared values across sessions.
type Prepared struct {
	Node      exec.Node
	Cols      []string
	Rewritten bool
	Choices   []string
	// Parallelism is the plan's effective intra-query degree: the configured
	// degree when the parallel rewrite fired, 1 when the plan stayed serial
	// (no parallel-safe decomposition, or parallelism off). The choice log
	// names each parallel operator.
	Parallelism int
}

// Describe renders the plan description shown by EXPLAIN (the query
// service's /explain endpoint and EXPLAIN ANALYZE's header; the golden tests
// pin this format).
func (p *Prepared) Describe(mode Mode, vectorized bool) string {
	var b strings.Builder
	executor := "row"
	if vectorized {
		executor = "vectorized"
	}
	fmt.Fprintf(&b, "mode: %s\nexecutor: %s\nrewritten: %v\n", mode, executor, p.Rewritten)
	if p.Parallelism > 1 {
		fmt.Fprintf(&b, "parallelism: %d\n", p.Parallelism)
	}
	for _, c := range p.Choices {
		fmt.Fprintf(&b, "  %s\n", c)
	}
	return b.String()
}

// Prepare parses, algebrizes and (depending on mode) rewrites a query,
// returning the compiled plan. This is the per-invocation planning work the
// plan cache amortizes.
func (e *Engine) Prepare(sql string) (*Prepared, error) {
	return e.prepare(sql, false)
}

// PreparePartialAgg prepares sql in shard-local partial-aggregate mode: the
// plan's root must be a plain projection over an all-mergeable GROUP BY
// (the shape the shard router classifies as scatter-merge), and the
// prepared plan emits the GROUP BY's raw output — group keys followed by
// per-shard partial aggregate columns, with avg decomposed into sum+count —
// instead of the final projection. The router's gather merges those
// partials across shards and applies the original projection itself.
func (e *Engine) PreparePartialAgg(sql string) (*Prepared, error) {
	return e.prepare(sql, true)
}

func (e *Engine) prepare(sql string, partialAgg bool) (*Prepared, error) {
	sel, err := parser.ParseQuery(sql)
	if err != nil {
		return nil, err
	}
	alg := core.NewAlgebrizer(e.Cat)
	rel, err := alg.Query(sel)
	if err != nil {
		return nil, err
	}

	useRewrite := false
	var rewritten algebra.Rel
	if e.Mode != ModeIterative {
		d := core.NewDecorrelator(e.Cat)
		res, err := d.Rewrite(rel)
		if err != nil {
			return nil, err
		}
		if res.Decorrelated {
			rewritten = res.Rel
			useRewrite = true
			for _, agg := range res.NewAggs {
				// Auxiliary aggregates are content-addressed, so the
				// check-and-register is idempotent under concurrency.
				if err := e.Cat.EnsureAggregate(agg); err != nil {
					return nil, err
				}
			}
		}
	}
	if useRewrite && e.Mode == ModeCostBased {
		// Correlated evaluation remains an alternative: compare cost
		// estimates of the two forms. The iterative form streams the outer
		// rows and pays a per-invocation penalty (embedded statements).
		origCost := e.Planner.CostOf(rel) + e.Planner.Estimate(rel)*iterativeRowCost
		rewCost := e.Planner.CostOf(rewritten)
		if origCost < rewCost {
			useRewrite = false
		}
	}

	target := rel
	if useRewrite {
		target = rewritten
	}
	target = core.Normalize(e.Cat, target)
	if partialAgg {
		target, err = partialAggRewrite(target)
		if err != nil {
			return nil, err
		}
	}
	node, choices, degree, err := e.Planner.BuildExplain(target)
	if err != nil {
		return nil, err
	}
	cols := make([]string, len(node.Schema()))
	for i, c := range node.Schema() {
		cols[i] = c.Name
	}
	return &Prepared{Node: node, Cols: cols, Rewritten: useRewrite,
		Choices: choices, Parallelism: degree}, nil
}

// iterativeRowCost is the assumed per-row cost multiplier of invoking a UDF
// iteratively (each invocation runs at least one embedded query).
const iterativeRowCost = 50

// Query executes a SELECT statement, materializing the full result.
func (e *Engine) Query(sql string) (*Result, error) {
	p, err := e.Prepare(sql)
	if err != nil {
		return nil, err
	}
	rows, err := e.Run(context.Background(), p, RunOpts{})
	if err != nil {
		return nil, err
	}
	return rows.Materialize()
}

// RewriteSQL runs only the rewrite pipeline and reports the decorrelated
// algebra (for the udfrewrite tool and tests).
func (e *Engine) RewriteSQL(sql string) (*core.Result, error) {
	sel, err := parser.ParseQuery(sql)
	if err != nil {
		return nil, err
	}
	alg := core.NewAlgebrizer(e.Cat)
	rel, err := alg.Query(sel)
	if err != nil {
		return nil, err
	}
	return core.NewDecorrelator(e.Cat).Rewrite(rel)
}

// MustLoadInts is a test helper: loads rows given as int64 matrices.
func (e *Engine) MustLoadInts(table string, rows [][]int64) {
	out := make([]storage.Row, len(rows))
	for i, r := range rows {
		row := make(storage.Row, len(r))
		for j, v := range r {
			row[j] = sqltypes.NewInt(v)
		}
		out[i] = row
	}
	if err := e.Load(table, out); err != nil {
		panic(err)
	}
}
