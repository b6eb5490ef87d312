package exec

import (
	"sync"
	"sync/atomic"

	"udfdecorr/internal/algebra"
	"udfdecorr/internal/ast"
	"udfdecorr/internal/catalog"
	"udfdecorr/internal/core"
	"udfdecorr/internal/sqltypes"
	"udfdecorr/internal/storage"
)

// maxLoopIterations bounds WHILE loops as a safety net against runaway UDFs.
const maxLoopIterations = 100_000_000

// maxCallDepth bounds UDF call recursion.
const maxCallDepth = 64

// BodyPlanner is what lowering needs from the engine's planner (a
// *plan.Planner): serial plans for the queries embedded in a body, and the
// UDFs a body calls, resolved as CallResolver resolves them for queries.
type BodyPlanner interface {
	BuildSerial(rel algebra.Rel) (Node, error)
	ResolveScalarCall(name string, argc int) (func(ctx *Ctx, args []sqltypes.Value) (sqltypes.Value, error), bool)
}

// Interp runs procedural UDF bodies statement by statement. This is the
// paper's baseline: when a query's plan invokes a UDF per tuple, each
// embedded SQL statement is executed as a fresh (parameterized) query.
//
// A body is lowered once per Interp, at its first call: every expression is
// algebrized by core (a bare name no FROM clause binds becomes a parameter:
// the body's variable) and compiled by Compile — the evaluator decorrelated
// plans use — and every embedded query is algebrized. Each execution of an
// embedded query counts one QueryExecs. With CachePlans (profile SYS1) its
// plan is built at its first execution and kept; without (SYS2) every
// execution plans it anew, modelling a system with heavier per-invocation
// overhead. Every plan built counts one PlanBuilds.
//
// An Interp is safe for concurrent use by multiple queries: the only
// mutable state it owns is the lowered-body cache, a sync.Map whose hits
// take no lock, and each embedded query's kept plan, published atomically.
// All per-invocation state (variable bindings, call depth, counters, cursors)
// lives in the Ctx each caller supplies or in the call itself, and plan
// Nodes are immutable after construction (each Open yields an independent
// iterator). Fields are set once, before the first call (Planner right
// after the planner that holds this Interp is built), and must not be
// reassigned afterwards.
type Interp struct {
	Cat        *catalog.Catalog
	Planner    BodyPlanner
	CachePlans bool

	bodies sync.Map // *body, keyed by *ast.CreateFunctionStmt or *catalog.Aggregate
}

// NewInterp builds an interpreter over a catalog; set Planner before the
// first call.
func NewInterp(cat *catalog.Catalog, cachePlans bool) *Interp {
	return &Interp{Cat: cat, CachePlans: cachePlans}
}

// body is a lowered UDF or aggregate body. Cursors and table variables are
// resolved to slots at lowering; table slot 0 is a table-valued function's
// result. Scalar variables are looked up by name on the Ctx's binding
// stack, scanning down from the top to the call's frame: a frame holds a
// handful of names, and a call pushes and pops its frame without
// allocating.
type body struct {
	stmts   []stmt
	cursors int
	tables  int
}

// stmt is a body statement paired with what lowering compiled for it.
type stmt struct {
	src   ast.Stmt
	expr  Evaluator      // DECLARE's init, SET's value, IF's/WHILE's condition, RETURN's value (nil: none)
	vals  []Evaluator    // INSERT's values
	query *embeddedQuery // SELECT INTO's or DECLARE CURSOR's query
	then  []stmt         // IF's THEN branch, WHILE's body
	els   []stmt         // IF's ELSE branch
	slot  int            // the cursor or table variable a statement names
}

// callState is one call's cursors and table variables, by slot.
type callState struct {
	cursors []cursorState
	tables  [][]storage.Row
}

type cursorState struct {
	q    *embeddedQuery // nil until DECLARE, and again after DEALLOCATE
	rows []storage.Row
	pos  int
	open bool
}

// control indicates how statement execution terminated.
type control uint8

const (
	ctlNext control = iota
	ctlReturn
)

// lowered returns the lowered form of a body, lowering it on first use.
// tableName names a table-valued function's result table ("" otherwise).
// When two first calls race, both lower and the first body stored wins.
func (in *Interp) lowered(key any, stmts []ast.Stmt, tableName string) (*body, error) {
	if b, ok := in.bodies.Load(key); ok {
		return b.(*body), nil
	}
	if in.Planner == nil {
		return nil, Errorf("interpreter has no planner")
	}
	lw := &lowerer{in: in, cursors: map[string]int{}, tables: map[string]int{}}
	if tableName != "" {
		lw.tables[tableName] = 0
	}
	lowered, err := lw.stmts(stmts)
	if err != nil {
		return nil, err
	}
	b, _ := in.bodies.LoadOrStore(key, &body{stmts: lowered, cursors: len(lw.cursors), tables: len(lw.tables)})
	return b.(*body), nil
}

// run executes the body once; rows is a table-valued function's result.
func (b *body) run(ctx *Ctx) (ctl control, ret sqltypes.Value, rows []storage.Row, err error) {
	var st callState
	if b.cursors > 0 {
		st.cursors = make([]cursorState, b.cursors)
	}
	if b.tables > 0 {
		st.tables = make([][]storage.Row, b.tables)
	}
	ctl, ret, err = execStmts(ctx, &st, b.stmts)
	if b.tables > 0 {
		rows = st.tables[0]
	}
	return ctl, ret, rows, err
}

// lowerer lowers one body, assigning cursor and table-variable slots.
type lowerer struct {
	in      *Interp
	cursors map[string]int
	tables  map[string]int
}

func slot(slots map[string]int, name string) int {
	i, ok := slots[name]
	if !ok {
		i = len(slots)
		slots[name] = i
	}
	return i
}

func (lw *lowerer) stmts(src []ast.Stmt) ([]stmt, error) {
	out := make([]stmt, len(src))
	for i, s := range src {
		if err := lw.stmt(&out[i], s); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func (lw *lowerer) stmt(l *stmt, s ast.Stmt) (err error) {
	l.src = s
	compile := lw.in.CompileExpr
	switch n := s.(type) {
	case *ast.DeclareStmt:
		if n.Init != nil {
			l.expr, err = compile(n.Init)
		}
	case *ast.AssignStmt:
		l.expr, err = compile(n.Expr)
	case *ast.IfStmt:
		if l.expr, err = compile(n.Cond); err == nil {
			if l.then, err = lw.stmts(n.Then); err == nil {
				l.els, err = lw.stmts(n.Else)
			}
		}
	case *ast.WhileStmt:
		if l.expr, err = compile(n.Cond); err == nil {
			l.then, err = lw.stmts(n.Body)
		}
	case *ast.ReturnStmt:
		// RETURN tt; in a table-valued function names the table variable,
		// not a scalar: lowered without a value.
		if cn, ok := n.Expr.(*ast.ColName); ok && cn.Qual == "" {
			if _, isTable := lw.tables[cn.Name]; isTable {
				return nil
			}
		}
		if n.Table == "" {
			l.expr, err = compile(n.Expr)
		}
	case *ast.SelectIntoStmt:
		l.query, err = lw.query(n.Select)
	case *ast.DeclareCursorStmt:
		l.slot = slot(lw.cursors, n.Name)
		l.query, err = lw.query(n.Select)
	case *ast.OpenStmt:
		l.slot = slot(lw.cursors, n.Cursor)
	case *ast.FetchStmt:
		l.slot = slot(lw.cursors, n.Cursor)
	case *ast.CloseStmt:
		l.slot = slot(lw.cursors, n.Cursor)
	case *ast.DeallocateStmt:
		l.slot = slot(lw.cursors, n.Cursor)
	case *ast.InsertStmt:
		l.slot = slot(lw.tables, n.Table)
		l.vals = make([]Evaluator, len(n.Values))
		for i, e := range n.Values {
			if l.vals[i], err = compile(e); err != nil {
				return err
			}
		}
	default:
		return Errorf("cannot interpret statement %T", s)
	}
	return err
}

func (lw *lowerer) query(sel *ast.SelectStmt) (*embeddedQuery, error) {
	rel, err := core.NewAlgebrizer(lw.in.Cat).Query(sel)
	if err != nil {
		return nil, err
	}
	return &embeddedQuery{in: lw.in, rel: rel}, nil
}

// CompileExpr compiles one procedural expression exactly as a body's
// expressions are lowered; INSERT ... VALUES evaluates its values with it.
func (in *Interp) CompileExpr(e ast.Expr) (Evaluator, error) {
	ae, err := core.NewAlgebrizer(in.Cat).Expr(e)
	if err != nil {
		return nil, err
	}
	return Compile(ae, nil, bodyResolver{in})
}

// bodyResolver resolves calls through the Planner and turns the
// subqueries of a body's expressions into embedded queries. Body
// expressions compile against an empty schema, so nothing correlates.
type bodyResolver struct{ in *Interp }

func (r bodyResolver) ResolveScalarCall(name string, argc int) (func(ctx *Ctx, args []sqltypes.Value) (sqltypes.Value, error), bool) {
	return r.in.Planner.ResolveScalarCall(name, argc)
}

func (r bodyResolver) BuildSubplan(rel algebra.Rel, _ []algebra.Column) (Node, []CorrBinding, error) {
	return &embeddedQuery{in: r.in, rel: rel}, nil, nil
}

// embeddedQuery is a query inside a UDF body: SELECT INTO, a cursor's
// query, or a scalar subquery, EXISTS or IN subquery in an expression.
type embeddedQuery struct {
	in   *Interp
	rel  algebra.Rel
	plan atomic.Pointer[Node] // the kept plan under CachePlans
}

// node returns the plan for one execution, counting it. Normalization gives
// embedded queries the ordinary optimizations (predicate pushdown into
// joins) a commercial system performs. They execute once per UDF
// invocation, so they plan serially (worker fan-out per invocation would
// only add overhead).
func (q *embeddedQuery) node(ctx *Ctx) (Node, error) {
	if p := q.plan.Load(); p != nil {
		ctx.Counters.QueryExecs++
		return *p, nil
	}
	ctx.Counters.PlanBuilds++
	n, err := q.in.Planner.BuildSerial(core.Normalize(q.in.Cat, q.rel))
	if err != nil {
		return nil, err
	}
	if q.in.CachePlans {
		q.plan.Store(&n)
	}
	ctx.Counters.QueryExecs++
	return n, nil
}

// Schema implements Node.
func (q *embeddedQuery) Schema() []algebra.Column { return q.rel.Schema() }

// Open implements Node: one execution, streamed.
func (q *embeddedQuery) Open(ctx *Ctx) (Iter, error) {
	n, err := q.node(ctx)
	if err != nil {
		return nil, err
	}
	return OpenRows(n, ctx)
}

// rows runs one execution to completion.
func (q *embeddedQuery) rows(ctx *Ctx) ([]storage.Row, error) {
	n, err := q.node(ctx)
	if err != nil {
		return nil, err
	}
	return Drain(n, ctx)
}

// CallScalar invokes a scalar UDF with the given arguments.
func (in *Interp) CallScalar(ctx *Ctx, name string, args []sqltypes.Value) (sqltypes.Value, error) {
	v, _, err := in.call(ctx, name, args, false)
	return v, err
}

// CallTable invokes a table-valued UDF, returning its materialized rows.
func (in *Interp) CallTable(ctx *Ctx, name string, args []sqltypes.Value) ([]storage.Row, error) {
	_, rows, err := in.call(ctx, name, args, true)
	return rows, err
}

// call runs a UDF's body with its arguments bound in a fresh call frame. A
// scalar function that ends without RETURN yields NULL.
func (in *Interp) call(ctx *Ctx, name string, args []sqltypes.Value, table bool) (sqltypes.Value, []storage.Row, error) {
	fn, ok := in.Cat.Function(name)
	switch {
	case !ok:
		return sqltypes.Null, nil, Errorf("unknown function %q", name)
	case table && !fn.IsTableValued():
		return sqltypes.Null, nil, Errorf("function %q is scalar; table context", name)
	case !table && fn.IsTableValued():
		return sqltypes.Null, nil, Errorf("function %q returns a table; scalar context", name)
	case len(args) != len(fn.Def.Params):
		return sqltypes.Null, nil, Errorf("function %q expects %d args, got %d", name, len(fn.Def.Params), len(args))
	}
	b, err := in.lowered(fn.Def, fn.Def.Body, fn.Def.TableName)
	if err != nil {
		return sqltypes.Null, nil, err
	}
	ctx.depth++
	defer func() { ctx.depth-- }()
	if ctx.depth > maxCallDepth {
		return sqltypes.Null, nil, Errorf("UDF call depth exceeded in %q", name)
	}
	ctx.Counters.UDFCalls++
	defer ctx.popCall(ctx.pushCall())
	for i, p := range fn.Def.Params {
		ctx.Set(p.Name, args[i])
	}
	ctl, ret, rows, err := b.run(ctx)
	if err != nil {
		return sqltypes.Null, nil, err
	}
	if ctl != ctlReturn {
		ret = sqltypes.Null
	}
	for _, r := range rows {
		if len(r) != len(fn.Def.TableCols) {
			return sqltypes.Null, nil, Errorf("function %q: inserted row arity %d, want %d", name, len(r), len(fn.Def.TableCols))
		}
	}
	return ret, rows, nil
}

// Accumulate runs a user-defined aggregate's accumulate body once, updating
// the state map in place.
func (in *Interp) Accumulate(ctx *Ctx, def *catalog.Aggregate, state map[string]sqltypes.Value, args []sqltypes.Value) error {
	if len(args) != len(def.Params) {
		return Errorf("aggregate %q expects %d args, got %d", def.Name, len(def.Params), len(args))
	}
	b, err := in.lowered(def, def.Body, "")
	if err != nil {
		return err
	}
	defer ctx.popCall(ctx.pushCall())
	for k, v := range state {
		ctx.Set(k, v)
	}
	for i, p := range def.Params {
		ctx.Set(p, args[i])
	}
	if _, _, _, err := b.run(ctx); err != nil {
		return err
	}
	for k := range state {
		if v, ok := ctx.Get(k); ok {
			state[k] = v
		}
	}
	return nil
}

// execStmts executes a statement list. The per-statement cancellation check
// is what makes a runaway UDF (e.g. a hot WHILE loop, whose body re-enters
// here every iteration) respond to query cancellation and timeouts.
func execStmts(ctx *Ctx, st *callState, stmts []stmt) (control, sqltypes.Value, error) {
	for i := range stmts {
		if err := ctx.Cancelled(); err != nil {
			return ctlNext, sqltypes.Null, err
		}
		ctl, v, err := execStmt(ctx, st, &stmts[i])
		if err != nil || ctl == ctlReturn {
			return ctl, v, err
		}
	}
	return ctlNext, sqltypes.Null, nil
}

func execStmt(ctx *Ctx, st *callState, s *stmt) (control, sqltypes.Value, error) {
	switch n := s.src.(type) {
	case *ast.DeclareStmt:
		v := sqltypes.Null // ⊥
		if s.expr != nil {
			var err error
			if v, err = s.expr(ctx, nil); err != nil {
				return ctlNext, sqltypes.Null, err
			}
		}
		ctx.Set(n.Name, v)

	case *ast.AssignStmt:
		v, err := s.expr(ctx, nil)
		if err != nil {
			return ctlNext, sqltypes.Null, err
		}
		ctx.Assign(n.Name, v)

	case *ast.IfStmt:
		c, err := s.expr(ctx, nil)
		if err != nil {
			return ctlNext, sqltypes.Null, err
		}
		if sqltypes.TriOf(c) == sqltypes.True {
			return execStmts(ctx, st, s.then)
		}
		return execStmts(ctx, st, s.els)

	case *ast.ReturnStmt:
		if s.expr == nil {
			// Table return: the rows stay in the call's table slot.
			return ctlReturn, sqltypes.Null, nil
		}
		v, err := s.expr(ctx, nil)
		if err != nil {
			return ctlNext, sqltypes.Null, err
		}
		return ctlReturn, v, nil

	case *ast.SelectIntoStmt:
		rows, err := s.query.rows(ctx)
		if err != nil {
			return ctlNext, sqltypes.Null, err
		}
		targets := n.Select.Into
		switch len(rows) {
		case 0:
			// An empty result leaves the targets at ⊥ (NULL), as
			// ApplyMerge does in the decorrelated form.
			for _, t := range targets {
				ctx.Assign(t, sqltypes.Null)
			}
		case 1:
			if len(rows[0]) < len(targets) {
				return ctlNext, sqltypes.Null, Errorf("SELECT INTO: %d columns for %d targets", len(rows[0]), len(targets))
			}
			for i, t := range targets {
				ctx.Assign(t, rows[0][i])
			}
		default:
			return ctlNext, sqltypes.Null, Errorf("SELECT INTO returned %d rows", len(rows))
		}

	case *ast.DeclareCursorStmt:
		st.cursors[s.slot] = cursorState{q: s.query}

	case *ast.OpenStmt:
		cur := &st.cursors[s.slot]
		if cur.q == nil {
			return ctlNext, sqltypes.Null, Errorf("unknown cursor %q", n.Cursor)
		}
		rows, err := cur.q.rows(ctx)
		if err != nil {
			return ctlNext, sqltypes.Null, err
		}
		cur.rows, cur.pos, cur.open = rows, 0, true

	case *ast.FetchStmt:
		cur := &st.cursors[s.slot]
		if !cur.open {
			return ctlNext, sqltypes.Null, Errorf("cursor %q is not open", n.Cursor)
		}
		if cur.pos >= len(cur.rows) {
			ctx.Assign("@@fetch_status", sqltypes.NewInt(-1))
			return ctlNext, sqltypes.Null, nil
		}
		row := cur.rows[cur.pos]
		cur.pos++
		if len(row) < len(n.Into) {
			return ctlNext, sqltypes.Null, Errorf("FETCH: %d columns for %d targets", len(row), len(n.Into))
		}
		for i, t := range n.Into {
			ctx.Assign(t, row[i])
		}
		ctx.Assign("@@fetch_status", sqltypes.NewInt(0))

	case *ast.WhileStmt:
		for iter := 0; ; iter++ {
			if iter >= maxLoopIterations {
				return ctlNext, sqltypes.Null, Errorf("WHILE loop exceeded %d iterations", maxLoopIterations)
			}
			if err := ctx.Cancelled(); err != nil {
				return ctlNext, sqltypes.Null, err
			}
			c, err := s.expr(ctx, nil)
			if err != nil {
				return ctlNext, sqltypes.Null, err
			}
			if sqltypes.TriOf(c) != sqltypes.True {
				return ctlNext, sqltypes.Null, nil
			}
			ctl, v, err := execStmts(ctx, st, s.then)
			if err != nil || ctl == ctlReturn {
				return ctl, v, err
			}
		}

	case *ast.CloseStmt:
		st.cursors[s.slot].open = false

	case *ast.DeallocateStmt:
		st.cursors[s.slot] = cursorState{}

	case *ast.InsertStmt:
		row := make(storage.Row, len(s.vals))
		for i, ev := range s.vals {
			v, err := ev(ctx, nil)
			if err != nil {
				return ctlNext, sqltypes.Null, err
			}
			row[i] = v
		}
		st.tables[s.slot] = append(st.tables[s.slot], row)
	}
	return ctlNext, sqltypes.Null, nil
}
