// Package catalog holds schema metadata: tables, scalar and table-valued
// user-defined functions, and user-defined aggregate functions (both native
// and the auxiliary aggregates synthesized by the loop rewriter).
package catalog

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"udfdecorr/internal/ast"
	"udfdecorr/internal/sqltypes"
)

// Column is a named, typed column.
type Column struct {
	Name string
	Type sqltypes.Kind
}

// Table describes a base table.
//
// A *Table is effectively immutable once registered: the only mutation after
// registration is AddIndex, which the catalog serializes under its lock and
// which callers must not interleave with concurrent planning (the query
// service takes its DDL write lock around index creation).
type Table struct {
	Name    string
	Cols    []Column
	PKCols  []string // primary-key column names (may be empty)
	Indexes []string // columns with secondary hash indexes
	// ShardKey is the column the sharded query tier hash-partitions this
	// table by; empty means the table is replicated to every shard. The
	// single-node engine stores it only so DDL round-trips through the WAL
	// and the router can rebuild its placement map from forwarded DDL.
	ShardKey string
}

// ColIndex returns the ordinal of a column, or -1.
func (t *Table) ColIndex(name string) int {
	for i, c := range t.Cols {
		if c.Name == name {
			return i
		}
	}
	return -1
}

// Function is a user-defined function (scalar or table-valued).
type Function struct {
	Def *ast.CreateFunctionStmt
}

// IsTableValued reports whether the function returns a table.
func (f *Function) IsTableValued() bool { return f.Def.TableName != "" }

// ReturnCols returns the schema of a table-valued function's result.
func (f *Function) ReturnCols() []Column {
	cols := make([]Column, len(f.Def.TableCols))
	for i, c := range f.Def.TableCols {
		cols[i] = Column{Name: c.Name, Type: c.Type}
	}
	return cols
}

// AggStateVar is one state variable of a user-defined aggregate with its
// statically-determined initial value.
type AggStateVar struct {
	Name string
	Init sqltypes.Value
}

// Aggregate is a user-defined aggregate function in the
// initialize/accumulate/terminate style of Section VII (Example 6).
// Accumulate is a sequence of procedural statements executed once per input
// row with the parameters bound; Result names the state variable returned by
// terminate.
type Aggregate struct {
	Name   string
	State  []AggStateVar
	Params []string // accumulate parameter names, in call order
	Body   []ast.Stmt
	Result string
}

// SQL renders the aggregate definition in the paper's
// initialize/accumulate/terminate surface syntax for display by the rewrite
// tool.
func (a *Aggregate) SQL() string {
	var b strings.Builder
	fmt.Fprintf(&b, "CREATE AGGREGATE %s(%s) AS\n", a.Name, strings.Join(a.Params, ", "))
	b.WriteString("  INITIALIZE\n")
	for _, s := range a.State {
		fmt.Fprintf(&b, "    %s = %s;\n", s.Name, s.Init.String())
	}
	b.WriteString("  ACCUMULATE\n")
	for _, s := range a.Body {
		fmt.Fprintf(&b, "    %s\n", s.SQL())
	}
	fmt.Fprintf(&b, "  TERMINATE\n    RETURN %s;\n", a.Result)
	return b.String()
}

// Fingerprint renders the aggregate's full definition (everything except the
// name) for content comparison and content-addressed naming.
func (a *Aggregate) Fingerprint() string {
	var b strings.Builder
	for _, s := range a.State {
		fmt.Fprintf(&b, "S:%s=%s;", s.Name, s.Init.String())
	}
	fmt.Fprintf(&b, "P:%s;", strings.Join(a.Params, ","))
	for _, s := range a.Body {
		fmt.Fprintf(&b, "B:%s;", s.SQL())
	}
	fmt.Fprintf(&b, "R:%s", a.Result)
	return b.String()
}

// BuiltinAggregates is the set of aggregate function names the engine
// implements natively. Every one of them can be merged from partial states,
// so this is also the list parallel aggregation (exec.AggSpec.Mergeable)
// and the shard passes (plan.classifyMerge, engine's partial rewrite)
// accept for merging.
var BuiltinAggregates = map[string]bool{
	"sum": true, "count": true, "min": true, "max": true, "avg": true,
}

// Catalog is a named collection of tables, functions and aggregates.
//
// A Catalog is safe for concurrent use: lookups take a read lock and DDL
// registration takes a write lock. The schema version counter increments on
// every mutation that can change what plans a query text compiles to
// (CREATE TABLE, CREATE FUNCTION, index creation); the query service uses it
// to invalidate cached plans on DDL. Registering an auxiliary aggregate does
// NOT bump the version: auxiliary aggregates are content-addressed artifacts
// derived from existing functions and never invalidate an existing plan.
type Catalog struct {
	mu       sync.RWMutex
	version  int64
	tables   map[string]*Table
	funcs    map[string]*Function
	aggs     map[string]*Aggregate
	onChange func(Change) error
}

// Change is one durable schema mutation handed to the commit hook. Exactly
// one group of fields is set: Table for CREATE TABLE, Function for CREATE
// FUNCTION, or IndexTable/IndexCol for a secondary-index declaration.
// Auxiliary aggregates are NOT reported: they are content-addressed
// artifacts re-derived from the functions during planning, so logging them
// would be redundant state.
type Change struct {
	Table      *Table
	Function   *ast.CreateFunctionStmt
	IndexTable string
	IndexCol   string
}

// SetChangeHook installs the durability commit hook: fn runs under the
// catalog lock before each schema mutation commits, and an error from it
// vetoes the mutation (write-ahead). The hook must not call back into the
// catalog. The durability layer attaches it only after recovery replay, so
// replayed DDL is not re-logged.
func (c *Catalog) SetChangeHook(fn func(Change) error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.onChange = fn
}

// New returns an empty catalog.
func New() *Catalog {
	return &Catalog{
		tables: map[string]*Table{},
		funcs:  map[string]*Function{},
		aggs:   map[string]*Aggregate{},
	}
}

// Version returns the schema version: it changes whenever a table or
// function is added or an index is declared.
func (c *Catalog) Version() int64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.version
}

// AddTable registers a table; it is an error to register the same name twice.
func (c *Catalog) AddTable(t *Table) error {
	name := strings.ToLower(t.Name)
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, dup := c.tables[name]; dup {
		return fmt.Errorf("table %q already exists", t.Name)
	}
	if c.onChange != nil {
		if err := c.onChange(Change{Table: t}); err != nil {
			return fmt.Errorf("table %q: commit hook: %w", t.Name, err)
		}
	}
	c.tables[name] = t
	c.version++
	return nil
}

// AddTableFromAST registers a table from a parsed CREATE TABLE.
func (c *Catalog) AddTableFromAST(stmt *ast.CreateTableStmt) (*Table, error) {
	t := &Table{Name: stmt.Name, ShardKey: stmt.ShardKey}
	for _, col := range stmt.Cols {
		t.Cols = append(t.Cols, Column{Name: col.Name, Type: col.Type})
		if col.PrimaryKey {
			t.PKCols = append(t.PKCols, col.Name)
		}
	}
	if err := c.AddTable(t); err != nil {
		return nil, err
	}
	return t, nil
}

// AddIndex declares a secondary hash index on a column and bumps the schema
// version (an index changes the physical plans the planner picks).
func (c *Catalog) AddIndex(table, col string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	t, ok := c.tables[strings.ToLower(table)]
	if !ok {
		return fmt.Errorf("unknown table %q", table)
	}
	if t.ColIndex(col) < 0 {
		return fmt.Errorf("table %q has no column %q", table, col)
	}
	for _, existing := range t.Indexes {
		if existing == col {
			return nil
		}
	}
	if c.onChange != nil {
		if err := c.onChange(Change{IndexTable: table, IndexCol: col}); err != nil {
			return fmt.Errorf("index on %s(%s): commit hook: %w", table, col, err)
		}
	}
	t.Indexes = append(t.Indexes, col)
	c.version++
	return nil
}

// Table looks up a table by name (case-insensitive).
func (c *Catalog) Table(name string) (*Table, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	t, ok := c.tables[strings.ToLower(name)]
	return t, ok
}

// Tables returns all tables sorted by name.
func (c *Catalog) Tables() []*Table {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]*Table, 0, len(c.tables))
	for _, t := range c.tables {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// AddFunction registers a UDF.
func (c *Catalog) AddFunction(def *ast.CreateFunctionStmt) (*Function, error) {
	name := strings.ToLower(def.Name)
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, dup := c.funcs[name]; dup {
		return nil, fmt.Errorf("function %q already exists", def.Name)
	}
	if c.onChange != nil {
		if err := c.onChange(Change{Function: def}); err != nil {
			return nil, fmt.Errorf("function %q: commit hook: %w", def.Name, err)
		}
	}
	f := &Function{Def: def}
	c.funcs[name] = f
	c.version++
	return f, nil
}

// Function looks up a UDF by name.
func (c *Catalog) Function(name string) (*Function, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	f, ok := c.funcs[strings.ToLower(name)]
	return f, ok
}

// Functions returns all UDFs sorted by name.
func (c *Catalog) Functions() []*Function {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]*Function, 0, len(c.funcs))
	for _, f := range c.funcs {
		out = append(out, f)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Def.Name < out[j].Def.Name })
	return out
}

// AddAggregate registers a user-defined aggregate.
func (c *Catalog) AddAggregate(a *Aggregate) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.addAggregateLocked(a)
}

func (c *Catalog) addAggregateLocked(a *Aggregate) error {
	name := strings.ToLower(a.Name)
	if BuiltinAggregates[name] {
		return fmt.Errorf("aggregate %q shadows a builtin", a.Name)
	}
	if _, dup := c.aggs[name]; dup {
		return fmt.Errorf("aggregate %q already exists", a.Name)
	}
	c.aggs[name] = a
	return nil
}

// EnsureAggregate registers an aggregate unless an identical definition is
// already present (the check and the insert are one atomic step, so
// concurrent rewrites of the same UDF can both call it). Auxiliary
// aggregates are content-addressed (see core's synthAggName), so a name
// collision with a different definition indicates corruption and fails.
func (c *Catalog) EnsureAggregate(a *Aggregate) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if existing, ok := c.aggs[strings.ToLower(a.Name)]; ok {
		if existing.Fingerprint() != a.Fingerprint() {
			return fmt.Errorf("aggregate %q already exists with a different definition", a.Name)
		}
		return nil
	}
	return c.addAggregateLocked(a)
}

// Aggregate looks up a user-defined aggregate by name.
func (c *Catalog) Aggregate(name string) (*Aggregate, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	a, ok := c.aggs[strings.ToLower(name)]
	return a, ok
}

// IsAggregate reports whether name refers to a builtin or user-defined
// aggregate.
func (c *Catalog) IsAggregate(name string) bool {
	n := strings.ToLower(name)
	if BuiltinAggregates[n] {
		return true
	}
	c.mu.RLock()
	defer c.mu.RUnlock()
	_, ok := c.aggs[n]
	return ok
}

// FreshName returns a name with the given prefix that collides with no
// table, function, or aggregate in the catalog.
func (c *Catalog) FreshName(prefix string) string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	for i := 1; ; i++ {
		name := fmt.Sprintf("%s_%d", prefix, i)
		if _, ok := c.tables[name]; ok {
			continue
		}
		if _, ok := c.funcs[name]; ok {
			continue
		}
		if _, ok := c.aggs[name]; ok {
			continue
		}
		return name
	}
}
