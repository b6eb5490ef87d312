// Package udfsql is a database/sql driver over the in-process concurrent
// query service, so ordinary Go programs get prepared statements, streaming
// rows and context cancellation/timeouts through the standard library
// interface:
//
//	svc := server.NewServiceFromEngine(boot, server.DefaultOptions())
//	udfsql.RegisterService("main", svc)
//	db, _ := sql.Open("udfsql", "main?mode=rewrite&vectorized=on&parallelism=4")
//	rows, _ := db.QueryContext(ctx, "select custkey, lvl(custkey) from customer")
//
// Each sql connection is one service session (created on connect, closed
// with the connection), so per-session settings — mode, profile, executor,
// parallelism, statement timeout — come from the DSN and apply to every
// statement on that connection. Query results stream: rows are pulled from
// the executing plan as the caller scans, and cancelling the context stops
// execution at the next row/batch boundary. The SQL dialect has no
// placeholder parameters, so statements take no arguments.
//
// DSN grammar: "<service>[?key=value&...]" with keys
//
//	mode        iterative | rewrite | costbased      (default rewrite)
//	profile     sys1 | sys2                          (default sys1)
//	vectorized  on | off | true | false | 1 | 0      (default off)
//	parallelism intra-query worker degree            (default server's)
//	timeout     per-statement timeout, Go duration   (default none)
//	trace       trace-ID label: each query gets a "<label>-<n>" trace
//	            ID, grep-able in the server's slow-query log (default:
//	            server-generated IDs)
//
// The <service> name must have been registered with RegisterService; tests
// and embedded uses can skip the registry (and the driver name) entirely
// with sql.OpenDB(udfsql.NewConnector(svc, opts)).
//
// A query starting with EXPLAIN ANALYZE executes the statement and returns
// the annotated per-operator plan instead of its rows: one "plan" column,
// one row per line.
//
// Writes against a read-only replica follow the structured leader hint: when
// Exec is rejected with a *server.ReadOnlyError whose Leader names another
// registered service, the connection opens a companion session there (same
// Options) and replays the statement, so "point the app at the nearest
// replica" works for reads and writes alike. The redirect is depth-1 — a
// hinted leader that itself rejects writes fails rather than hop again — and
// transactions never redirect: BEGIN pins the follower session, which
// rejects it with the same typed error for the caller to handle.
package udfsql

import (
	"context"
	"database/sql"
	"database/sql/driver"
	"errors"
	"fmt"
	"io"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"udfdecorr/internal/engine"
	"udfdecorr/internal/server"
)

func init() {
	sql.Register("udfsql", &Driver{})
}

// registry maps DSN service names to running services.
var registry sync.Map // string -> *server.Service

// RegisterService makes a service reachable through sql.Open("udfsql",
// "<name>?..."). Re-registering a name replaces the previous service for
// future connections.
func RegisterService(name string, svc *server.Service) {
	registry.Store(name, svc)
}

// Driver implements database/sql/driver.Driver (and DriverContext, so the
// DSN is parsed once per sql.DB rather than once per connection).
type Driver struct{}

// Open implements driver.Driver.
func (d *Driver) Open(dsn string) (driver.Conn, error) {
	c, err := d.OpenConnector(dsn)
	if err != nil {
		return nil, err
	}
	return c.Connect(context.Background())
}

// OpenConnector implements driver.DriverContext.
func (d *Driver) OpenConnector(dsn string) (driver.Connector, error) {
	name, rawQuery, _ := strings.Cut(dsn, "?")
	v, ok := registry.Load(name)
	if !ok {
		return nil, fmt.Errorf("udfsql: no service registered as %q (call udfsql.RegisterService first)", name)
	}
	opts := Options{Mode: engine.ModeRewrite, Profile: engine.SYS1}
	if rawQuery != "" {
		params, err := url.ParseQuery(rawQuery)
		if err != nil {
			return nil, fmt.Errorf("udfsql: bad DSN params: %w", err)
		}
		for key, vals := range params {
			val := vals[len(vals)-1]
			switch key {
			case "mode":
				m, err := server.ParseMode(val)
				if err != nil {
					return nil, fmt.Errorf("udfsql: %w", err)
				}
				opts.Mode = m
			case "profile":
				p, err := server.ParseProfile(val)
				if err != nil {
					return nil, fmt.Errorf("udfsql: %w", err)
				}
				opts.Profile = p
			case "vectorized":
				switch strings.ToLower(val) {
				case "on", "true", "1":
					opts.Vectorized = true
				case "off", "false", "0":
					opts.Vectorized = false
				default:
					return nil, fmt.Errorf("udfsql: bad vectorized value %q", val)
				}
			case "parallelism":
				n, err := strconv.Atoi(val)
				if err != nil || n < 0 {
					return nil, fmt.Errorf("udfsql: bad parallelism value %q", val)
				}
				opts.Parallelism = n
			case "timeout":
				dur, err := time.ParseDuration(val)
				if err != nil || dur < 0 {
					return nil, fmt.Errorf("udfsql: bad timeout value %q", val)
				}
				opts.Timeout = dur
			case "trace":
				opts.Trace = val
			default:
				return nil, fmt.Errorf("udfsql: unknown DSN parameter %q", key)
			}
		}
	}
	return NewConnector(v.(*server.Service), opts), nil
}

// Options are the per-connection (session) settings.
type Options struct {
	Mode        engine.Mode
	Profile     engine.Profile
	Vectorized  bool
	Parallelism int           // 0 adopts the service default
	Timeout     time.Duration // per-statement; 0 = none
	// Trace labels this connection's queries with "<Trace>-<n>" trace IDs
	// (grep-able in the server's slow-query log). Empty means the server
	// generates IDs.
	Trace string
}

// Connector binds a service to session options; use with sql.OpenDB to
// skip the DSN registry.
type Connector struct {
	svc  *server.Service
	opts Options
}

// NewConnector builds a Connector over a running service.
func NewConnector(svc *server.Service, opts Options) *Connector {
	return &Connector{svc: svc, opts: opts}
}

// Connect implements driver.Connector: one connection = one session. The
// Options executor fields only layer on top of the profile when set, so a
// caller-supplied profile that already enables vectorized/parallel
// execution keeps its settings.
func (c *Connector) Connect(context.Context) (driver.Conn, error) {
	profile := c.opts.Profile
	if profile.Name == "" {
		profile = engine.SYS1
	}
	if c.opts.Vectorized {
		profile.Vectorized = true
	}
	if c.opts.Parallelism > 0 {
		profile.Parallelism = c.opts.Parallelism
	}
	if profile.Parallelism == 0 {
		profile.Parallelism = c.svc.DefaultParallelism()
	}
	sess := c.svc.CreateSession(profile, c.opts.Mode)
	if c.opts.Timeout > 0 {
		sess.SetTimeout(c.opts.Timeout)
	}
	return &conn{svc: c.svc, sess: sess, opts: c.opts, trace: c.opts.Trace}, nil
}

// Driver implements driver.Connector.
func (c *Connector) Driver() driver.Driver { return &Driver{} }

// conn is one driver connection backed by a service session.
type conn struct {
	svc   *server.Service
	sess  *server.Session
	opts  Options
	trace string       // trace-ID label from Options.Trace ("" = server IDs)
	seq   atomic.Int64 // per-connection trace sequence

	// Leader-follow state: the lazily opened companion connection writes are
	// replayed on after a follower's typed rejection. redirected marks a
	// connection that is itself a redirect target (depth-1 guard).
	mu         sync.Mutex
	leader     *conn
	redirected bool
}

// traceContext attaches the connection's next "<label>-<n>" trace ID, unless
// the caller already put an explicit one on the context.
func (c *conn) traceContext(ctx context.Context) context.Context {
	if c.trace == "" {
		return ctx
	}
	if _, ok := server.TraceIDFrom(ctx); ok {
		return ctx
	}
	return server.WithTraceID(ctx, fmt.Sprintf("%s-%d", c.trace, c.seq.Add(1)))
}

// Prepare implements driver.Conn. Planning is deferred to execution, where
// the service's shared plan cache makes repeated statements cheap anyway.
func (c *conn) Prepare(query string) (driver.Stmt, error) {
	return &stmt{c: c, sql: query}, nil
}

// Close implements driver.Conn, dropping the session (and the redirect
// companion's, when a write was followed to the leader).
func (c *conn) Close() error {
	c.mu.Lock()
	leader := c.leader
	c.leader = nil
	c.mu.Unlock()
	if leader != nil {
		_ = leader.Close()
	}
	c.svc.CloseSession(c.sess.ID)
	return nil
}

// Begin implements driver.Conn over the session's transaction state:
// database/sql pins the connection for the Tx's lifetime, so BEGIN, the
// statements and COMMIT/ROLLBACK all address one service session.
func (c *conn) Begin() (driver.Tx, error) {
	if err := c.svc.Exec(c.sess, "begin;"); err != nil {
		return nil, err
	}
	return &tx{c: c}, nil
}

type tx struct{ c *conn }

func (t *tx) Commit() error   { return t.c.svc.Exec(t.c.sess, "commit;") }
func (t *tx) Rollback() error { return t.c.svc.Exec(t.c.sess, "rollback;") }

// QueryContext implements driver.QueryerContext: SELECTs stream through the
// service's cursor API.
func (c *conn) QueryContext(ctx context.Context, query string, args []driver.NamedValue) (driver.Rows, error) {
	if len(args) > 0 {
		return nil, fmt.Errorf("udfsql: the dialect has no placeholder parameters (got %d args)", len(args))
	}
	ctx = c.traceContext(ctx)
	if inner, ok := cutExplainAnalyze(query); ok {
		out, err := c.svc.ExplainAnalyze(ctx, c.sess, inner)
		if err != nil {
			return nil, err
		}
		return &planRows{lines: strings.Split(strings.TrimRight(out, "\n"), "\n")}, nil
	}
	st, err := c.svc.QueryStream(ctx, c.sess, query, server.StreamOpts{})
	if err != nil {
		return nil, err
	}
	return &rows{st: st}, nil
}

// cutExplainAnalyze strips a leading EXPLAIN ANALYZE (case-insensitive),
// returning the statement to analyze.
func cutExplainAnalyze(query string) (string, bool) {
	trimmed := strings.TrimSpace(query)
	const kw = "explain analyze"
	if len(trimmed) > len(kw) && strings.EqualFold(trimmed[:len(kw)], kw) {
		switch trimmed[len(kw)] {
		case ' ', '\t', '\n', '\r':
			return strings.TrimSpace(trimmed[len(kw):]), true
		}
	}
	return "", false
}

// ExecContext implements driver.ExecerContext: DDL/DML scripts (CREATE
// TABLE / CREATE FUNCTION / INSERT / transaction control) run through the
// session's Service.ExecContext — DDL under the exclusive side of the DDL
// gate, everything else under the shared side, concurrently with queries.
func (c *conn) ExecContext(ctx context.Context, query string, args []driver.NamedValue) (driver.Result, error) {
	if len(args) > 0 {
		return nil, fmt.Errorf("udfsql: the dialect has no placeholder parameters (got %d args)", len(args))
	}
	if err := c.svc.ExecContext(ctx, c.sess, query); err != nil {
		if lc := c.leaderConn(err); lc != nil {
			return lc.ExecContext(ctx, query, args)
		}
		return nil, err
	}
	return driver.ResultNoRows, nil
}

// leaderConn resolves the connection to replay a rejected write on: the
// error must be a follower's *server.ReadOnlyError whose leader hint names a
// registered service. The companion connection is opened once and reused;
// it is marked redirected so a mis-pointed "leader" that also rejects
// writes fails with its own typed error instead of hopping again.
func (c *conn) leaderConn(err error) *conn {
	var roe *server.ReadOnlyError
	if c.redirected || !errors.As(err, &roe) || roe.Leader == "" {
		return nil
	}
	v, ok := registry.Load(roe.Leader)
	if !ok {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.leader == nil {
		dc, cerr := NewConnector(v.(*server.Service), c.opts).Connect(context.Background())
		if cerr != nil {
			return nil
		}
		lc := dc.(*conn)
		lc.redirected = true
		c.leader = lc
	}
	return c.leader
}

// planRows serves an EXPLAIN ANALYZE result: a single "plan" column with one
// row per line of the annotated operator tree.
type planRows struct {
	lines []string
	pos   int
}

// Columns implements driver.Rows.
func (p *planRows) Columns() []string { return []string{"plan"} }

// Close implements driver.Rows.
func (p *planRows) Close() error { return nil }

// Next implements driver.Rows.
func (p *planRows) Next(dest []driver.Value) error {
	if p.pos >= len(p.lines) {
		return io.EOF
	}
	dest[0] = p.lines[p.pos]
	p.pos++
	return nil
}

// stmt is a prepared statement (text held per connection; the compiled plan
// lives in the service's shared cache).
type stmt struct {
	c   *conn
	sql string
}

// Close implements driver.Stmt.
func (s *stmt) Close() error { return nil }

// NumInput implements driver.Stmt: the dialect has no placeholders.
func (s *stmt) NumInput() int { return 0 }

// Exec implements driver.Stmt.
func (s *stmt) Exec(args []driver.Value) (driver.Result, error) {
	return s.c.ExecContext(context.Background(), s.sql, nil)
}

// Query implements driver.Stmt.
func (s *stmt) Query(args []driver.Value) (driver.Rows, error) {
	return s.c.QueryContext(context.Background(), s.sql, nil)
}

// QueryContext implements driver.StmtQueryContext.
func (s *stmt) QueryContext(ctx context.Context, args []driver.NamedValue) (driver.Rows, error) {
	return s.c.QueryContext(ctx, s.sql, args)
}

// ExecContext implements driver.StmtExecContext.
func (s *stmt) ExecContext(ctx context.Context, args []driver.NamedValue) (driver.Result, error) {
	return s.c.ExecContext(ctx, s.sql, args)
}

// rows adapts the service's streaming cursor to driver.Rows.
type rows struct {
	st *server.Stream
}

// Columns implements driver.Rows.
func (r *rows) Columns() []string { return r.st.Rows.Columns() }

// Close implements driver.Rows, releasing the stream's worker slots and
// DDL-gate hold.
func (r *rows) Close() error { return r.st.Rows.Close() }

// Next implements driver.Rows, pulling one row from the executing plan.
// Cancellation surfaces as the context's error (not io.EOF), so callers see
// why the stream stopped short.
func (r *rows) Next(dest []driver.Value) error {
	if !r.st.Rows.Next() {
		if err := r.st.Rows.Err(); err != nil {
			return err
		}
		return io.EOF
	}
	row := r.st.Rows.Row()
	for i, v := range row {
		dest[i] = driver.Value(v.Go())
	}
	return nil
}
