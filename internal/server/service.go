// Package server is the concurrent query service: it wraps the engine in a
// session manager (per-session mode/profile/executor settings over one
// shared catalog+storage), a shared bounded LRU plan/rewrite cache keyed by
// normalized query text × mode × profile × executor × catalog version, a
// reader/writer DDL gate, and a worker-pool admission limit. This turns the
// paper's SYS1 "cached plans" behavior into a first-class subsystem: repeat
// queries skip parsing, algebrization, decorrelation and physical planning
// entirely, across any number of concurrent clients.
//
// Locking order (outermost first): admission slot → ddl gate → session lock
// or the session's transaction slot → catalog/storage/cache internal locks. Queries, INSERTs and transaction
// control hold the ddl gate in read mode, so any number run concurrently —
// readers scan immutable published table versions (snapshot-consistent per
// statement), so writers never disturb them. Only actual DDL (CREATE
// TABLE / CREATE FUNCTION / CREATE INDEX) and checkpoints take the write
// side and exclude everything else.
package server

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"sort"
	"strings"
	"sync"
	"time"

	"udfdecorr/internal/ast"
	"udfdecorr/internal/catalog"
	"udfdecorr/internal/engine"
	"udfdecorr/internal/exec"
	"udfdecorr/internal/parser"
	"udfdecorr/internal/repl"
	"udfdecorr/internal/storage"
)

// Options configures a Service.
type Options struct {
	// CacheSize bounds the shared plan cache (entries). <=0 disables
	// caching; DefaultOptions uses 256.
	CacheSize int
	// MaxConcurrent bounds simultaneously executing workers (the admission
	// pool). A parallel query claims one slot per intra-query worker, so
	// udfserverd never oversubscribes cores no matter how sessions combine
	// concurrency and parallelism. <=0 means 32.
	MaxConcurrent int
	// DefaultParallelism is the intra-query degree applied to sessions that
	// do not choose one explicitly (0 leaves them serial).
	DefaultParallelism int
	// SlowQueryThreshold emits a structured slow-query log line for every
	// query whose service time (plan lookup + execution, to stream close)
	// meets it. 0 disables the log.
	SlowQueryThreshold time.Duration
	// Logger receives the service's structured logs (the slow-query log).
	// nil uses slog.Default().
	Logger *slog.Logger
}

// DefaultOptions returns the default service configuration.
func DefaultOptions() Options {
	return Options{CacheSize: 256, MaxConcurrent: 32}
}

// admission is the worker-pool semaphore. Unlike a channel semaphore it
// grants multi-slot requests atomically (all-or-nothing while waiting), so
// two parallel queries can never deadlock each other by each holding half
// of their worker budget — and grants are FIFO (ticketed), so a multi-slot
// request cannot be starved by a stream of single-slot ones: once it is at
// the head of the line, the pool drains to it.
type admission struct {
	mu    sync.Mutex
	cond  *sync.Cond
	free  int
	size  int
	waits int64 // acquisitions that had to block
	// observeWait, when set, receives the blocked duration of every
	// acquisition that had to wait (the admission-wait histogram).
	observeWait func(time.Duration)
	// FIFO tickets: an acquire proceeds only when it holds the serving
	// ticket AND enough slots are free. A waiter whose context is cancelled
	// before being served marks its ticket abandoned so the line advances
	// past it.
	nextTicket uint64
	serving    uint64
	abandoned  map[uint64]bool
}

func newAdmission(size int) *admission {
	a := &admission{free: size, size: size, abandoned: map[uint64]bool{}}
	a.cond = sync.NewCond(&a.mu)
	return a
}

// acquire claims n slots (clamped to the pool size so a degree larger than
// the pool still admits) and returns the granted count. Pair with release.
func (a *admission) acquire(n int) int {
	granted, _ := a.acquireCtx(context.Background(), n)
	return granted
}

// acquireCtx is acquire honoring cancellation: a waiter whose context is
// done leaves the line (abandoning its FIFO ticket) and returns ctx's error
// having claimed nothing, so a client that gives up on a saturated pool
// neither holds slots nor blocks the queries behind it.
func (a *admission) acquireCtx(ctx context.Context, n int) (int, error) {
	if n > a.size {
		n = a.size
	}
	if n < 1 {
		n = 1
	}
	if done := ctx.Done(); done != nil {
		// Wake the condition variable when the context fires. Taking the
		// lock before broadcasting pairs with the waiter's check-then-Wait
		// critical section, so the wakeup cannot be missed.
		defer context.AfterFunc(ctx, func() {
			a.mu.Lock()
			a.cond.Broadcast()
			a.mu.Unlock()
		})()
	}
	a.mu.Lock()
	ticket := a.nextTicket
	a.nextTicket++
	blocked := false
	var blockedAt time.Time
	for a.serving != ticket || a.free < n {
		if err := ctx.Err(); err != nil {
			if a.serving == ticket {
				a.advance()
			} else {
				a.abandoned[ticket] = true
			}
			a.mu.Unlock()
			a.cond.Broadcast()
			if blocked && a.observeWait != nil {
				a.observeWait(time.Since(blockedAt))
			}
			return 0, err
		}
		if !blocked {
			blocked = true
			blockedAt = time.Now()
			a.waits++
		}
		a.cond.Wait()
	}
	a.advance()
	a.free -= n
	a.mu.Unlock()
	a.cond.Broadcast() // hand the line to the next ticket holder
	if blocked && a.observeWait != nil {
		a.observeWait(time.Since(blockedAt))
	}
	return n, nil
}

// advance hands the line to the next still-waiting ticket holder (caller
// holds mu).
func (a *admission) advance() {
	a.serving++
	for a.abandoned[a.serving] {
		delete(a.abandoned, a.serving)
		a.serving++
	}
}

// freeSlots reports the currently unclaimed slots (tests assert the pool
// refills after cancelled streams).
func (a *admission) freeSlots() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.free
}

// release returns n slots to the pool.
func (a *admission) release(n int) {
	if n <= 0 {
		return
	}
	a.mu.Lock()
	a.free += n
	a.mu.Unlock()
	a.cond.Broadcast()
}

func (a *admission) waitCount() int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.waits
}

// Service is the concurrent query service. See the package comment for the
// locking design.
type Service struct {
	cat   *catalog.Catalog
	store *storage.Store
	cache *PlanCache

	// ddl gates queries (read side) against DDL and data loads (write
	// side).
	ddl sync.RWMutex

	// admission is the worker-pool semaphore (one slot per query-local
	// worker).
	admission *admission

	// inflight dedupes concurrent plan-cache misses per key: the first
	// session to miss compiles, the rest wait for its result instead of
	// running engine.Prepare redundantly.
	prepMu   sync.Mutex
	inflight map[CacheKey]*prepCall

	// durable is the WAL/checkpoint state when the service runs over a
	// durable engine; nil for in-memory deployments. DDL is logged under the
	// exclusive DDL gate, so its log order equals its commit order. Row
	// writes commit under the shared gate, and two concurrent commits may be
	// logged in one order and published in the other (see
	// storage.Store.AppendBatch).
	durable *engine.Durability

	defaultParallelism int

	// Replication role state (repl.go). Services are leaders (read-write)
	// unless SetFollower flips them into a read-only replica; Promote flips
	// back at failover. replStatus reports the feeding follower's progress.
	replMu     sync.RWMutex
	role       Role
	leaderURL  string
	replStatus func() repl.Status

	mu       sync.Mutex // guards sessions, seq, and the stat counters below
	sessions map[string]*Session
	seq      int64

	queriesByMode    map[string]int64
	execs            int64
	queryErrors      int64
	queriesCancelled int64 // queries ended by cancellation or timeout
	prepareDeduped   int64 // prepares served from an in-flight compilation
	parallelQueries  int64 // queries admitted with a worker budget > 1
	morsels          int64 // morsels executed by parallel workers
	workerLaunches   int64 // parallel workers launched
	started          time.Time

	// metrics is the observability state: the /metrics registry, latency
	// histograms, trace-ID generator and slow-query log (see obs.go).
	metrics *serviceMetrics
}

// NewService builds a service over an existing catalog and store (usually
// taken from a bootstrap engine that loaded schema and data).
func NewService(cat *catalog.Catalog, store *storage.Store, opts Options) *Service {
	if opts.MaxConcurrent <= 0 {
		opts.MaxConcurrent = 32
	}
	s := &Service{
		cat:                cat,
		store:              store,
		cache:              NewPlanCache(opts.CacheSize),
		admission:          newAdmission(opts.MaxConcurrent),
		inflight:           map[CacheKey]*prepCall{},
		defaultParallelism: opts.DefaultParallelism,
		sessions:           map[string]*Session{},
		queriesByMode:      map[string]int64{},
		started:            time.Now(),
	}
	s.initObservability(opts)
	return s
}

// DefaultParallelism returns the degree applied to sessions that do not
// choose one explicitly.
func (s *Service) DefaultParallelism() int { return s.defaultParallelism }

// NewServiceFromEngine adopts a bootstrap engine's catalog and store, along
// with its durability layer when the engine was opened with OpenDurable.
func NewServiceFromEngine(e *engine.Engine, opts Options) *Service {
	s := NewService(e.Cat, e.Store, opts)
	s.durable = e.Durable
	if s.durable != nil {
		s.registerDurableMetrics()
	}
	return s
}

// Durable reports whether the service persists to a data directory.
func (s *Service) Durable() bool { return s.durable != nil }

// Checkpoint snapshots the shared catalog+store to disk and truncates the
// write-ahead log. It takes the exclusive side of the DDL gate, so it sees
// no in-flight queries or half-applied scripts — the snapshot is a
// consistent cut, at the cost of briefly stalling new statements (how
// briefly depends on data volume).
func (s *Service) Checkpoint() error {
	if s.durable == nil {
		return errors.New("service is volatile: no data directory configured")
	}
	held := s.admission.acquire(1)
	defer func() { s.admission.release(held) }()
	gateStart := time.Now()
	s.ddl.Lock()
	s.metrics.ddlWait.Observe(time.Since(gateStart))
	defer s.ddl.Unlock()
	start := time.Now()
	err := s.durable.Checkpoint()
	s.metrics.checkpointDur.Observe(time.Since(start))
	return err
}

// Catalog exposes the shared catalog (read-mostly; DDL goes through Exec).
func (s *Service) Catalog() *catalog.Catalog { return s.cat }

// Store exposes the shared storage (for tests and engine views over the
// same data; writes go through Exec).
func (s *Service) Store() *storage.Store { return s.store }

// Session is one client session: a named engine view with its own
// mode/profile/executor settings (and its own lowered UDF bodies and
// embedded-query plans, via the view's interpreter) over the service's
// shared data. Settings
// changes swap in a fresh engine view rather than mutating the old one, so
// in-flight queries on the previous view are unaffected.
type Session struct {
	ID string

	svc *Service

	mu      sync.Mutex
	eng     *engine.Engine
	queries int64
	created time.Time
	// timeout bounds each statement's execution (0 = none); it composes
	// with the caller's context (whichever fires first cancels the query).
	timeout time.Duration
	// txn holds the session's open transaction (BEGIN without COMMIT yet)
	// across requests. Queries on the session read the transaction's
	// snapshot plus its uncommitted rows while one is open.
	txn engine.TxnSlot
}

// CreateSession registers a new session with the given settings.
func (s *Service) CreateSession(profile engine.Profile, mode engine.Mode) *Session {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.seq++
	return s.newSession(fmt.Sprintf("s%d", s.seq), profile, mode)
}

// newSession registers a session under id (caller holds s.mu).
func (s *Service) newSession(id string, profile engine.Profile, mode engine.Mode) *Session {
	sess := &Session{
		ID:      id,
		svc:     s,
		eng:     engine.NewShared(s.cat, s.store, profile, mode),
		created: time.Now(),
	}
	sess.txn.ObserveCommit = s.metrics.txnCommitDur.Observe
	s.sessions[id] = sess
	return sess
}

// Session looks a session up by ID. The empty ID resolves to a shared
// default session (created on first use with profile SYS1, mode rewrite).
func (s *Service) Session(id string) (*Session, bool) {
	if id == "" {
		return s.defaultSession(), true
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	sess, ok := s.sessions[id]
	return sess, ok
}

const defaultSessionID = "default"

func (s *Service) defaultSession() *Session {
	s.mu.Lock()
	defer s.mu.Unlock()
	if sess, ok := s.sessions[defaultSessionID]; ok {
		return sess
	}
	profile := engine.SYS1
	profile.Parallelism = s.defaultParallelism
	return s.newSession(defaultSessionID, profile, engine.ModeRewrite)
}

// CloseSession drops a session, rolling back any open transaction. Closing
// an unknown ID is a no-op.
func (s *Service) CloseSession(id string) {
	s.mu.Lock()
	sess := s.sessions[id]
	delete(s.sessions, id)
	s.mu.Unlock()
	if sess != nil {
		sess.txn.Rollback()
	}
}

// SessionCount returns the number of live sessions.
func (s *Service) SessionCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.sessions)
}

// Engine returns the session's current engine view.
func (sess *Session) Engine() *engine.Engine {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	return sess.eng
}

// Settings returns the session's current profile and mode.
func (sess *Session) Settings() (engine.Profile, engine.Mode) {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	return sess.eng.Profile, sess.eng.Mode
}

// swap installs a new engine view derived from the current settings via fn.
func (sess *Session) swap(fn func(profile engine.Profile, mode engine.Mode) (engine.Profile, engine.Mode)) {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	profile, mode := fn(sess.eng.Profile, sess.eng.Mode)
	sess.eng = engine.NewShared(sess.svc.cat, sess.svc.store, profile, mode)
}

// SetMode switches the session's execution mode (subsequent queries only).
func (sess *Session) SetMode(m engine.Mode) {
	sess.swap(func(p engine.Profile, _ engine.Mode) (engine.Profile, engine.Mode) { return p, m })
}

// SetProfile switches the session's engine profile.
func (sess *Session) SetProfile(p engine.Profile) {
	sess.swap(func(old engine.Profile, m engine.Mode) (engine.Profile, engine.Mode) {
		p.Vectorized = old.Vectorized
		p.Parallelism = old.Parallelism
		return p, m
	})
}

// SetVectorized toggles the session's batch executor.
func (sess *Session) SetVectorized(on bool) {
	sess.swap(func(p engine.Profile, m engine.Mode) (engine.Profile, engine.Mode) {
		p.Vectorized = on
		return p, m
	})
}

// SetParallelism sets the session's intra-query worker degree (<= 1 serial;
// effective on the vectorized executor).
func (sess *Session) SetParallelism(n int) {
	sess.swap(func(p engine.Profile, m engine.Mode) (engine.Profile, engine.Mode) {
		p.Parallelism = n
		return p, m
	})
}

// SetTimeout sets the session's per-statement timeout (0 disables). It
// applies to queries started afterwards; in-flight statements keep their
// deadline.
func (sess *Session) SetTimeout(d time.Duration) {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	if d < 0 {
		d = 0
	}
	sess.timeout = d
}

// Timeout returns the session's per-statement timeout (0 = none).
func (sess *Session) Timeout() time.Duration {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	return sess.timeout
}

// queryCtx derives the execution context for one statement: the caller's
// context plus the session statement timeout, if set. The returned cancel
// must be called when the statement finishes (stream close) to release the
// timer.
func (sess *Session) queryCtx(ctx context.Context) (context.Context, context.CancelFunc) {
	if ctx == nil {
		ctx = context.Background()
	}
	if d := sess.Timeout(); d > 0 {
		return context.WithTimeout(ctx, d)
	}
	return context.WithCancel(ctx)
}

// QueryCount returns the number of queries the session has run.
func (sess *Session) QueryCount() int64 {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	return sess.queries
}

func (sess *Session) countQuery() {
	sess.mu.Lock()
	sess.queries++
	sess.mu.Unlock()
}

// QueryResult is an executed query with service-level metadata.
type QueryResult struct {
	*engine.Result
	// CacheHit reports whether the plan came from the shared cache.
	CacheHit bool
	// Elapsed is the end-to-end service time (plan lookup + execution).
	Elapsed time.Duration
	// TraceID identifies this query across the slow-query log and client
	// records (caller-supplied via WithTraceID, or service-generated).
	TraceID string
}

// workerBudget returns the admission slots a statement on this engine view
// may need: its intra-query workers on the vectorized parallel path, else 1.
func workerBudget(eng *engine.Engine) int {
	if eng.Profile.Vectorized && eng.Profile.Parallelism > 1 {
		return eng.Profile.Parallelism
	}
	return 1
}

// Query executes a SELECT through the session, materializing the full
// result. Equivalent to QueryContext with a background context.
func (s *Service) Query(sess *Session, sql string) (*QueryResult, error) {
	return s.QueryContext(context.Background(), sess, sql)
}

// QueryContext executes a SELECT to completion under ctx (plus the
// session's statement timeout). Cancellation mid-execution returns
// context.Canceled / DeadlineExceeded with the session's worker-budget
// slots returned to the pool.
func (s *Service) QueryContext(ctx context.Context, sess *Session, sql string) (*QueryResult, error) {
	st, err := s.QueryStream(ctx, sess, sql, StreamOpts{})
	if err != nil {
		return nil, err
	}
	res, err := st.Rows.Materialize()
	if err != nil {
		return nil, err
	}
	return &QueryResult{Result: res, CacheHit: st.CacheHit, Elapsed: time.Since(st.Started), TraceID: st.TraceID}, nil
}

// Stream is a streaming query result: a pull cursor plus service metadata.
// The cursor owns the session's worker-budget slots and a read hold on the
// DDL gate; both release when the stream ends (exhaustion, error, cancel)
// or when Close is called — callers that abandon a stream early MUST Close
// it, or DDL would block forever.
type Stream struct {
	Rows     *engine.Rows
	CacheHit bool
	Started  time.Time
	// TraceID identifies this query in the slow-query log (caller-supplied
	// via WithTraceID, or service-generated).
	TraceID string
}

// StreamOpts selects how QueryStream prepares and runs a statement.
type StreamOpts struct {
	// Analyze adds EXPLAIN ANALYZE instrumentation: once the stream ends,
	// Stream.Rows.Analyze renders the per-operator plan tree. Rows are
	// identical to an uninstrumented run.
	Analyze bool
}

// ExplainAnalyze executes sql to completion with per-operator
// instrumentation and returns the annotated plan tree. The rows are drained
// and dropped.
func (s *Service) ExplainAnalyze(ctx context.Context, sess *Session, sql string) (string, error) {
	st, err := s.QueryStream(ctx, sess, sql, StreamOpts{Analyze: true})
	if err != nil {
		return "", err
	}
	for st.Rows.Next() {
	}
	if err := st.Rows.Err(); err != nil {
		return "", err
	}
	return st.Rows.Analyze(), nil
}

// QueryStream starts a SELECT through the session and the shared plan
// cache, returning a streaming cursor: rows become visible as the plan
// produces them instead of after full materialization. Inside an open
// session transaction the statement reads the transaction's snapshot plus
// its own uncommitted rows. A parallel session claims its worker degree
// from the admission pool up front (the degree is known before planning;
// acquiring after taking the ddl lock could deadlock against Exec, which
// acquires in the opposite order), then hands back the excess as soon as
// the compiled plan turns out serial — LIMIT/DISTINCT barriers, row-bridge
// shapes — so non-parallelizable workloads don't hold phantom workers
// during execution. Waiting for admission itself honors ctx, so a
// cancelled client leaves the queue without claiming slots.
func (s *Service) QueryStream(ctx context.Context, sess *Session, sql string, opts StreamOpts) (*Stream, error) {
	traceID := s.nextTraceID(ctx)
	qctx, cancel := sess.queryCtx(ctx)
	eng := sess.Engine()
	waitStart := time.Now()
	held, err := s.admission.acquireCtx(qctx, workerBudget(eng))
	if err != nil {
		cancel()
		s.countQueryResult(eng.Mode, err, 1, nil)
		return nil, err
	}
	gateStart := time.Now()
	s.ddl.RLock()
	s.metrics.ddlWait.Observe(time.Since(gateStart))
	wait := time.Since(waitStart)

	start := time.Now()
	var prep *engine.Prepared
	var hit bool
	// finish runs exactly once per admitted query — on an error path here,
	// or through the cursor's OnClose hook once the stream is live.
	finish := func(qerr error, counters *exec.Counters, rowsReturned int64) {
		s.ddl.RUnlock()
		s.admission.release(held)
		cancel()
		s.countQueryResultCounters(eng.Mode, qerr, held, counters)
		elapsed := time.Since(start)
		s.metrics.queryDur.Observe(elapsed)
		s.maybeLogSlow(traceID, sess, eng, sql, prep, hit, wait, elapsed, rowsReturned, qerr)
	}

	prep, hit, err = s.prepare(eng, sql)
	if err != nil {
		// Count with slots=1: the query never executed, so it must not
		// inflate the parallel_queries stat no matter the session's budget.
		s.ddl.RUnlock()
		s.admission.release(held)
		cancel()
		s.countQueryResultCounters(eng.Mode, err, 1, nil)
		return nil, err
	}
	if held > 1 && prep.Parallelism <= 1 {
		s.admission.release(held - 1)
		held = 1
	}
	rows, err := eng.Run(qctx, prep, engine.RunOpts{Txn: sess.txn.Txn(), Analyze: opts.Analyze})
	if err != nil {
		finish(err, nil, 0)
		return nil, err
	}
	rows.OnClose(func(qerr error) {
		c := rows.Counters()
		finish(qerr, &c, rows.RowsReturned())
	})
	sess.countQuery()
	return &Stream{Rows: rows, CacheHit: hit, Started: start, TraceID: traceID}, nil
}

// Explain returns the plan description for a query, sharing the cache with
// Query (an EXPLAIN warms the cache for the later execution).
func (s *Service) Explain(sess *Session, sql string) (string, error) {
	held := s.admission.acquire(1)
	defer func() { s.admission.release(held) }()
	s.ddl.RLock()
	defer s.ddl.RUnlock()

	eng := sess.Engine()
	prep, _, err := s.prepare(eng, sql)
	if err != nil {
		return "", err
	}
	return prep.Describe(eng.Mode, eng.Profile.Vectorized), nil
}

// prepCall is one in-flight compilation; followers wait on done.
type prepCall struct {
	done chan struct{}
	prep *engine.Prepared
	err  error
}

// prepare fetches a plan from the shared cache or compiles and caches it.
// Concurrent misses on the same key are deduplicated: one session compiles
// while the rest wait for its Prepared (reported as a cache hit — they did
// not pay for planning). Callers hold the ddl read lock.
func (s *Service) prepare(eng *engine.Engine, sql string) (*engine.Prepared, bool, error) {
	key := CacheKey{
		SQL:            NormalizeSQL(sql),
		Mode:           eng.Mode,
		Profile:        eng.Profile.Name,
		Vectorized:     eng.Profile.Vectorized,
		Parallelism:    eng.Profile.Parallelism,
		CatalogVersion: s.cat.Version(),
	}
	if prep, ok := s.cache.Get(key); ok {
		return prep, true, nil
	}
	s.prepMu.Lock()
	if c, ok := s.inflight[key]; ok {
		// Another session is compiling this exact plan: join it.
		s.prepMu.Unlock()
		<-c.done
		if c.err != nil {
			return nil, false, c.err
		}
		s.mu.Lock()
		s.prepareDeduped++
		s.mu.Unlock()
		return c.prep, true, nil
	}
	c := &prepCall{done: make(chan struct{})}
	s.inflight[key] = c
	s.prepMu.Unlock()

	c.prep, c.err = eng.Prepare(sql)
	if c.err == nil {
		s.cache.Put(key, c.prep)
	}
	s.prepMu.Lock()
	delete(s.inflight, key)
	s.prepMu.Unlock()
	close(c.done)
	return c.prep, false, c.err
}

// Exec runs DDL, DML and transaction control (CREATE TABLE / CREATE
// FUNCTION / INSERT / BEGIN / COMMIT / ROLLBACK). Scripts containing DDL
// take the exclusive side of the DDL gate and invalidate the plan cache if
// the schema version changed; DML-only scripts run under the shared side,
// concurrently with queries (readers scan immutable snapshots, so appends
// cannot disturb them).
func (s *Service) Exec(sess *Session, script string) error {
	return s.ExecContext(context.Background(), sess, script)
}

// ExecContext is Exec honoring cancellation (and the session statement
// timeout): a cancelled script stops between statements, leaving the
// already-applied prefix in place — DDL is not transactional, exactly as a
// mid-script error behaves. The script runs through engine.Exec with the
// session's transaction slot, so a BEGIN opens a transaction that later
// requests on the session continue, and DDL while one is open is refused.
// Autocommit INSERTs (outside BEGIN/COMMIT) of one script publish together
// at the end of their run: a run of INSERTs is one WAL group with one
// fsync, committed when another statement starts, at script end, or before
// a failing or cancelled statement's error returns — so the prefix before
// the failure is applied as a whole.
func (s *Service) ExecContext(ctx context.Context, sess *Session, script string) error {
	parsed, err := parser.ParseScript(script)
	if err != nil {
		return err
	}
	if scriptMutates(parsed) {
		if err := s.rejectOnReplica(); err != nil {
			return err
		}
	}
	qctx, cancel := sess.queryCtx(ctx)
	defer cancel()
	held, err := s.admission.acquireCtx(qctx, 1)
	if err != nil {
		return err
	}
	defer func() { s.admission.release(held) }()
	defer func(start time.Time) {
		s.metrics.execDur.Observe(time.Since(start))
		s.mu.Lock()
		s.execs++
		s.mu.Unlock()
	}(time.Now())

	run := func() error { return sess.Engine().Exec(qctx, parsed, &sess.txn) }
	if scriptHasDDL(parsed) {
		return s.ApplyExclusive(run)
	}
	// DML and transaction control only: the shared side of the gate, so
	// writers run alongside readers (and alongside each other, which is what
	// lets the WAL group-commit batch their fsyncs).
	gateStart := time.Now()
	s.ddl.RLock()
	s.metrics.ddlWait.Observe(time.Since(gateStart))
	defer s.ddl.RUnlock()
	return run()
}

// scriptHasDDL reports whether the script contains schema statements.
func scriptHasDDL(script *ast.Script) bool {
	return len(script.Tables) > 0 || len(script.Functions) > 0
}

// scriptMutates reports whether the script would change state: DDL, INSERTs,
// or transaction control. Read-only replicas reject exactly these.
func scriptMutates(script *ast.Script) bool {
	if scriptHasDDL(script) {
		return true
	}
	for _, stmt := range script.Stmts {
		switch stmt.(type) {
		case *ast.InsertStmt, *ast.TxnStmt:
			return true
		}
	}
	return false
}

// CreateIndex declares a secondary index (DDL: exclusive, invalidates).
func (s *Service) CreateIndex(table, col string) error {
	if err := s.rejectOnReplica(); err != nil {
		return err
	}
	held := s.admission.acquire(1)
	defer func() { s.admission.release(held) }()
	return s.ApplyExclusive(func() error { return s.cat.AddIndex(table, col) })
}

func (s *Service) countQueryResult(mode engine.Mode, qerr error, slots int, res *engine.Result) {
	var c *exec.Counters
	if res != nil {
		c = &res.Counters
	}
	s.countQueryResultCounters(mode, qerr, slots, c)
}

// countQueryResultCounters records one finished (or failed) query.
// Cancellations and timeouts are their own outcome: they are expected under
// load shedding and client disconnects, so they must not pollute the error
// rate operators alert on.
func (s *Service) countQueryResultCounters(mode engine.Mode, qerr error, slots int, counters *exec.Counters) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if slots > 1 {
		s.parallelQueries++
	}
	if counters != nil {
		s.morsels += counters.Morsels
		s.workerLaunches += counters.Workers
	}
	switch {
	case qerr == nil:
		s.queriesByMode[mode.String()]++
	case errors.Is(qerr, context.Canceled) || errors.Is(qerr, context.DeadlineExceeded):
		s.queriesCancelled++
	default:
		s.queryErrors++
	}
}

// CacheStats snapshots the shared plan cache counters.
func (s *Service) CacheStats() CacheStats { return s.cache.Stats() }

// ParallelStats reports the intra-query parallel execution counters.
type ParallelStats struct {
	// WorkersConfigured is the admission pool size (the machine-wide worker
	// budget shared by concurrent statements and query-local workers).
	WorkersConfigured int `json:"workers_configured"`
	// ParallelQueries counts queries admitted with a worker budget > 1.
	ParallelQueries int64 `json:"parallel_queries"`
	// MorselsExecuted counts scan morsels processed by parallel workers.
	MorselsExecuted int64 `json:"morsels_executed"`
	// WorkerLaunches counts parallel workers spawned by exchange and
	// parallel-aggregation operators.
	WorkerLaunches int64 `json:"worker_launches"`
	// AdmissionWaits counts acquisitions that blocked on a full pool.
	AdmissionWaits int64 `json:"admission_waits"`
}

// Stats is the service-wide metrics snapshot served by /stats and udfsh's
// .stats command.
type Stats struct {
	Cache          CacheStats       `json:"cache"`
	Sessions       int              `json:"sessions"`
	CatalogVersion int64            `json:"catalog_version"`
	QueriesByMode  map[string]int64 `json:"queries_by_mode"`
	Queries        int64            `json:"queries"`
	Execs          int64            `json:"execs"`
	QueryErrors    int64            `json:"query_errors"`
	// QueriesCancelled counts queries ended by context cancellation or
	// statement timeout (client disconnects included); these are not errors.
	QueriesCancelled int64         `json:"queries_cancelled"`
	PrepareDeduped   int64         `json:"prepare_deduped"`
	Parallel         ParallelStats `json:"parallel"`
	// Durability reports WAL/checkpoint counters (wal_bytes, checkpoints,
	// recovered_records, ...); omitted for in-memory deployments.
	Durability *engine.DurabilityStats `json:"durability,omitempty"`
	// Storage reports the columnar store's physical shape (tables, published
	// segments, estimated column bytes) and the scan-path counters (zero-copy
	// versus pivoted row-major materializations).
	Storage       storage.StorageStats `json:"storage"`
	UptimeSeconds float64              `json:"uptime_seconds"`
	// QueryLatency summarizes the query-duration histogram (the full
	// distribution is on /metrics as udfd_query_duration_seconds).
	QueryLatency LatencyStats `json:"query_latency"`
	// SlowQueries counts queries at or above the slow-query threshold.
	SlowQueries int64 `json:"slow_queries"`
}

// Stats snapshots the service counters.
func (s *Service) Stats() Stats {
	s.mu.Lock()
	byMode := make(map[string]int64, len(s.queriesByMode))
	var total int64
	for k, v := range s.queriesByMode {
		byMode[k] = v
		total += v
	}
	st := Stats{
		Sessions:         len(s.sessions),
		QueriesByMode:    byMode,
		Queries:          total,
		Execs:            s.execs,
		QueryErrors:      s.queryErrors,
		QueriesCancelled: s.queriesCancelled,
		PrepareDeduped:   s.prepareDeduped,
		Parallel: ParallelStats{
			WorkersConfigured: s.admission.size,
			ParallelQueries:   s.parallelQueries,
			MorselsExecuted:   s.morsels,
			WorkerLaunches:    s.workerLaunches,
		},
		UptimeSeconds: time.Since(s.started).Seconds(),
	}
	s.mu.Unlock()
	st.Parallel.AdmissionWaits = s.admission.waitCount()
	st.Cache = s.cache.Stats()
	st.CatalogVersion = s.cat.Version()
	st.QueryLatency = latencyStats(s.metrics.queryDur)
	st.SlowQueries = s.metrics.slowQueries.Value()
	if s.durable != nil {
		ds := s.durable.Stats()
		st.Durability = &ds
	}
	st.Storage = s.store.StorageStats()
	return st
}

// Format renders the stats as aligned text for the shell's .stats command.
func (st Stats) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "plan cache: %d/%d entries, %d hits, %d misses (%.1f%% hit rate), %d evictions, %d deduped prepares\n",
		st.Cache.Size, st.Cache.Capacity, st.Cache.Hits, st.Cache.Misses,
		100*st.Cache.HitRate(), st.Cache.Evictions, st.PrepareDeduped)
	fmt.Fprintf(&b, "catalog version: %d   sessions: %d   execs: %d   query errors: %d   cancelled: %d\n",
		st.CatalogVersion, st.Sessions, st.Execs, st.QueryErrors, st.QueriesCancelled)
	fmt.Fprintf(&b, "parallel: pool=%d workers, %d parallel queries, %d morsels, %d worker launches, %d admission waits\n",
		st.Parallel.WorkersConfigured, st.Parallel.ParallelQueries,
		st.Parallel.MorselsExecuted, st.Parallel.WorkerLaunches, st.Parallel.AdmissionWaits)
	fmt.Fprintf(&b, "latency: p50=%dµs p95=%dµs p99=%dµs over %d queries   slow queries: %d\n",
		st.QueryLatency.P50Micro, st.QueryLatency.P95Micro, st.QueryLatency.P99Micro,
		st.QueryLatency.Count, st.SlowQueries)
	if st.Durability != nil {
		fmt.Fprintf(&b, "durability: dir=%s wal=%d bytes (segs %d..%d), %d checkpoints, %d recovered records, fsync=%s\n",
			st.Durability.Dir, st.Durability.WALBytes, st.Durability.OldestSegment,
			st.Durability.NewestSegment, st.Durability.Checkpoints,
			st.Durability.RecoveredRecords, st.Durability.SyncPolicy)
	}
	fmt.Fprintf(&b, "storage: %d tables, %d segments, %d rows, %d column bytes, scans: %d zero-copy / %d pivoted, %d segments skipped, %d index rows hashed\n",
		st.Storage.Tables, st.Storage.Segments, st.Storage.Rows, st.Storage.ColumnBytes,
		st.Storage.ZeroCopyScans, st.Storage.PivotedScans, st.Storage.SegmentsSkipped, st.Storage.IndexRowsHashed)
	modes := make([]string, 0, len(st.QueriesByMode))
	for m := range st.QueriesByMode {
		modes = append(modes, m)
	}
	sort.Strings(modes)
	fmt.Fprintf(&b, "queries: %d", st.Queries)
	for _, m := range modes {
		fmt.Fprintf(&b, "  %s=%d", m, st.QueriesByMode[m])
	}
	b.WriteString("\n")
	return b.String()
}

// ParseMode maps a mode name to an engine.Mode.
func ParseMode(name string) (engine.Mode, error) {
	switch strings.ToLower(name) {
	case "iterative":
		return engine.ModeIterative, nil
	case "rewrite":
		return engine.ModeRewrite, nil
	case "costbased", "cost-based":
		return engine.ModeCostBased, nil
	default:
		return 0, fmt.Errorf("unknown mode %q (want iterative|rewrite|costbased)", name)
	}
}

// ParseProfile maps a profile name to an engine.Profile.
func ParseProfile(name string) (engine.Profile, error) {
	switch strings.ToUpper(name) {
	case "SYS1":
		return engine.SYS1, nil
	case "SYS2":
		return engine.SYS2, nil
	default:
		return engine.Profile{}, fmt.Errorf("unknown profile %q (want sys1|sys2)", name)
	}
}
