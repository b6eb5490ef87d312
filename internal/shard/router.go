package shard

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	"udfdecorr/internal/ast"
	"udfdecorr/internal/catalog"
	"udfdecorr/internal/core"
	"udfdecorr/internal/parser"
	"udfdecorr/internal/plan"
	"udfdecorr/internal/sqltypes"
	"udfdecorr/internal/wire"
)

// Router fronts a fixed set of shards. It is stateless apart from its
// catalog (rebuilt from the DDL that flows through it) and its session
// table (a router session is one session per shard).
type Router struct {
	shards []*wire.Client
	cat    *catalog.Catalog

	mu       sync.Mutex
	sessions map[string]*Session
	seq      int64

	rr    atomic.Uint64 // round-robin for replicated-only single-shard routes
	stats Stats
}

// Stats counts what the router did, by route class.
type Stats struct {
	Sessions         atomic.Int64
	SingleShard      atomic.Int64
	ScatterConcat    atomic.Int64
	ScatterMerge     atomic.Int64
	Rejected         atomic.Int64
	InsertsRouted    atomic.Int64 // hash-routed to one shard
	InsertsBroadcast atomic.Int64 // replicated-table inserts, per statement
	DDLBroadcast     atomic.Int64
}

// StatsSnapshot is the JSON form served by /stats.
type StatsSnapshot struct {
	Shards           int      `json:"shards"`
	ShardURLs        []string `json:"shard_urls"`
	Sessions         int64    `json:"sessions"`
	SingleShard      int64    `json:"single_shard"`
	ScatterConcat    int64    `json:"scatter_concat"`
	ScatterMerge     int64    `json:"scatter_merge"`
	Rejected         int64    `json:"rejected"`
	InsertsRouted    int64    `json:"inserts_routed"`
	InsertsBroadcast int64    `json:"inserts_broadcast"`
	DDLBroadcast     int64    `json:"ddl_broadcast"`
	ShardedTables    []string `json:"sharded_tables"`
}

// Session is one router session: one session ID per shard, created eagerly
// with identical settings so any shard can serve any leg of a scatter.
type Session struct {
	ID       string
	shardIDs []string
}

// New builds a router over the given shard base URLs.
func New(shardURLs []string) (*Router, error) {
	if len(shardURLs) == 0 {
		return nil, fmt.Errorf("shard router needs at least one shard URL")
	}
	r := &Router{cat: catalog.New(), sessions: map[string]*Session{}}
	for _, u := range shardURLs {
		r.shards = append(r.shards, wire.NewClient(u))
	}
	return r, nil
}

// NumShards returns the cluster width.
func (r *Router) NumShards() int { return len(r.shards) }

// Snapshot captures the router's counters.
func (r *Router) Snapshot() StatsSnapshot {
	urls := make([]string, len(r.shards))
	for i, s := range r.shards {
		urls[i] = s.Base()
	}
	var sharded []string
	for _, t := range r.cat.Tables() {
		if t.ShardKey != "" {
			sharded = append(sharded, fmt.Sprintf("%s(%s)", t.Name, t.ShardKey))
		}
	}
	r.mu.Lock()
	nsess := int64(len(r.sessions))
	r.mu.Unlock()
	return StatsSnapshot{
		Shards:           len(r.shards),
		ShardURLs:        urls,
		Sessions:         nsess,
		SingleShard:      r.stats.SingleShard.Load(),
		ScatterConcat:    r.stats.ScatterConcat.Load(),
		ScatterMerge:     r.stats.ScatterMerge.Load(),
		Rejected:         r.stats.Rejected.Load(),
		InsertsRouted:    r.stats.InsertsRouted.Load(),
		InsertsBroadcast: r.stats.InsertsBroadcast.Load(),
		DDLBroadcast:     r.stats.DDLBroadcast.Load(),
		ShardedTables:    sharded,
	}
}

// CreateSession opens one session per shard with the given settings
// (forwarded verbatim: mode, profile, vectorized, parallelism, timeout_ms).
// All shards must answer — a scatter cannot run on a partial cluster.
func (r *Router) CreateSession(ctx context.Context, settings map[string]any) (*Session, error) {
	ids := make([]string, len(r.shards))
	errs := make([]error, len(r.shards))
	var wg sync.WaitGroup
	for i := range r.shards {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ids[i], errs[i] = r.shards[i].NewSession(ctx, settings)
			errs[i] = unavailable(r.shards[i], errs[i])
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			// Best-effort close of the sessions that did open.
			for j, id := range ids {
				if id != "" {
					_ = r.post(ctx, j, "/session/close", wire.Statement{Session: id}, nil)
				}
			}
			return nil, fmt.Errorf("opening session on shard %d: %w", i, err)
		}
	}
	r.mu.Lock()
	r.seq++
	s := &Session{ID: fmt.Sprintf("rs-%d", r.seq), shardIDs: ids}
	r.sessions[s.ID] = s
	r.mu.Unlock()
	r.stats.Sessions.Add(1)
	return s, nil
}

// CloseSession closes the per-shard sessions (best effort) and forgets the
// router session.
func (r *Router) CloseSession(ctx context.Context, id string) error {
	r.mu.Lock()
	s, ok := r.sessions[id]
	delete(r.sessions, id)
	r.mu.Unlock()
	if !ok {
		return wire.Errorf(wire.CodeUnknownSession, "unknown session %q", id)
	}
	for i, sid := range s.shardIDs {
		_ = r.post(ctx, i, "/session/close", wire.Statement{Session: sid}, nil)
	}
	return nil
}

// Session resolves a router session ID.
func (r *Router) Session(id string) (*Session, error) {
	r.mu.Lock()
	s, ok := r.sessions[id]
	r.mu.Unlock()
	if !ok {
		return nil, wire.Errorf(wire.CodeUnknownSession, "unknown session %q", id)
	}
	return s, nil
}

// Classify runs the shard-feasibility pass on one SELECT against the
// router's catalog. Classification is mode-independent: it works on the
// normalized (not decorrelated) plan, whose root aggregate shape is the
// same under every executor the shards might run.
func (r *Router) Classify(sql string) (plan.ShardInfo, error) {
	sel, err := parser.ParseQuery(sql)
	if err != nil {
		return plan.ShardInfo{}, &wire.RemoteError{Code: wire.CodeBadRequest, Message: err.Error()}
	}
	rel, err := core.NewAlgebrizer(r.cat).Query(sel)
	if err != nil {
		return plan.ShardInfo{}, &wire.RemoteError{Code: wire.CodeBadRequest, Message: err.Error()}
	}
	rel = core.Normalize(r.cat, rel)
	return plan.ClassifyShard(rel, r.cat), nil
}

// pick chooses the shard for a single-shard route: the hash of the pinned
// key value, or round-robin across the cluster when the statement reads
// only replicated tables (any shard has all of them).
func (r *Router) pick(info plan.ShardInfo) int {
	if info.KeyValue != nil {
		return Hash(*info.KeyValue, len(r.shards))
	}
	return int(r.rr.Add(1) % uint64(len(r.shards)))
}

// Query classifies and executes one SELECT, returning a result iterator.
// The returned ShardInfo says how it routed (for /stats and EXPLAIN).
func (r *Router) Query(ctx context.Context, sess *Session, sql string) (Rows, plan.ShardInfo, error) {
	info, err := r.Classify(sql)
	if err != nil {
		return nil, info, err
	}
	switch info.Kind {
	case plan.ShardRejected:
		r.stats.Rejected.Add(1)
		return nil, info, &wire.RemoteError{Code: wire.CodeUnshardable, Message: info.Reason}
	case plan.ShardSingle:
		r.stats.SingleShard.Add(1)
		i := r.pick(info)
		st, err := r.stream(ctx, i, sess, sql)
		if err != nil {
			return nil, info, err
		}
		return &concatRows{streams: []*shardStream{st}}, info, nil
	case plan.ShardScatterConcat:
		r.stats.ScatterConcat.Add(1)
		streams, err := r.scatter(ctx, sess, sql)
		if err != nil {
			return nil, info, err
		}
		return &concatRows{streams: streams}, info, nil
	default: // plan.ShardScatterMerge
		r.stats.ScatterMerge.Add(1)
		streams, err := r.scatter(ctx, sess, info.Merge.SQL)
		if err != nil {
			return nil, info, err
		}
		rows, err := gatherMerge(streams, info.Merge)
		if err != nil {
			return nil, info, err
		}
		return rows, info, nil
	}
}

// scatter opens the query's cursor on every shard concurrently.
func (r *Router) scatter(ctx context.Context, sess *Session, sql string) ([]*shardStream, error) {
	streams := make([]*shardStream, len(r.shards))
	errs := make([]error, len(r.shards))
	var wg sync.WaitGroup
	for i := range r.shards {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			streams[i], errs[i] = r.stream(ctx, i, sess, sql)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			for _, st := range streams {
				if st != nil {
					st.Close()
				}
			}
			return nil, scatterError(i, err)
		}
	}
	return streams, nil
}

// scatterError attributes a shard's failure inside a scatter. Typed shard
// errors keep their code (a down shard stays SHARD_UNAVAILABLE); anything
// else becomes PARTIAL_FAILURE, because the other shards were already
// committed to the scatter.
func scatterError(shardIdx int, err error) error {
	if re, ok := err.(*wire.RemoteError); ok {
		return &wire.RemoteError{
			Code:       re.Code,
			Message:    fmt.Sprintf("scatter leg %d: %s", shardIdx, re.Message),
			LeaderHint: re.LeaderHint,
		}
	}
	return &wire.RemoteError{
		Code:    wire.CodePartialFailure,
		Message: fmt.Sprintf("scatter leg %d: %v", shardIdx, err),
	}
}

// Explain returns the router's routing decision plus the plan of the
// statement a shard runs (from the shard the statement would start on):
// for a scatter-merge that is the partial-aggregate statement, printed
// under the route line.
func (r *Router) Explain(ctx context.Context, sess *Session, sql string) (string, error) {
	info, err := r.Classify(sql)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "route: %s", info.Kind)
	if info.Table != "" {
		fmt.Fprintf(&b, " (sharded table %s)", info.Table)
	}
	if info.KeyValue != nil {
		fmt.Fprintf(&b, " pinned to shard %d by key %s", Hash(*info.KeyValue, len(r.shards)), info.KeyValue.String())
	}
	b.WriteString("\n")
	if info.Kind == plan.ShardRejected {
		fmt.Fprintf(&b, "rejected: %s\n", info.Reason)
		return b.String(), nil
	}
	i := 0
	switch info.Kind {
	case plan.ShardSingle:
		i = r.pick(info)
	case plan.ShardScatterMerge:
		sql = info.Merge.SQL
		fmt.Fprintf(&b, "partial statement:\n%s\n", sql)
	}
	var resp struct {
		Explain string `json:"explain"`
	}
	if err := r.post(ctx, i, "/explain", wire.Statement{Session: sess.shardIDs[i], SQL: sql}, &resp); err != nil {
		return "", err
	}
	fmt.Fprintf(&b, "shard %d plan:\n%s", i, resp.Explain)
	return b.String(), nil
}

// Exec routes a DDL/DML script: CREATE TABLE and CREATE FUNCTION broadcast
// to every shard (and update the router's catalog), INSERTs into sharded
// tables hash-route to one shard, INSERTs into replicated tables broadcast.
// Per-shard statement order follows script order; everything ships in one
// batch per shard, after the whole script has routed.
func (r *Router) Exec(ctx context.Context, sess *Session, script string) error {
	s, err := parser.ParseScript(script)
	if err != nil {
		return &wire.RemoteError{Code: wire.CodeBadRequest, Message: err.Error()}
	}
	pending := make([][]string, len(r.shards))
	broadcast := func(sql string) {
		for i := range pending {
			pending[i] = append(pending[i], sql)
		}
	}
	for _, st := range s.Stmts {
		switch st := st.(type) {
		case *ast.CreateTableStmt:
			if _, err := r.cat.AddTableFromAST(st); err != nil {
				return &wire.RemoteError{Code: wire.CodeBadRequest, Message: err.Error()}
			}
			broadcast(st.SQL())
			r.stats.DDLBroadcast.Add(1)
		case *ast.CreateFunctionStmt:
			if _, err := r.cat.AddFunction(st); err != nil {
				return &wire.RemoteError{Code: wire.CodeBadRequest, Message: err.Error()}
			}
			broadcast(st.SQL())
			r.stats.DDLBroadcast.Add(1)
		case *ast.InsertStmt:
			t, ok := r.cat.Table(st.Table)
			if !ok {
				return wire.Errorf(wire.CodeBadRequest, "unknown table %s", st.Table)
			}
			if t.ShardKey == "" {
				broadcast(st.SQL())
				r.stats.InsertsBroadcast.Add(1)
				continue
			}
			idx := t.ColIndex(t.ShardKey)
			if idx < 0 || idx >= len(st.Values) {
				return wire.Errorf(wire.CodeBadRequest,
					"INSERT INTO %s: %d values, shard key %s is column %d", st.Table, len(st.Values), t.ShardKey, idx)
			}
			v, ok := litValue(st.Values[idx])
			if !ok {
				return wire.Errorf(wire.CodeUnshardable,
					"INSERT INTO %s: shard key %s must be a literal to route the row", st.Table, t.ShardKey)
			}
			i := Hash(v, len(r.shards))
			pending[i] = append(pending[i], st.SQL())
			r.stats.InsertsRouted.Add(1)
		case *ast.TxnStmt:
			return &wire.RemoteError{Code: wire.CodeUnshardable,
				Message: "transactions cannot run through the shard router (no distributed commit protocol)"}
		default:
			return wire.Errorf(wire.CodeUnshardable,
				"%T statement cannot run through the shard router (only CREATE TABLE, CREATE FUNCTION and INSERT)", st)
		}
	}
	return r.flush(ctx, sess, pending)
}

// flush ships each shard's routed statements as one /exec batch. When only
// one shard is involved its error passes through typed and untouched (a
// point INSERT into a down shard is SHARD_UNAVAILABLE, nothing partial
// about it); when several shards were involved and only some failed, the
// result is PARTIAL_FAILURE naming the losers — the acked shards keep
// their rows, the failed statements were never applied anywhere.
func (r *Router) flush(ctx context.Context, sess *Session, pending [][]string) error {
	errs := make([]error, len(r.shards))
	involved := 0
	var wg sync.WaitGroup
	for i, stmts := range pending {
		if len(stmts) == 0 {
			continue
		}
		involved++
		wg.Add(1)
		go func(i int, script string) {
			defer wg.Done()
			errs[i] = r.post(ctx, i, "/exec", wire.Statement{Session: sess.shardIDs[i], Script: script}, nil)
		}(i, strings.Join(stmts, "\n"))
	}
	wg.Wait()
	var failed []string
	var firstErr error
	for i, err := range errs {
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			failed = append(failed, fmt.Sprintf("shard %d: %v", i, err))
		}
	}
	if firstErr == nil {
		return nil
	}
	if involved == 1 || len(failed) == involved {
		return firstErr
	}
	return &wire.RemoteError{
		Code:    wire.CodePartialFailure,
		Message: fmt.Sprintf("%d of %d shards failed: %s", len(failed), involved, strings.Join(failed, "; ")),
	}
}

// litValue extracts the constant of a literal INSERT value (allowing a
// leading unary minus), which routing needs at plan-free speed.
func litValue(e ast.Expr) (sqltypes.Value, bool) {
	switch e := e.(type) {
	case *ast.Lit:
		return e.Val, true
	case *ast.UnaryExpr:
		if e.Op != "-" {
			return sqltypes.Null, false
		}
		v, ok := litValue(e.E)
		if !ok {
			return sqltypes.Null, false
		}
		neg, err := sqltypes.Arith(sqltypes.OpMul, v, sqltypes.NewInt(-1))
		if err != nil {
			return sqltypes.Null, false
		}
		return neg, true
	default:
		return sqltypes.Null, false
	}
}
