package server_test

import (
	"context"
	"errors"
	"fmt"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"udfdecorr/internal/bench"
	"udfdecorr/internal/engine"
	"udfdecorr/internal/exec"
	"udfdecorr/internal/server"
	"udfdecorr/internal/sqltypes"
	"udfdecorr/internal/storage"
	"udfdecorr/internal/wire"
)

// newBenchService boots a service over the small bench dataset with the
// shared corpus UDFs installed.
func newBenchService(t testing.TB, opts server.Options) *server.Service {
	t.Helper()
	boot, err := bench.NewEngine(engine.SYS1, engine.ModeRewrite, bench.SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := boot.ExecScript(bench.ExtraUDFs); err != nil {
		t.Fatal(err)
	}
	return server.NewServiceFromEngine(boot, opts)
}

func rowKeyCounts(rows []storage.Row) map[string]int {
	m := make(map[string]int, len(rows))
	for _, r := range rows {
		m[sqltypes.KeyOf(r...)]++
	}
	return m
}

func sameRowMultiset(a, b []storage.Row) bool {
	if len(a) != len(b) {
		return false
	}
	am := rowKeyCounts(a)
	for _, r := range b {
		am[sqltypes.KeyOf(r...)]--
	}
	for _, v := range am {
		if v != 0 {
			return false
		}
	}
	return true
}

// TestConcurrentDifferentialSmoke hammers one shared service from many
// goroutines — sessions spanning every mode × profile × executor combination
// — and asserts every result matches the serial iterative ground truth
// exactly. Run under -race this is the engine concurrency audit's
// regression test.
func TestConcurrentDifferentialSmoke(t *testing.T) {
	svc := newBenchService(t, server.DefaultOptions())

	// Serial ground truth: iterative row execution.
	truthSess := svc.CreateSession(engine.SYS1, engine.ModeIterative)
	truth := make(map[string][]storage.Row, len(bench.Corpus))
	for _, q := range bench.Corpus {
		res, err := svc.Query(truthSess, q.SQL)
		if err != nil {
			t.Fatalf("ground truth %s: %v", q.Name, err)
		}
		truth[q.Name] = res.Rows
	}

	type combo struct {
		profile    engine.Profile
		mode       engine.Mode
		vectorized bool
	}
	var combos []combo
	for _, p := range []engine.Profile{engine.SYS1, engine.SYS2} {
		for _, m := range []engine.Mode{engine.ModeIterative, engine.ModeRewrite, engine.ModeCostBased} {
			for _, v := range []bool{false, true} {
				combos = append(combos, combo{p, m, v})
			}
		}
	}
	// Two workers per combo so every cached plan is executed by at least two
	// goroutines CONCURRENTLY — sharing a compiled plan across executions is
	// exactly where per-plan scratch state turns into a race (the bug that
	// motivated the VecFactory split). ≥8 concurrent sessions per the
	// acceptance criteria.
	workers := 2 * len(combos)
	const rounds = 2 // second round exercises the cache-hit path

	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		c := combos[w%len(combos)]
		wg.Add(1)
		go func(c combo) {
			defer wg.Done()
			profile := c.profile
			profile.Vectorized = c.vectorized
			sess := svc.CreateSession(profile, c.mode)
			for round := 0; round < rounds; round++ {
				for _, q := range bench.Corpus {
					res, err := svc.Query(sess, q.SQL)
					if err != nil {
						errs <- fmt.Errorf("%s/%s/vec=%v %s: %v", profile.Name, c.mode, c.vectorized, q.Name, err)
						return
					}
					if !sameRowMultiset(truth[q.Name], res.Rows) {
						errs <- fmt.Errorf("%s/%s/vec=%v %s: rows differ from serial ground truth", profile.Name, c.mode, c.vectorized, q.Name)
						return
					}
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	st := svc.Stats()
	if st.Cache.Hits == 0 {
		t.Error("expected shared plan-cache hits across concurrent sessions, got none")
	}
	if st.Queries == 0 {
		t.Error("per-mode query counters did not record any queries")
	}
}

// TestSharedPlanConcurrentExecution is the focused regression test for
// shared-plan races: 8 goroutines with identical session settings execute
// the same cached vectorized plans simultaneously. Any evaluator or operator
// state captured per-plan (rather than per-execution) fails this under
// -race.
func TestSharedPlanConcurrentExecution(t *testing.T) {
	svc := newBenchService(t, server.DefaultOptions())
	profile := engine.SYS1
	profile.Vectorized = true

	warm := svc.CreateSession(profile, engine.ModeRewrite)
	expected := make(map[string][]storage.Row, len(bench.Corpus))
	for _, q := range bench.Corpus {
		res, err := svc.Query(warm, q.SQL)
		if err != nil {
			t.Fatalf("warmup %s: %v", q.Name, err)
		}
		expected[q.Name] = res.Rows
	}

	const workers = 8
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sess := svc.CreateSession(profile, engine.ModeRewrite)
			for round := 0; round < 3; round++ {
				for _, q := range bench.Corpus {
					res, err := svc.Query(sess, q.SQL)
					if err != nil {
						errs <- fmt.Errorf("%s: %v", q.Name, err)
						return
					}
					if !res.CacheHit {
						errs <- fmt.Errorf("%s: expected cache hit on warmed plan", q.Name)
						return
					}
					if !sameRowMultiset(expected[q.Name], res.Rows) {
						errs <- fmt.Errorf("%s: shared plan produced wrong rows under concurrency", q.Name)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestSharedCacheAcrossSessions: two sessions with identical settings share
// one cached plan; a session with different settings does not.
func TestSharedCacheAcrossSessions(t *testing.T) {
	svc := newBenchService(t, server.DefaultOptions())
	q := "select custkey, service_level(custkey) from customer where custkey <= 20"

	s1 := svc.CreateSession(engine.SYS1, engine.ModeRewrite)
	s2 := svc.CreateSession(engine.SYS1, engine.ModeRewrite)
	s3 := svc.CreateSession(engine.SYS1, engine.ModeIterative)

	r1, err := svc.Query(s1, q)
	if err != nil {
		t.Fatal(err)
	}
	if r1.CacheHit {
		t.Error("first execution should be a cache miss")
	}
	r2, err := svc.Query(s2, "  SELECT custkey,    service_level(custkey)\n from customer where custkey <= 20;")
	if err != nil {
		t.Fatal(err)
	}
	if r2.CacheHit {
		// Normalization unifies whitespace but not keyword case.
		t.Log("note: differing keyword case is a distinct cache key by design")
	}
	r2b, err := svc.Query(s2, "select custkey,  service_level(custkey) from customer where custkey <= 20 ;")
	if err != nil {
		t.Fatal(err)
	}
	if !r2b.CacheHit {
		t.Error("whitespace/semicolon variants of the same query must share a cache key")
	}
	if !sameRowMultiset(r1.Rows, r2b.Rows) {
		t.Error("shared plan produced different rows across sessions")
	}
	r3, err := svc.Query(s3, q)
	if err != nil {
		t.Fatal(err)
	}
	if r3.CacheHit {
		t.Error("different mode must not share a cached plan")
	}
}

// TestCacheInvalidationOnDDL: DDL bumps the catalog version (new keys) and
// purges the cache; pure INSERT scripts leave cached plans valid.
func TestCacheInvalidationOnDDL(t *testing.T) {
	boot := engine.New(engine.SYS1, engine.ModeRewrite)
	if err := boot.ExecScript("create table t (k int primary key, v int);" +
		"insert into t values (1, 10); insert into t values (2, 20);"); err != nil {
		t.Fatal(err)
	}
	svc := server.NewServiceFromEngine(boot, server.DefaultOptions())
	sess := svc.CreateSession(engine.SYS1, engine.ModeRewrite)

	const q = "select k, v from t"
	if _, err := svc.Query(sess, q); err != nil {
		t.Fatal(err)
	}
	res, err := svc.Query(sess, q)
	if err != nil {
		t.Fatal(err)
	}
	if !res.CacheHit {
		t.Fatal("repeat query should hit the cache")
	}

	// DML only: cache survives, and the cached plan sees the new row.
	if err := svc.Exec(sess, "insert into t values (3, 30);"); err != nil {
		t.Fatal(err)
	}
	res, err = svc.Query(sess, q)
	if err != nil {
		t.Fatal(err)
	}
	if !res.CacheHit {
		t.Error("INSERT must not invalidate cached plans")
	}
	if len(res.Rows) != 3 {
		t.Errorf("cached plan returned %d rows after insert, want 3", len(res.Rows))
	}

	// DDL: version bump + purge; next query misses, then re-caches.
	vBefore := svc.Catalog().Version()
	if err := svc.Exec(sess, "create table u (k int primary key);"); err != nil {
		t.Fatal(err)
	}
	if svc.Catalog().Version() == vBefore {
		t.Fatal("CREATE TABLE did not bump the catalog version")
	}
	if size := svc.CacheStats().Size; size != 0 {
		t.Errorf("cache size after DDL = %d, want 0 (purged)", size)
	}
	res, err = svc.Query(sess, q)
	if err != nil {
		t.Fatal(err)
	}
	if res.CacheHit {
		t.Error("query after DDL must re-plan (cache miss)")
	}
}

// TestPlanCacheLRU exercises eviction order and counters directly.
func TestPlanCacheLRU(t *testing.T) {
	c := server.NewPlanCache(2)
	key := func(sql string) server.CacheKey { return server.CacheKey{SQL: sql} }
	p1, p2, p3 := &engine.Prepared{}, &engine.Prepared{}, &engine.Prepared{}

	c.Put(key("q1"), p1)
	c.Put(key("q2"), p2)
	if _, ok := c.Get(key("q1")); !ok { // q1 becomes most recently used
		t.Fatal("q1 should be cached")
	}
	c.Put(key("q3"), p3) // evicts q2 (least recently used)
	if _, ok := c.Get(key("q2")); ok {
		t.Error("q2 should have been evicted as LRU")
	}
	if got, ok := c.Get(key("q1")); !ok || got != p1 {
		t.Error("q1 should survive eviction (it was recently used)")
	}
	if got, ok := c.Get(key("q3")); !ok || got != p3 {
		t.Error("q3 should be cached")
	}

	st := c.Stats()
	if st.Evictions != 1 {
		t.Errorf("evictions = %d, want 1", st.Evictions)
	}
	if st.Size != 2 || st.Capacity != 2 {
		t.Errorf("size/capacity = %d/%d, want 2/2", st.Size, st.Capacity)
	}
	if st.Hits != 3 || st.Misses != 1 {
		t.Errorf("hits/misses = %d/%d, want 3/1", st.Hits, st.Misses)
	}

	// Capacity <= 0 disables caching entirely.
	off := server.NewPlanCache(0)
	off.Put(key("q1"), p1)
	if _, ok := off.Get(key("q1")); ok {
		t.Error("zero-capacity cache must not store plans")
	}
}

func TestNormalizeSQL(t *testing.T) {
	cases := []struct{ in, want string }{
		{"select 1", "select 1"},
		{"  select\n\t1  ;  ", "select 1"},
		{"select 'a  b' from t", "select 'a  b' from t"},
		{"select 'it''s  ok',  x from t;", "select 'it''s  ok', x from t"},
		{"select\r\n*\nfrom   t", "select * from t"},
		// Comments strip exactly as the lexer skips them.
		{"select a --note\nfrom t", "select a from t"},
		{"select a --tail comment", "select a"},
		{"select /* block\ncomment */ a from t", "select a from t"},
		{"select '--not a comment' from t", "select '--not a comment' from t"},
		{"select '/*literal*/' from t", "select '/*literal*/' from t"},
	}
	for _, c := range cases {
		if got := server.NormalizeSQL(c.in); got != c.want {
			t.Errorf("NormalizeSQL(%q) = %q, want %q", c.in, got, c.want)
		}
	}
	// Distinct literal contents must stay distinct keys.
	if server.NormalizeSQL("select 'a b'") == server.NormalizeSQL("select 'a  b'") {
		t.Error("whitespace inside string literals must be preserved")
	}
	// A -- comment runs to end of line: the same bytes with the newline
	// replaced by a space parse DIFFERENTLY, so the keys must differ.
	if server.NormalizeSQL("select a --x\nfrom t") == server.NormalizeSQL("select a --x from t") {
		t.Error("line-comment extent must be respected, not collapsed away")
	}
	// Unterminated constructs are lexer errors: they must never share a key
	// with the valid query (or a cached plan would mask the error).
	if server.NormalizeSQL("select k from t /* oops") == server.NormalizeSQL("select k from t") {
		t.Error("unterminated block comment must not collide with the valid query")
	}
	if server.NormalizeSQL("select 'oops from t") == server.NormalizeSQL("select 'oops from t'") {
		t.Error("unterminated string literal must not collide with the terminated one")
	}
}

// TestHTTPAPI drives the full JSON surface end to end.
func TestHTTPAPI(t *testing.T) {
	svc := newBenchService(t, server.DefaultOptions())
	ts := httptest.NewServer(server.NewHandler(svc))
	defer ts.Close()

	c := wire.NewClient(ts.URL)
	post := func(path string, body any) map[string]any {
		t.Helper()
		var out map[string]any
		if err := c.Post(context.Background(), path, body, &out); err != nil {
			t.Fatalf("POST %s: %v", path, err)
		}
		return out
	}

	// Create a vectorized rewrite session.
	sess := post("/session", map[string]any{"mode": "rewrite", "profile": "sys1", "vectorized": true})
	id, _ := sess["session"].(string)
	if id == "" {
		t.Fatalf("no session id in %v", sess)
	}

	// Query through it, twice: second must be a cache hit.
	q := map[string]any{"session": id, "sql": "select custkey, service_level(custkey) from customer where custkey <= 10"}
	first := post("/query", q)
	if first["rewritten"] != true {
		t.Errorf("expected rewritten=true, got %v", first["rewritten"])
	}
	if n, _ := first["row_count"].(float64); n == 0 {
		t.Error("expected rows")
	}
	second := post("/query", q)
	if second["cache_hit"] != true {
		t.Errorf("repeat query should be a cache hit, got %v", second["cache_hit"])
	}

	// Explain shares the cache and reports the executor.
	exp := post("/explain", q)
	if s, _ := exp["explain"].(string); s == "" {
		t.Error("empty explain output")
	}

	// DDL + DML through /exec, then query the new table on the default session.
	post("/exec", map[string]any{"script": "create table kv (k int primary key, v varchar); insert into kv values (1, 'one');"})
	rows := post("/query", map[string]any{"sql": "select k, v from kv"})
	if n, _ := rows["row_count"].(float64); n != 1 {
		t.Errorf("kv row_count = %v, want 1", n)
	}

	// Stats reflects all of the above.
	var st server.Stats
	if err := c.Get(context.Background(), "/stats", &st); err != nil {
		t.Fatal(err)
	}
	if st.Cache.Hits == 0 {
		t.Error("stats should report cache hits")
	}
	if st.Queries == 0 {
		t.Error("stats should report queries by mode")
	}
	if st.Sessions == 0 {
		t.Error("stats should report live sessions")
	}

	// Unknown session fails typed (status pinned by the wire contract test).
	_, err := c.Query(context.Background(), "nope", "select 1")
	var re *wire.RemoteError
	if !errors.As(err, &re) || re.Code != wire.CodeUnknownSession {
		t.Errorf("unknown session: err = %v, want UNKNOWN_SESSION", err)
	}
}

// TestSessionSettingsSwap: changing a session's settings affects subsequent
// queries only and routes them to a different cache key.
func TestSessionSettingsSwap(t *testing.T) {
	svc := newBenchService(t, server.DefaultOptions())
	sess := svc.CreateSession(engine.SYS1, engine.ModeIterative)
	q := "select orderkey, disc(totalprice) from orders where orderkey <= 20"

	r1, err := svc.Query(sess, q)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Rewritten {
		t.Error("iterative mode must not rewrite")
	}
	sess.SetMode(engine.ModeRewrite)
	sess.SetVectorized(true)
	r2, err := svc.Query(sess, q)
	if err != nil {
		t.Fatal(err)
	}
	if !r2.Rewritten {
		t.Error("rewrite mode should decorrelate this query")
	}
	if r2.CacheHit {
		t.Error("new settings must not reuse the iterative plan")
	}
	if !sameRowMultiset(r1.Rows, r2.Rows) {
		t.Error("settings change altered query results")
	}
	profile, mode := sess.Settings()
	if !profile.Vectorized || mode != engine.ModeRewrite {
		t.Errorf("settings = %+v/%v after swap", profile, mode)
	}
}

// BenchmarkPlanCache quantifies the repeat-query speedup the cache buys:
// Cold re-plans every iteration (cache disabled), Warm goes through the
// shared cache. The dataset is deliberately tiny so execution cost is small
// against the per-invocation planning work (parse + algebrize + decorrelate
// + normalize + physical planning) that the cache amortizes — the same
// overhead regime the paper's SYS1/SYS2 split models. The acceptance bar is
// Warm ≥3x faster than Cold.
func BenchmarkPlanCache(b *testing.B) {
	const q = "select custkey, service_level(custkey) from customer where custkey <= 5"
	tiny := bench.Config{Customers: 40, OrdersPerCustomer: 2, Parts: 40,
		LineitemsPerPart: 1, Categories: 8, Seed: 7}
	run := func(b *testing.B, opts server.Options) {
		boot, err := bench.NewEngine(engine.SYS1, engine.ModeRewrite, tiny)
		if err != nil {
			b.Fatal(err)
		}
		if err := boot.ExecScript(bench.ExtraUDFs); err != nil {
			b.Fatal(err)
		}
		svc := server.NewServiceFromEngine(boot, opts)
		sess := svc.CreateSession(engine.SYS1, engine.ModeRewrite)
		if _, err := svc.Query(sess, q); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := svc.Query(sess, q); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("Cold", func(b *testing.B) { run(b, server.Options{CacheSize: 0, MaxConcurrent: 32}) })
	b.Run("Warm", func(b *testing.B) { run(b, server.DefaultOptions()) })
}

// canonicalParallel renders a row with floats rounded to 9 significant
// digits: parallel aggregation may re-associate float additions across
// worker partials, so cross-executor comparisons tolerate the last bits.
func canonicalParallel(r storage.Row) string {
	parts := make([]string, len(r))
	for i, v := range r {
		if v.Kind() == sqltypes.KindFloat {
			f, _ := v.AsFloat()
			parts[i] = fmt.Sprintf("f:%.9g", f)
			continue
		}
		parts[i] = v.String()
	}
	return strings.Join(parts, "\x1f")
}

func sameRowMultisetApprox(a, b []storage.Row) bool {
	if len(a) != len(b) {
		return false
	}
	m := map[string]int{}
	for _, r := range a {
		m[canonicalParallel(r)]++
	}
	for _, r := range b {
		m[canonicalParallel(r)]--
	}
	for _, v := range m {
		if v != 0 {
			return false
		}
	}
	return true
}

// TestParallelSessionsConcurrent hammers the service with parallel
// vectorized sessions next to serial ones: every result must match the
// serial ground truth, the admission pool must budget query-local workers,
// and the parallel counters must move. Run under -race this is the
// intra-query parallelism concurrency audit.
func TestParallelSessionsConcurrent(t *testing.T) {
	defer func(old int) { exec.MorselRows = old }(exec.MorselRows)
	exec.MorselRows = 64 // fan small tables out across real workers

	// A deliberately small pool: 8 sessions × 4 workers oversubscribes it,
	// so admission must serialize without deadlocking.
	svc := newBenchService(t, server.Options{CacheSize: 256, MaxConcurrent: 8})

	truthSess := svc.CreateSession(engine.SYS1, engine.ModeIterative)
	truth := make(map[string][]storage.Row, len(bench.Corpus))
	for _, q := range bench.Corpus {
		res, err := svc.Query(truthSess, q.SQL)
		if err != nil {
			t.Fatalf("ground truth %s: %v", q.Name, err)
		}
		truth[q.Name] = res.Rows
	}

	const workers = 8
	const rounds = 2
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		mode := engine.ModeRewrite
		if w%2 == 1 {
			mode = engine.ModeIterative
		}
		profile := engine.SYS1
		profile.Vectorized = true
		profile.Parallelism = 4
		sess := svc.CreateSession(profile, mode)
		wg.Add(1)
		go func(w int, sess *server.Session) {
			defer wg.Done()
			for round := 0; round < rounds; round++ {
				for _, q := range bench.Corpus {
					res, err := svc.Query(sess, q.SQL)
					if err != nil {
						errs <- fmt.Errorf("parallel client %d %s: %v", w, q.Name, err)
						return
					}
					if !sameRowMultisetApprox(truth[q.Name], res.Rows) {
						errs <- fmt.Errorf("parallel client %d %s: rows differ from serial ground truth", w, q.Name)
						return
					}
				}
			}
		}(w, sess)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	st := svc.Stats()
	if st.Parallel.ParallelQueries == 0 {
		t.Error("no parallel queries recorded")
	}
	if st.Parallel.WorkerLaunches == 0 {
		t.Error("no parallel worker launches recorded")
	}
	if st.Parallel.MorselsExecuted == 0 {
		t.Error("no morsels recorded")
	}
	if st.Parallel.AdmissionWaits == 0 {
		t.Error("oversubscribed pool should have recorded admission waits")
	}
	if st.Parallel.WorkersConfigured != 8 {
		t.Errorf("workers_configured = %d, want 8", st.Parallel.WorkersConfigured)
	}
}

// TestParallelJoinBuildPanicIsStatementError makes one partition of a
// parallel join build panic: the statement fails with the panic as its
// error, and the service answers the next statement.
func TestParallelJoinBuildPanicIsStatementError(t *testing.T) {
	svc := newBenchService(t, server.DefaultOptions())
	profile := engine.SYS1
	profile.Vectorized = true
	profile.Parallelism = 4
	sess := svc.CreateSession(profile, engine.ModeRewrite)
	const q = "select custkey, service_level(custkey) from customer"

	exec.PartitionBuildHook = func(part int) {
		if part == 2 {
			panic("injected partition failure")
		}
	}
	_, err := svc.Query(sess, q)
	exec.PartitionBuildHook = nil
	if err == nil || !strings.Contains(err.Error(), "injected partition failure") {
		t.Fatalf("statement error = %v, want the partition's panic", err)
	}

	res, err := svc.Query(sess, q)
	if err != nil {
		t.Fatalf("next statement: %v", err)
	}
	if len(res.Rows) == 0 {
		t.Fatal("next statement returned no rows")
	}
}

// TestHTTPParallelSession drives a parallel session over the HTTP API and
// checks the per-query and /stats parallel counters.
func TestHTTPParallelSession(t *testing.T) {
	defer func(old int) { exec.MorselRows = old }(exec.MorselRows)
	exec.MorselRows = 64

	svc := newBenchService(t, server.DefaultOptions())
	ts := httptest.NewServer(server.NewHandler(svc))
	defer ts.Close()

	c := wire.NewClient(ts.URL)
	post := func(path string, body any) map[string]any {
		t.Helper()
		var out map[string]any
		if err := c.Post(context.Background(), path, body, &out); err != nil {
			t.Fatalf("POST %s: %v", path, err)
		}
		return out
	}

	sess := post("/session", map[string]any{
		"mode": "rewrite", "profile": "sys1", "vectorized": true, "parallelism": 4})
	if p, _ := sess["parallelism"].(float64); p != 4 {
		t.Fatalf("session parallelism = %v, want 4", sess["parallelism"])
	}
	id, _ := sess["session"].(string)

	q := map[string]any{"session": id,
		"sql": "select custkey, count(*), sum(totalprice) from orders group by custkey"}
	res := post("/query", q)
	if n, _ := res["row_count"].(float64); n == 0 {
		t.Fatal("expected rows from the parallel grouped aggregation")
	}
	if w, _ := res["workers"].(float64); w == 0 {
		t.Errorf("query response workers = %v, want > 0", res["workers"])
	}
	if m, _ := res["morsels"].(float64); m == 0 {
		t.Errorf("query response morsels = %v, want > 0", res["morsels"])
	}

	exp := post("/explain", q)
	s, _ := exp["explain"].(string)
	if !strings.Contains(s, "parallelism: 4") || !strings.Contains(s, "degree=4") {
		t.Errorf("explain missing parallel degree:\n%s", s)
	}

	var st server.Stats
	if err := c.Get(context.Background(), "/stats", &st); err != nil {
		t.Fatal(err)
	}
	if st.Parallel.ParallelQueries == 0 || st.Parallel.WorkerLaunches == 0 {
		t.Errorf("stats parallel counters did not move: %+v", st.Parallel)
	}
}
