// End-to-end differential test of the sharded tier: the same deterministic
// dataset loaded into a 3-shard cluster (through the router: DDL broadcast,
// hash-routed INSERTs) and into one single-node engine (rows straight into
// storage), then the partitionable corpus executed through both — the
// router's gathered results must equal the single node's, on both executors.
package shard_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"udfdecorr/internal/bench"
	"udfdecorr/internal/engine"
	"udfdecorr/internal/plan"
	"udfdecorr/internal/server"
	"udfdecorr/internal/shard"
	"udfdecorr/internal/sqltypes"
	"udfdecorr/internal/storage"
	"udfdecorr/internal/wire"
)

// testConfig is small enough for -race but still spreads rows over every
// shard and leaves some customers orderless and some parts lineitem-less.
var testConfig = bench.Config{
	Customers: 120, OrdersPerCustomer: 4,
	Parts: 150, LineitemsPerPart: 3,
	Categories: 12, Seed: 7,
}

// extraQueries exercise merge shapes the corpus lacks (avg reweighting,
// count forms, min/max, groups whose partials come from several shards,
// pinned point routes).
var extraQueries = []struct {
	name, sql string
	kind      plan.ShardKind
}{
	{"grouped avg/min/count", "select custkey, avg(totalprice), min(totalprice), count(*) from orders where custkey <= 60 group by custkey", plan.ShardScatterMerge},
	{"scalar avg/max", "select avg(totalprice), max(totalprice) from orders", plan.ShardScatterMerge},
	{"count star vs count col", "select count(totalprice), count(*) from orders", plan.ShardScatterMerge},
	{"groups spread over shards, float keys", "select qty, disc, sum(price), avg(price), count(*), min(price), max(price) from lineitem group by qty, disc", plan.ShardScatterMerge},
	{"pinned point query", "select orderkey, totalprice from orders where custkey = 7", plan.ShardSingle},
	{"sharded join probe", "select o.orderkey, c.name from orders o join customer c on o.custkey = c.custkey where o.orderkey <= 80", plan.ShardScatterConcat},
}

type cluster struct {
	router  *shard.Router
	servers []*httptest.Server
	conns   atomic.Int64 // connections the shards accepted
}

func (c *cluster) stop() {
	for _, ts := range c.servers {
		ts.Close()
	}
}

func startCluster(t *testing.T, n int) *cluster { return startClusterWith(t, n, nil) }

// startClusterWith starts n empty shards and a router over them. wrap, if
// set, is middleware around shard i's handler.
func startClusterWith(t *testing.T, n int, wrap func(i int, h http.Handler) http.Handler) *cluster {
	t.Helper()
	c := &cluster{}
	urls := make([]string, n)
	for i := 0; i < n; i++ {
		eng := engine.New(engine.SYS1, engine.ModeRewrite)
		h := server.NewHandler(server.NewServiceFromEngine(eng, server.DefaultOptions()))
		if wrap != nil {
			h = wrap(i, h)
		}
		ts := httptest.NewUnstartedServer(h)
		ts.Config.ConnState = func(_ net.Conn, s http.ConnState) {
			if s == http.StateNew {
				c.conns.Add(1)
			}
		}
		ts.Start()
		c.servers = append(c.servers, ts)
		urls[i] = ts.URL
	}
	r, err := shard.New(urls)
	if err != nil {
		t.Fatal(err)
	}
	c.router = r
	t.Cleanup(c.stop)
	return c
}

func insertSQL(b *strings.Builder, table string, row storage.Row) {
	b.WriteString("insert into ")
	b.WriteString(table)
	b.WriteString(" values (")
	for i, v := range row {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(v.String())
	}
	b.WriteString(");\n")
}

// loadCluster pushes schema, UDFs and the generated dataset through the
// router, batched like the real load client.
func loadCluster(t *testing.T, c *cluster, sess *shard.Session) {
	t.Helper()
	ctx := context.Background()
	schema, err := bench.ShardedSchema()
	if err != nil {
		t.Fatal(err)
	}
	if err := c.router.Exec(ctx, sess, schema+bench.UDFs+bench.ExtraUDFs); err != nil {
		t.Fatalf("loading schema through router: %v", err)
	}
	for _, td := range bench.Generate(testConfig) {
		var b strings.Builder
		n := 0
		flush := func() {
			if n == 0 {
				return
			}
			if err := c.router.Exec(ctx, sess, b.String()); err != nil {
				t.Fatalf("loading %s through router: %v", td.Name, err)
			}
			b.Reset()
			n = 0
		}
		for _, row := range td.Rows {
			insertSQL(&b, td.Name, row)
			if n++; n == 256 {
				flush()
			}
		}
		flush()
	}
}

// newBaseline builds the single-node twin of the cluster's dataset.
func newBaseline(t *testing.T) *server.Service {
	t.Helper()
	eng := engine.New(engine.SYS1, engine.ModeRewrite)
	if err := eng.ExecScript(bench.Schema + bench.UDFs + bench.ExtraUDFs); err != nil {
		t.Fatal(err)
	}
	for _, td := range bench.Generate(testConfig) {
		if err := eng.Load(td.Name, td.Rows); err != nil {
			t.Fatal(err)
		}
	}
	return server.NewServiceFromEngine(eng, server.DefaultOptions())
}

// baselineRows runs sql on the single node and formats cells like the HTTP
// stream does.
func baselineRows(t *testing.T, svc *server.Service, sess *server.Session, sql string) [][]string {
	t.Helper()
	st, err := svc.QueryStream(context.Background(), sess, sql, server.StreamOpts{})
	if err != nil {
		t.Fatalf("baseline %q: %v", sql, err)
	}
	defer st.Rows.Close()
	var out [][]string
	for st.Rows.Next() {
		row := st.Rows.Row()
		cells := make([]string, len(row))
		for i, v := range row {
			cells[i] = v.String()
		}
		out = append(out, cells)
	}
	if err := st.Rows.Err(); err != nil {
		t.Fatalf("baseline %q: %v", sql, err)
	}
	return out
}

func routerRows(t *testing.T, c *cluster, sess *shard.Session, sql string) ([][]string, error) {
	t.Helper()
	rows, _, err := c.router.Query(context.Background(), sess, sql)
	if err != nil {
		return nil, err
	}
	defer rows.Close()
	var out [][]string
	for {
		row, err := rows.Next()
		if err != nil {
			return nil, err
		}
		if row == nil {
			return out, nil
		}
		out = append(out, row)
	}
}

func TestRouterDifferential(t *testing.T) {
	c := startCluster(t, 3)
	ctx := context.Background()
	loadSess, err := c.router.CreateSession(ctx, map[string]any{"mode": "iterative"})
	if err != nil {
		t.Fatal(err)
	}
	loadCluster(t, c, loadSess)
	baseline := newBaseline(t)

	combos := []struct {
		mode       string
		vectorized bool
	}{
		{"rewrite", false},
		{"iterative", false},
		{"rewrite", true},
	}
	for _, combo := range combos {
		mode, err := server.ParseMode(combo.mode)
		if err != nil {
			t.Fatal(err)
		}
		profile := engine.SYS1
		profile.Vectorized = combo.vectorized
		baseSess := baseline.CreateSession(profile, mode)
		routerSess, err := c.router.CreateSession(ctx, map[string]any{
			"mode": combo.mode, "vectorized": combo.vectorized,
		})
		if err != nil {
			t.Fatal(err)
		}
		type namedQuery struct {
			name, sql string
			kind      plan.ShardKind
		}
		var queries []namedQuery
		for _, q := range bench.Corpus {
			class, ok := bench.ShardClass[q.Name]
			if !ok {
				t.Fatalf("corpus query %q has no expected shard class", q.Name)
			}
			kind := plan.ShardScatterConcat
			switch class {
			case "rejected":
				kind = plan.ShardRejected
			case "single-shard":
				kind = plan.ShardSingle
			case "scatter-merge":
				kind = plan.ShardScatterMerge
			}
			queries = append(queries, namedQuery{q.Name, q.SQL, kind})
		}
		for _, q := range extraQueries {
			queries = append(queries, namedQuery{q.name, q.sql, q.kind})
		}
		for _, q := range queries {
			got, err := routerRows(t, c, routerSess, q.sql)
			if q.kind == plan.ShardRejected {
				re, ok := err.(*wire.RemoteError)
				if !ok || re.Code != wire.CodeUnshardable {
					t.Errorf("[%s/%v] %s: want typed UNSHARDABLE rejection, got %v", combo.mode, combo.vectorized, q.name, err)
				} else if re.Message == "" {
					t.Errorf("[%s/%v] %s: rejection has no reason", combo.mode, combo.vectorized, q.name)
				}
				continue
			}
			if err != nil {
				t.Errorf("[%s/%v] %s: %v", combo.mode, combo.vectorized, q.name, err)
				continue
			}
			want := baselineRows(t, baseline, baseSess, q.sql)
			if bench.CanonicalRows(got) != bench.CanonicalRows(want) {
				t.Errorf("[%s/%v] %s: router result differs from single node\nrouter (%d rows): %.300v\nsingle (%d rows): %.300v",
					combo.mode, combo.vectorized, q.name, len(got), got, len(want), want)
			}
		}
		_ = c.router.CloseSession(ctx, routerSess.ID)
		baseline.CloseSession(baseSess.ID)
	}

	snap := c.router.Snapshot()
	if snap.SingleShard == 0 || snap.ScatterConcat == 0 || snap.ScatterMerge == 0 || snap.Rejected == 0 {
		t.Errorf("stats did not count every route class: %+v", snap)
	}
	if snap.InsertsRouted == 0 || snap.InsertsBroadcast == 0 || snap.DDLBroadcast == 0 {
		t.Errorf("stats did not count load routing: %+v", snap)
	}
}

// TestRouterShardDown checks typed failure when a shard dies: scatters fail
// with a typed error naming the leg, single-shard routes to live shards
// keep working, and routed writes to the dead shard fail typed while writes
// to live shards still ack.
func TestRouterShardDown(t *testing.T) {
	c := startCluster(t, 3)
	ctx := context.Background()
	sess, err := c.router.CreateSession(ctx, map[string]any{"mode": "rewrite"})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.router.Exec(ctx, sess, "create table kv (k int primary key, v float) shard key (k);"); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for k := 1; k <= 60; k++ {
		insertSQL(&b, "kv", storage.Row{sqltypes.NewInt(int64(k)), sqltypes.NewFloat(float64(k) / 2)})
	}
	if err := c.router.Exec(ctx, sess, b.String()); err != nil {
		t.Fatal(err)
	}

	// Find one key per shard so we can aim writes at live and dead shards.
	keyOn := map[int]int64{}
	for k := int64(1); k <= 60 && len(keyOn) < 3; k++ {
		s := shard.Hash(sqltypes.NewInt(k), 3)
		if _, ok := keyOn[s]; !ok {
			keyOn[s] = k
		}
	}
	const dead = 1
	c.servers[dead].Close()

	// Scatter: typed failure naming the dead leg, no partial result set.
	_, err = routerRows(t, c, sess, "select k, v from kv")
	re, ok := err.(*wire.RemoteError)
	if !ok || (re.Code != wire.CodeShardUnavailable && re.Code != wire.CodePartialFailure) {
		t.Fatalf("scatter over dead shard: want SHARD_UNAVAILABLE or PARTIAL_FAILURE, got %v", err)
	}
	// Merge scatter too.
	_, err = routerRows(t, c, sess, "select count(*) from kv")
	if re, ok := err.(*wire.RemoteError); !ok || (re.Code != wire.CodeShardUnavailable && re.Code != wire.CodePartialFailure) {
		t.Fatalf("merge over dead shard: want typed shard failure, got %v", err)
	}

	// Pinned single-shard query to a live shard still answers.
	live := (dead + 1) % 3
	rows, err := routerRows(t, c, sess, "select v from kv where k = "+sqltypes.NewInt(keyOn[live]).String())
	if err != nil || len(rows) != 1 {
		t.Fatalf("pinned query to live shard: rows=%v err=%v", rows, err)
	}

	// Routed write to the dead shard fails typed; to a live shard it acks.
	deadKey := keyOn[dead] + 300 // same residue class not guaranteed; route explicitly below
	_ = deadKey
	failWrite := func(k int64) error {
		var b strings.Builder
		insertSQL(&b, "kv", storage.Row{sqltypes.NewInt(k), sqltypes.NewFloat(1)})
		return c.router.Exec(ctx, sess, b.String())
	}
	var deadK, liveK int64
	for k := int64(1000); deadK == 0 || liveK == 0; k++ {
		switch shard.Hash(sqltypes.NewInt(k), 3) {
		case dead:
			if deadK == 0 {
				deadK = k
			}
		case live:
			if liveK == 0 {
				liveK = k
			}
		}
	}
	if err := failWrite(liveK); err != nil {
		t.Fatalf("write to live shard: %v", err)
	}
	err = failWrite(deadK)
	if re, ok := err.(*wire.RemoteError); !ok || re.Code != wire.CodeShardUnavailable {
		t.Fatalf("write to dead shard: want SHARD_UNAVAILABLE, got %v", err)
	}
}

// TestRouterExecRejections pins the typed errors for statements the router
// cannot distribute.
func TestRouterExecRejections(t *testing.T) {
	c := startCluster(t, 2)
	ctx := context.Background()
	sess, err := c.router.CreateSession(ctx, map[string]any{})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.router.Exec(ctx, sess, "create table st (k int primary key, v int) shard key (k);"); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name, script string
		code         wire.Code
		mentions     string
	}{
		{"transaction", "begin transaction; insert into st values (1, 2); commit;", wire.CodeUnshardable, "transactions"},
		{"non-literal shard key", "insert into st values (1 + 2, 3);", wire.CodeUnshardable, "literal"},
		{"unknown table", "insert into nosuch values (1);", wire.CodeBadRequest, "nosuch"},
	}
	for _, tc := range cases {
		err := c.router.Exec(ctx, sess, tc.script)
		re, ok := err.(*wire.RemoteError)
		if !ok || re.Code != tc.code {
			t.Errorf("%s: want %s, got %v", tc.name, tc.code, err)
			continue
		}
		if !strings.Contains(re.Message, tc.mentions) {
			t.Errorf("%s: message %q does not mention %q", tc.name, re.Message, tc.mentions)
		}
	}
}

// TestRouterExplainScatterMerge checks that a scatter-merge EXPLAIN shows
// what the shards run: the partial statement under the route line, and the
// shard's plan of that statement rather than of the original text.
func TestRouterExplainScatterMerge(t *testing.T) {
	var explained atomic.Value // the statement shard 0 was asked to explain
	c := startClusterWith(t, 2, func(i int, h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if i == 0 && r.URL.Path == "/explain" {
				var st wire.Statement
				body, _ := io.ReadAll(r.Body)
				_ = json.Unmarshal(body, &st)
				explained.Store(st.SQL)
				r.Body = io.NopCloser(bytes.NewReader(body))
			}
			h.ServeHTTP(w, r)
		})
	})
	ctx := context.Background()
	sess, err := c.router.CreateSession(ctx, map[string]any{})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.router.Exec(ctx, sess, "create table st (k int primary key, g int, v float) shard key (k);"); err != nil {
		t.Fatal(err)
	}
	out, err := c.router.Explain(ctx, sess, "select g, avg(v) from st group by g")
	if err != nil {
		t.Fatal(err)
	}
	route, rest, _ := strings.Cut(out, "\n")
	if !strings.HasPrefix(route, "route: scatter-merge") {
		t.Fatalf("route line %q, want scatter-merge", route)
	}
	partial, _, ok := strings.Cut(rest, "shard 0 plan:")
	if !ok {
		t.Fatalf("no shard plan in:\n%s", out)
	}
	for _, want := range []string{"partial statement:", "sum(st.v) AS agg_1__psum", "count(st.v) AS agg_1__pcnt", "GROUP BY st.g"} {
		if !strings.Contains(partial, want) {
			t.Errorf("EXPLAIN lacks %q:\n%s", want, out)
		}
	}
	if got, _ := explained.Load().(string); !strings.Contains(partial, got) || !strings.Contains(got, "agg_1__psum") {
		t.Errorf("shard explained %q, not the partial statement:\n%s", got, out)
	}
}

// TestRouterMergeOverNestedJoin checks a scatter-merge whose partial
// statement wraps a join in a derived table: the left join exports li.pk
// and pc.pk, and aggregates over pc's columns must read pc's, not li's.
// Half the parts have no cost row, so the two differ.
func TestRouterMergeOverNestedJoin(t *testing.T) {
	const schema = `create table li (k int primary key, pk int, v float)%s;
create table pc (pk int primary key, cost float);
create table p (pk int primary key, name varchar);
`
	var data strings.Builder
	for k := int64(1); k <= 24; k++ {
		insertSQL(&data, "li", storage.Row{sqltypes.NewInt(k), sqltypes.NewInt(k%12 + 1), sqltypes.NewFloat(float64(k))})
	}
	for pk := int64(1); pk <= 12; pk++ {
		if pk <= 6 {
			insertSQL(&data, "pc", storage.Row{sqltypes.NewInt(pk), sqltypes.NewFloat(float64(pk) / 4)})
		}
		insertSQL(&data, "p", storage.Row{sqltypes.NewInt(pk), sqltypes.NewString([]string{"a", "b", "c"}[pk%3])})
	}

	c := startCluster(t, 3)
	ctx := context.Background()
	sess, err := c.router.CreateSession(ctx, map[string]any{})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.router.Exec(ctx, sess, fmt.Sprintf(schema, " shard key (k)")+data.String()); err != nil {
		t.Fatal(err)
	}
	eng := engine.New(engine.SYS1, engine.ModeRewrite)
	if err := eng.ExecScript(fmt.Sprintf(schema, "") + data.String()); err != nil {
		t.Fatal(err)
	}
	baseline := server.NewServiceFromEngine(eng, server.DefaultOptions())
	baseSess := baseline.CreateSession(engine.SYS1, engine.ModeRewrite)

	const from = " from li left outer join pc on li.pk = pc.pk join p on p.pk = li.pk"
	queries := []string{
		"select count(pc.pk), count(li.pk)" + from,
		"select p.name, count(pc.pk), sum(pc.cost), avg(li.v)" + from + " group by p.name",
		"select pc.pk, count(*)" + from + " group by pc.pk",
		"select li.pk, pc.pk, count(*)" + from + " group by li.pk, pc.pk",
	}
	for _, sql := range queries {
		got, err := routerRows(t, c, sess, sql)
		if err != nil {
			t.Errorf("%s: %v", sql, err)
			continue
		}
		want := baselineRows(t, baseline, baseSess, sql)
		if bench.CanonicalRows(got) != bench.CanonicalRows(want) {
			t.Errorf("%s: router %v, single node %v", sql, got, want)
		}
	}
	if snap := c.router.Snapshot(); snap.ScatterMerge != int64(len(queries)) {
		t.Errorf("ScatterMerge = %d, want every statement merged", snap.ScatterMerge)
	}
}
