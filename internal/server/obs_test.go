package server_test

// Observability-layer tests: the /metrics Prometheus exposition (parses, and
// agrees with /stats because both read the same live sources), the
// structured slow-query log with trace IDs, trace-ID propagation over HTTP,
// and EXPLAIN ANALYZE through /explain?analyze=1.

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"udfdecorr/internal/engine"
	"udfdecorr/internal/server"
	"udfdecorr/internal/sqltypes"
	"udfdecorr/internal/storage"
	"udfdecorr/internal/wire"
)

// scrapeMetrics GETs /metrics and parses every sample line into a
// series-name -> value map, failing the test on any unparsable line.
func scrapeMetrics(t *testing.T, url string) map[string]float64 {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("GET /metrics: Content-Type = %q", ct)
	}
	samples := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, valStr, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("unparsable /metrics line: %q", line)
		}
		val, err := strconv.ParseFloat(valStr, 64)
		if err != nil {
			t.Fatalf("bad value in /metrics line %q: %v", line, err)
		}
		samples[name] = val
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return samples
}

func getStats(t *testing.T, url string) server.Stats {
	t.Helper()
	var st server.Stats
	if err := wire.NewClient(url).Get(context.Background(), "/stats", &st); err != nil {
		t.Fatal(err)
	}
	return st
}

// TestMetricsAgreeWithStats drives concurrent query load (with /metrics
// scrapes racing it), then asserts the settled /metrics exposition reports
// exactly the numbers /stats reports — both surfaces read the same sources.
func TestMetricsAgreeWithStats(t *testing.T) {
	svc := newBenchService(t, server.DefaultOptions())
	ts := httptest.NewServer(server.NewHandler(svc))
	defer ts.Close()

	const workers, perWorker = 4, 10
	stopScrape := make(chan struct{})
	var scrapeWG sync.WaitGroup
	scrapeWG.Add(1)
	go func() { // concurrent scrapes must stay parseable mid-load
		defer scrapeWG.Done()
		for {
			select {
			case <-stopScrape:
				return
			default:
				resp, err := http.Get(ts.URL + "/metrics")
				if err == nil {
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
				}
			}
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sess := svc.CreateSession(engine.SYS1, engine.ModeRewrite)
			defer svc.CloseSession(sess.ID)
			for i := 0; i < perWorker; i++ {
				if _, err := svc.QueryContext(context.Background(), sess,
					"select custkey, lvl(custkey) from customer where custkey < 20"); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(stopScrape)
	scrapeWG.Wait()

	// A key range over a three-segment table skips two segments by zone.
	sess := svc.CreateSession(engine.SYS1, engine.ModeRewrite)
	if err := svc.Exec(sess, "create table zoned (k int)"); err != nil {
		t.Fatal(err)
	}
	zoned := make([]storage.Row, 3*storage.SegmentRows)
	for i := range zoned {
		zoned[i] = storage.Row{sqltypes.NewInt(int64(i))}
	}
	if err := svc.Store().MustTable("zoned").Append(zoned...); err != nil {
		t.Fatal(err)
	}
	if res, err := svc.Query(sess, "select k from zoned where k < 10"); err != nil || len(res.Rows) != 10 {
		t.Fatalf("zoned scan: %v rows, err %v", res, err)
	}

	st := getStats(t, ts.URL)
	m := scrapeMetrics(t, ts.URL)
	if st.Storage.SegmentsSkipped < 2 {
		t.Errorf("segments_skipped = %d, want >= 2", st.Storage.SegmentsSkipped)
	}

	var queriesByMode float64
	for mode, n := range st.QueriesByMode {
		series := fmt.Sprintf(`udfd_queries_total{mode="%s"}`, mode)
		got, ok := m[series]
		if !ok {
			t.Errorf("missing %s in /metrics", series)
			continue
		}
		if got != float64(n) {
			t.Errorf("%s = %v, /stats says %d", series, got, n)
		}
		queriesByMode += got
	}
	if queriesByMode < workers*perWorker {
		t.Errorf("queries_total sums to %v, ran %d", queriesByMode, workers*perWorker)
	}
	for series, want := range map[string]float64{
		"udfd_query_errors_total":              float64(st.QueryErrors),
		"udfd_queries_cancelled_total":         float64(st.QueriesCancelled),
		"udfd_plan_cache_hits_total":           float64(st.Cache.Hits),
		"udfd_plan_cache_misses_total":         float64(st.Cache.Misses),
		"udfd_query_duration_seconds_count":    float64(st.QueryLatency.Count),
		"udfd_slow_queries_total":              float64(st.SlowQueries),
		"udfd_catalog_version":                 float64(st.CatalogVersion),
		"udfd_storage_index_rows_hashed_total": float64(st.Storage.IndexRowsHashed),
		"udfd_segments_skipped_total":          float64(st.Storage.SegmentsSkipped),
	} {
		if m[series] != want {
			t.Errorf("%s = %v, /stats says %v", series, m[series], want)
		}
	}
	if m["udfd_query_duration_seconds_count"] < float64(workers*perWorker) {
		t.Errorf("query duration histogram count = %v, ran %d queries",
			m["udfd_query_duration_seconds_count"], workers*perWorker)
	}
	if m[`udfd_query_duration_seconds_bucket{le="+Inf"}`] != m["udfd_query_duration_seconds_count"] {
		t.Errorf("+Inf bucket %v != _count %v",
			m[`udfd_query_duration_seconds_bucket{le="+Inf"}`], m["udfd_query_duration_seconds_count"])
	}
	if st.QueryLatency.P50Micro <= 0 || st.QueryLatency.P99Micro < st.QueryLatency.P50Micro {
		t.Errorf("implausible latency quantiles: %+v", st.QueryLatency)
	}
}

// TestSlowQueryLog sets a sub-microsecond threshold so every query is slow,
// and asserts the structured log line carries the trace ID, SQL and row
// count, and that the slow-query counter moved.
func TestSlowQueryLog(t *testing.T) {
	var buf bytes.Buffer
	opts := server.DefaultOptions()
	opts.SlowQueryThreshold = time.Nanosecond
	opts.Logger = slog.New(slog.NewTextHandler(&buf, nil))
	svc := newBenchService(t, opts)

	sess := svc.CreateSession(engine.SYS1, engine.ModeRewrite)
	ctx := server.WithTraceID(context.Background(), "test-trace-42")
	res, err := svc.QueryContext(ctx, sess, "select custkey from customer where custkey < 5")
	if err != nil {
		t.Fatal(err)
	}
	if res.TraceID != "test-trace-42" {
		t.Fatalf("TraceID = %q, want the caller's", res.TraceID)
	}
	out := buf.String()
	for _, want := range []string{"slow query", "trace_id=test-trace-42", "sql=", "rows=4", "elapsed="} {
		if !strings.Contains(out, want) {
			t.Errorf("slow-query log missing %q:\n%s", want, out)
		}
	}
	if st := svc.Stats(); st.SlowQueries < 1 {
		t.Errorf("SlowQueries = %d, want >= 1", st.SlowQueries)
	}
}

// TestSlowQueryThresholdOff asserts the default (0) threshold logs nothing.
func TestSlowQueryThresholdOff(t *testing.T) {
	var buf bytes.Buffer
	opts := server.DefaultOptions()
	opts.Logger = slog.New(slog.NewTextHandler(&buf, nil))
	svc := newBenchService(t, opts)
	sess := svc.CreateSession(engine.SYS1, engine.ModeRewrite)
	if _, err := svc.QueryContext(context.Background(), sess, "select custkey from customer where custkey < 5"); err != nil {
		t.Fatal(err)
	}
	if s := buf.String(); strings.Contains(s, "slow query") {
		t.Errorf("slow-query log emitted with threshold off:\n%s", s)
	}
	if st := svc.Stats(); st.SlowQueries != 0 {
		t.Errorf("SlowQueries = %d, want 0", st.SlowQueries)
	}
}

// TestHTTPTraceIDPropagation pins the header contract: a caller-supplied
// X-Trace-Id is adopted and echoed; without one the server generates an ID.
func TestHTTPTraceIDPropagation(t *testing.T) {
	svc := newBenchService(t, server.DefaultOptions())
	ts := httptest.NewServer(server.NewHandler(svc))
	defer ts.Close()

	post := func(path, body, traceID string) *http.Response {
		t.Helper()
		req, err := http.NewRequest(http.MethodPost, ts.URL+path, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		if traceID != "" {
			req.Header.Set("X-Trace-Id", traceID)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	body := `{"sql":"select custkey from customer where custkey < 3"}`
	resp := post("/query", body, "load-test-7")
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if got := resp.Header.Get("X-Trace-Id"); got != "load-test-7" {
		t.Errorf("/query echoed X-Trace-Id %q, want load-test-7", got)
	}

	resp = post("/query", body, "")
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if got := resp.Header.Get("X-Trace-Id"); got == "" {
		t.Error("/query without X-Trace-Id: no generated trace ID on response")
	}

	resp = post("/stream", body, "stream-trace-1")
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if got := resp.Header.Get("X-Trace-Id"); got != "stream-trace-1" {
		t.Errorf("/stream echoed X-Trace-Id %q, want stream-trace-1", got)
	}
}

// TestHTTPExplainAnalyze asserts /explain?analyze=1 executes the query and
// returns the per-operator annotated tree, while plain /explain does not.
func TestHTTPExplainAnalyze(t *testing.T) {
	svc := newBenchService(t, server.DefaultOptions())
	ts := httptest.NewServer(server.NewHandler(svc))
	defer ts.Close()

	post := func(path string) string {
		t.Helper()
		var out struct {
			Explain string `json:"explain"`
		}
		err := wire.NewClient(ts.URL).Post(context.Background(), path,
			wire.Statement{SQL: "select custkey, lvl(custkey) from customer where custkey < 10"}, &out)
		if err != nil {
			t.Fatalf("POST %s: %v", path, err)
		}
		return out.Explain
	}

	plain := post("/explain")
	if strings.Contains(plain, "rows=") {
		t.Errorf("plain /explain carries runtime stats:\n%s", plain)
	}
	analyzed := post("/explain?analyze=1")
	for _, want := range []string{"rows=", "time="} {
		if !strings.Contains(analyzed, want) {
			t.Errorf("/explain?analyze=1 missing %q:\n%s", want, analyzed)
		}
	}
}
