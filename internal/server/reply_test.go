package server_test

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"regexp"
	"testing"

	"udfdecorr/internal/bench"
	"udfdecorr/internal/engine"
	"udfdecorr/internal/server"
	"udfdecorr/internal/wire"
)

// maskVolatile blanks the members that differ between two runs of one
// statement: its wall time and its trace id.
var maskVolatile = regexp.MustCompile(`"(elapsed_us|trace_id)":("[^"]*"|\d+)`)

// TestReplyBytesMatchJSONEncoding runs the shared corpus through /query and
// /stream, on both executors, and compares each body byte for byte with what
// encoding/json writes for the same result (a wire.QueryResult in the
// envelope; the header, one {"row":[...]} per row and the trailer), with the
// cells rendered by sqltypes.Value.String.
func TestReplyBytesMatchJSONEncoding(t *testing.T) {
	svc := newBenchService(t, server.DefaultOptions())
	h := server.NewHandler(svc)
	for _, vectorized := range []bool{false, true} {
		profile := engine.SYS1
		profile.Vectorized = vectorized
		sess := svc.CreateSession(profile, engine.ModeRewrite)
		for _, q := range bench.Corpus {
			// Warm the plan cache so the reply and the reference both hit it.
			res, err := svc.Query(sess, q.SQL)
			if err != nil {
				t.Fatalf("%s: %v", q.Name, err)
			}
			body, _ := json.Marshal(wire.Statement{Session: sess.ID, SQL: q.SQL})

			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/query", bytes.NewReader(body)))
			if res, err = svc.Query(sess, q.SQL); err != nil {
				t.Fatalf("%s: %v", q.Name, err)
			}
			rows := make([][]string, len(res.Rows))
			for i, row := range res.Rows {
				rows[i] = make([]string, len(row))
				for j, v := range row {
					rows[i][j] = v.String()
				}
			}
			ref := httptest.NewRecorder()
			ref.Header().Set(wire.TraceHeader, rec.Header().Get(wire.TraceHeader))
			wire.WriteOK(ref, string(svc.Role()), http.StatusOK, wire.QueryResult{
				Cols: res.Cols, Rows: rows, RowCount: len(rows), Rewritten: res.Rewritten, CacheHit: res.CacheHit,
				UDFCalls: res.Counters.UDFCalls, PlanBuilds: res.Counters.PlanBuilds,
				Morsels: res.Counters.Morsels, Workers: res.Counters.Workers,
			})
			compareMasked(t, q.Name+" /query", rec.Body.Bytes(), ref.Body.Bytes())

			rec = httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/stream", bytes.NewReader(body)))
			var want bytes.Buffer
			enc := json.NewEncoder(&want)
			_ = enc.Encode(wire.StreamHeader{Cols: res.Cols, Rewritten: res.Rewritten, CacheHit: true})
			for _, row := range rows {
				_ = enc.Encode(struct {
					Row []string `json:"row"`
				}{row})
			}
			_ = enc.Encode(wire.StreamTrailer{Done: true, RowCount: len(rows), ElapsedUS: 1,
				UDFCalls: res.Counters.UDFCalls, Morsels: res.Counters.Morsels, Workers: res.Counters.Workers})
			compareMasked(t, q.Name+" /stream", rec.Body.Bytes(), want.Bytes())
		}
	}
}

func compareMasked(t *testing.T, name string, got, want []byte) {
	t.Helper()
	g, w := maskVolatile.ReplaceAll(got, []byte(`"$1`)), maskVolatile.ReplaceAll(want, []byte(`"$1`))
	if !bytes.Equal(g, w) {
		t.Errorf("%s: reply bytes differ from encoding/json's\n got: %.600s\nwant: %.600s", name, g, w)
	}
}

// benchReply serves sql through the handler b.N times, each reply written to
// a recorder that discards the body.
func benchReply(b *testing.B, path, sql string) {
	svc := newBenchService(b, server.DefaultOptions())
	h := server.NewHandler(svc)
	body, _ := json.Marshal(wire.Statement{SQL: sql})
	serve := func() {
		rec := httptest.NewRecorder()
		rec.Body = nil
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			b.Fatalf("%s %q: HTTP %d", path, sql, rec.Code)
		}
	}
	serve() // plan and cache the statement
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serve()
	}
}

// BenchmarkQueryReply serves a one-row point statement through /query: the
// reply path of hot_statements (session, cached plan, an index lookup, the
// envelope).
func BenchmarkQueryReply(b *testing.B) {
	benchReply(b, "/query", "select orderkey, custkey, totalprice from orders where orderkey = 7")
}

// BenchmarkStreamReply streams all 2 000 orders of the small dataset with a
// UDF column through /stream: the statement shape of stream_export, whose
// cost is mostly encoding rows.
func BenchmarkStreamReply(b *testing.B) {
	benchReply(b, "/stream", "select orderkey, custkey, totalprice, discount(totalprice, custkey) from orders")
}
