package wire

import (
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"udfdecorr/internal/sqltypes"
)

// TestGoldenEnvelopes pins the exact wire bytes. These are a protocol
// contract shared by servers, routers and clients — any diff here is a
// breaking wire change.
func TestGoldenEnvelopes(t *testing.T) {
	cases := []struct {
		name string
		env  *Envelope
		want string
	}{
		{
			name: "success",
			env:  mustOK(t, map[string]any{"ok": true}, "leader", "", "tr-1"),
			want: `{"v":1,"result":{"ok":true},"role":"leader","trace_id":"tr-1"}`,
		},
		{
			name: "read_only_with_leader_hint",
			env:  Fail(CodeReadOnly, "writes, DDL and transactions must go to the leader", "follower", "http://127.0.0.1:8091", "tr-2"),
			want: `{"v":1,"error":{"code":"READ_ONLY","message":"writes, DDL and transactions must go to the leader"},"role":"follower","leader_hint":"http://127.0.0.1:8091","trace_id":"tr-2"}`,
		},
		{
			name: "unshardable",
			env:  Fail(CodeUnshardable, "UDF service_level reads sharded table orders", "", "", ""),
			want: `{"v":1,"error":{"code":"UNSHARDABLE","message":"UDF service_level reads sharded table orders"}}`,
		},
		{
			name: "partial_failure",
			env:  Fail(CodePartialFailure, "shard 2 (http://127.0.0.1:9103) failed mid-scatter", "", "", ""),
			want: `{"v":1,"error":{"code":"PARTIAL_FAILURE","message":"shard 2 (http://127.0.0.1:9103) failed mid-scatter"}}`,
		},
	}
	for _, tc := range cases {
		raw, err := json.Marshal(tc.env)
		if err != nil {
			t.Fatalf("%s: marshal: %v", tc.name, err)
		}
		if string(raw) != tc.want {
			t.Errorf("%s: wire bytes changed\n got: %s\nwant: %s", tc.name, raw, tc.want)
		}
	}

	// /query replies, written by QueryReply from values. Each is also what
	// WriteOK writes for the QueryResult of the cells' String() text.
	const tail = `"row_count":1,"rewritten":false,"cache_hit":false,"elapsed_us":0,"udf_calls":0,"plan_builds":0,"morsels":0,"workers":0},"role":"leader","trace_id":"tr-q"}`
	f := sqltypes.NewFloat
	s := sqltypes.NewString
	queries := []struct {
		name string
		role string
		cols []string
		rows [][]sqltypes.Value
		meta QueryResult
		want string
	}{
		{
			name: "empty_rows",
			role: "leader",
			cols: []string{"k", "v"},
			meta: QueryResult{Rewritten: true, CacheHit: true, ElapsedUS: 97, UDFCalls: 3, PlanBuilds: 1, Morsels: 4, Workers: 2},
			want: `{"v":1,"result":{"cols":["k","v"],"rows":[],"row_count":0,"rewritten":true,"cache_hit":true,"elapsed_us":97,"udf_calls":3,"plan_builds":1,"morsels":4,"workers":2},"role":"leader","trace_id":"tr-q"}`,
		},
		{
			name: "null_and_bools",
			role: "leader",
			cols: []string{"n", "t", "f"},
			rows: [][]sqltypes.Value{{sqltypes.Null, sqltypes.NewBool(true), sqltypes.NewBool(false)}},
			want: `{"v":1,"result":{"cols":["n","t","f"],"rows":[["NULL","TRUE","FALSE"]],` + tail,
		},
		{
			name: "ints",
			role: "leader",
			cols: []string{"a", "b", "c", "d"},
			rows: [][]sqltypes.Value{{sqltypes.NewInt(0), sqltypes.NewInt(-7), sqltypes.NewInt(math.MaxInt64), sqltypes.NewInt(math.MinInt64)}},
			want: `{"v":1,"result":{"cols":["a","b","c","d"],"rows":[["0","-7","9223372036854775807","-9223372036854775808"]],` + tail,
		},
		{
			name: "floats",
			role: "leader",
			cols: []string{"a", "b", "c", "d", "e", "g"},
			rows: [][]sqltypes.Value{{f(2.5), f(math.Copysign(0, -1)), f(math.NaN()), f(math.Inf(1)), f(math.Inf(-1)), f(5e-324)}},
			want: `{"v":1,"result":{"cols":["a","b","c","d","e","g"],"rows":[["2.5","-0","NaN","+Inf","-Inf","5e-324"]],` + tail,
		},
		{
			name: "strings",
			role: "leader",
			cols: []string{"q", "dq", "bs", "html", "ctl", "utf8", "ls"},
			rows: [][]sqltypes.Value{{s("it's"), s(`say "hi"`), s(`a\b`), s("<a&b>"), s("\x00\x1f\t\n"), s("bad \xff"), s("line\u2028sep")}},
			want: `{"v":1,"result":{"cols":["q","dq","bs","html","ctl","utf8","ls"],"rows":[["'it''s'","'say \"hi\"'","'a\\b'","'\u003ca\u0026b\u003e'","'\u0000\u001f\t\n'","'bad \ufffd'","'line\u2028sep'"]],` + tail,
		},
		{
			name: "two_rows_escaped_cols_no_role",
			cols: []string{"a<b", ""},
			rows: [][]sqltypes.Value{{s(""), sqltypes.NewInt(1)}, {s("x"), sqltypes.Null}},
			want: `{"v":1,"result":{"cols":["a\u003cb",""],"rows":[["''","1"],["'x'","NULL"]],"row_count":2,"rewritten":false,"cache_hit":false,"elapsed_us":0,"udf_calls":0,"plan_builds":0,"morsels":0,"workers":0},"trace_id":"tr-q"}`,
		},
	}
	for _, tc := range queries {
		rec := httptest.NewRecorder()
		rec.Header().Set(TraceHeader, "tr-q")
		q := NewQueryReply(tc.cols)
		for _, row := range tc.rows {
			q.ValueRow(row)
		}
		q.Write(rec, tc.role, &tc.meta)
		if got := rec.Body.String(); got != tc.want+"\n" {
			t.Errorf("%s: /query reply bytes changed\n got: %s\nwant: %s", tc.name, got, tc.want)
		}

		old := httptest.NewRecorder()
		old.Header().Set(TraceHeader, "tr-q")
		res := tc.meta
		res.Cols, res.Rows, res.RowCount = tc.cols, make([][]string, 0), len(tc.rows)
		for _, row := range tc.rows {
			cells := make([]string, len(row))
			for i, v := range row {
				cells[i] = v.String()
			}
			res.Rows = append(res.Rows, cells)
		}
		WriteOK(old, tc.role, http.StatusOK, res)
		if rec.Body.String() != old.Body.String() || rec.Header().Get("Content-Type") != old.Header().Get("Content-Type") {
			t.Errorf("%s: QueryReply wrote %s (%q), WriteOK writes %s (%q)", tc.name,
				rec.Body, rec.Header().Get("Content-Type"), old.Body, old.Header().Get("Content-Type"))
		}
	}
}

func mustOK(t *testing.T, result any, role, hint, trace string) *Envelope {
	t.Helper()
	env, err := OK(result, role, hint, trace)
	if err != nil {
		t.Fatal(err)
	}
	return env
}

func TestDecode(t *testing.T) {
	env := Fail(CodeReadOnly, "read-only replica", "follower", "http://leader:1", "")
	raw, _ := json.Marshal(env)
	err := Decode(raw, 403, nil)
	var re *RemoteError
	if !errors.As(err, &re) {
		t.Fatalf("want RemoteError, got %v", err)
	}
	if re.Code != CodeReadOnly || re.LeaderHint != "http://leader:1" {
		t.Fatalf("decoded %+v", re)
	}

	ok := mustOK(t, map[string]int{"n": 7}, "", "", "")
	raw, _ = json.Marshal(ok)
	var out struct {
		N int `json:"n"`
	}
	if err := Decode(raw, 200, &out); err != nil || out.N != 7 {
		t.Fatalf("decode success: %v %+v", err, out)
	}
}

// TestDecodeNotAnEnvelope: a body that is not an envelope — another
// service's error page, a bare legacy-shaped object — is a typed INTERNAL
// error quoting it, whatever the status, never a silent success.
func TestDecodeNotAnEnvelope(t *testing.T) {
	for _, tc := range []struct {
		body   string
		status int
	}{
		{`{"session":"s1"}`, 200},
		{`{"error":"unknown session"}`, 404},
		{`<html>502 Bad Gateway</html>`, 502},
		{``, 200},
		{`{"v":0,"result":{}}`, 200},
	} {
		var out struct {
			Session string `json:"session"`
		}
		err := Decode([]byte(tc.body), tc.status, &out)
		var re *RemoteError
		if !errors.As(err, &re) || re.Code != CodeInternal || out.Session != "" {
			t.Errorf("Decode(%q, %d) = %v (out %+v), want INTERNAL", tc.body, tc.status, err, out)
		}
		if tc.body != "" && !strings.Contains(re.Message, tc.body) {
			t.Errorf("Decode(%q): message %q does not quote the body", tc.body, re.Message)
		}
	}
}

// TestCodeStatusTable pins the one code ↔ HTTP status table.
func TestCodeStatusTable(t *testing.T) {
	for code, want := range map[Code]int{
		CodeBadRequest: 400, CodeUnshardable: 400, CodeUnknownSession: 404, CodeReadOnly: 409,
		CodeShardUnavailable: 502, CodePartialFailure: 502, CodeInternal: 500, "": 500,
	} {
		if got := code.HTTPStatus(); got != want {
			t.Errorf("%q.HTTPStatus() = %d, want %d", code, got, want)
		}
	}
}
