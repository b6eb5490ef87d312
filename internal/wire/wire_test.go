package wire

import (
	"encoding/json"
	"errors"
	"strings"
	"testing"
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
