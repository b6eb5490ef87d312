package main

import (
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"udfdecorr/internal/engine"
	"udfdecorr/internal/repl"
	"udfdecorr/internal/server"
	"udfdecorr/internal/wire"
)

// TestPromoteEndpointSpeaksTheEnvelope: /repl/promote answers like every
// other JSON endpoint — a v1 envelope with the node's role, no Accept header
// needed, statuses from wire's table.
func TestPromoteEndpointSpeaksTheEnvelope(t *testing.T) {
	e := engine.New(engine.SYS1, engine.ModeRewrite)
	svc := server.NewService(e.Cat, e.Store, server.DefaultOptions())
	status := func() repl.Status { return repl.Status{AppliedRecords: 42} }
	svc.SetFollower("http://leader:8080", status)
	var gotDir string
	fail := true
	h := promoteHandler(svc, status, "/default/dir", func(dir string) (int64, error) {
		gotDir = dir
		if fail {
			return 0, errors.New("catch-up failed")
		}
		svc.Promote()
		return 7, nil
	})

	call := func(method, body string) (int, wire.Envelope) {
		t.Helper()
		rec := httptest.NewRecorder()
		h(rec, httptest.NewRequest(method, "/repl/promote", strings.NewReader(body)))
		var env wire.Envelope
		if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil || env.V != wire.V1 {
			t.Fatalf("%s /repl/promote: not a v1 envelope: %s", method, rec.Body)
		}
		return rec.Code, env
	}

	if code, env := call(http.MethodGet, ""); code != 400 || env.Error == nil || env.Error.Code != wire.CodeBadRequest {
		t.Errorf("GET = %d %+v, want 400 BAD_REQUEST", code, env.Error)
	}
	if code, env := call(http.MethodPost, ""); code != 500 || env.Error == nil || env.Error.Code != wire.CodeInternal || env.Role != "follower" {
		t.Errorf("failed promotion = %d %+v role %q, want 500 INTERNAL from a follower", code, env.Error, env.Role)
	}
	if gotDir != "/default/dir" {
		t.Errorf("empty body promoted with dir %q, want the -catchup-dir default", gotDir)
	}
	fail = false
	code, env := call(http.MethodPost, `{"catchup_dir":"/explicit"}`)
	var res struct {
		Role           string `json:"role"`
		CatchupRecords int64  `json:"catchup_records"`
		AppliedRecords int64  `json:"applied_records"`
	}
	if err := json.Unmarshal(env.Result, &res); err != nil {
		t.Fatal(err)
	}
	if code != 200 || env.Role != "leader" || gotDir != "/explicit" ||
		res.Role != "leader" || res.CatchupRecords != 7 || res.AppliedRecords != 42 {
		t.Errorf("promotion = %d role %q dir %q result %+v", code, env.Role, gotDir, res)
	}
}
