// Package wire is the one place that knows the shape of udfdecorr's HTTP
// API: the JSON envelope every response rides in, the typed error codes and
// their HTTP statuses, the statement request body, the NDJSON /stream line
// format (stream.go), the one row encoder and the /query reply written with
// it (rows.go), and the client that speaks all of it (client.go).
//
// Every JSON response is one envelope —
// {"v":1, "result":..., "role":"leader", "trace_id":"..."} on success,
// {"v":1, "error":{"code":"READ_ONLY","message":"..."},
// "leader_hint":"http://...", ...} on failure. There is no content
// negotiation: the Accept header is ignored.
//
// The envelope exists because a router cannot compose string-matched
// errors: scatter/gather needs to distinguish "this query is unshardable"
// from "shard 2 is down" from "you are talking to a follower, the leader
// is over there" without parsing prose.
package wire

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
)

// V1 is the envelope's "v" member.
const V1 = 1

// TraceHeader carries a statement's trace ID: on a request the caller's ID
// (the router forwards it to every shard it contacts), on a response the
// effective one, which the envelope's trace_id repeats.
const TraceHeader = "X-Trace-Id"

// Code classifies an error for programmatic routing. Codes are part of the
// wire contract: renaming one is a breaking change.
type Code string

// Typed error codes.
const (
	// CodeBadRequest: the request is malformed or the statement failed (bad
	// JSON, wrong method, unparsable SQL, unknown mode/profile, execution
	// error).
	CodeBadRequest Code = "BAD_REQUEST"
	// CodeUnknownSession: the session id does not exist (expired or bogus).
	CodeUnknownSession Code = "UNKNOWN_SESSION"
	// CodeReadOnly: a write/DDL/transaction hit a read-only follower. The
	// envelope's leader_hint carries the leader base URL when known.
	CodeReadOnly Code = "READ_ONLY"
	// CodeUnshardable: the router's feasibility pass rejected the statement;
	// the message names the unsupported shape.
	CodeUnshardable Code = "UNSHARDABLE"
	// CodeShardUnavailable: a shard could not be reached at all.
	CodeShardUnavailable Code = "SHARD_UNAVAILABLE"
	// CodePartialFailure: a scatter was interrupted mid-flight — some shards
	// answered, at least one failed; no partial results were returned.
	CodePartialFailure Code = "PARTIAL_FAILURE"
	// CodeInternal: everything else (storage faults, failed checkpoints and
	// promotions, replies that are not envelopes).
	CodeInternal Code = "INTERNAL"
)

// HTTPStatus is the one code ↔ status table; every error response of every
// handler takes its status from here.
func (c Code) HTTPStatus() int {
	switch c {
	case CodeBadRequest, CodeUnshardable:
		return http.StatusBadRequest
	case CodeUnknownSession:
		return http.StatusNotFound
	case CodeReadOnly:
		return http.StatusConflict
	case CodeShardUnavailable, CodePartialFailure:
		return http.StatusBadGateway
	default:
		return http.StatusInternalServerError
	}
}

// Error is the structured error member of an envelope.
type Error struct {
	Code    Code   `json:"code"`
	Message string `json:"message"`
}

// Envelope is the single response shape. Exactly one of Result / Error is
// set. Role and LeaderHint describe the responding node's replication
// position; TraceID echoes the request's trace for log correlation.
type Envelope struct {
	V          int             `json:"v"`
	Result     json.RawMessage `json:"result,omitempty"`
	Error      *Error          `json:"error,omitempty"`
	Role       string          `json:"role,omitempty"`
	LeaderHint string          `json:"leader_hint,omitempty"`
	TraceID    string          `json:"trace_id,omitempty"`
}

// OK wraps a result payload in a success envelope.
func OK(result any, role, leaderHint, traceID string) (*Envelope, error) {
	raw, err := json.Marshal(result)
	if err != nil {
		return nil, err
	}
	return &Envelope{V: V1, Result: raw, Role: role, LeaderHint: leaderHint, TraceID: traceID}, nil
}

// Fail wraps a typed error in an error envelope.
func Fail(code Code, msg, role, leaderHint, traceID string) *Envelope {
	return &Envelope{
		V:          V1,
		Error:      &Error{Code: code, Message: msg},
		Role:       role,
		LeaderHint: leaderHint,
		TraceID:    traceID,
	}
}

func writeEnvelope(w http.ResponseWriter, status int, env *Envelope) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(env) // a failed write means the client went away
}

// WriteOK answers a request with a success envelope. role is the responding
// node's; trace_id is whatever the handler put in the TraceHeader response
// header. status is 200 except where the payload itself is the bad news
// (/healthz on a dead replica).
func WriteOK(w http.ResponseWriter, role string, status int, result any) {
	env, err := OK(result, role, "", w.Header().Get(TraceHeader))
	if err != nil {
		WriteError(w, role, &RemoteError{Code: CodeInternal, Message: "encoding result: " + err.Error()})
		return
	}
	writeEnvelope(w, status, env)
}

// WriteError answers a request with e's error envelope and its code's HTTP
// status.
func WriteError(w http.ResponseWriter, role string, e *RemoteError) {
	writeEnvelope(w, e.Code.HTTPStatus(), Fail(e.Code, e.Message, role, e.LeaderHint, w.Header().Get(TraceHeader)))
}

// ReadRequest checks the request's method and, when v is non-nil, parses its
// JSON body into v. On failure it answers BAD_REQUEST itself and returns
// false.
func ReadRequest(w http.ResponseWriter, r *http.Request, role, method string, v any) bool {
	if r.Method != method {
		WriteError(w, role, Errorf(CodeBadRequest, "use %s", method))
		return false
	}
	if v == nil {
		return true
	}
	if err := json.NewDecoder(r.Body).Decode(v); err != nil {
		WriteError(w, role, Errorf(CodeBadRequest, "bad request body: %v", err))
		return false
	}
	return true
}

// RemoteError is a typed wire error: what a handler writes as an error
// envelope or stream trailer and what a client decodes one into. Callers
// route on Code and follow LeaderHint instead of string-matching Message.
type RemoteError struct {
	Code       Code
	Message    string
	LeaderHint string
}

// Error implements the error interface.
func (e *RemoteError) Error() string {
	if e.Code == "" || e.Code == CodeInternal {
		return e.Message
	}
	return fmt.Sprintf("%s: %s", e.Code, e.Message)
}

// Errorf builds a RemoteError from a format string.
func Errorf(code Code, format string, args ...any) *RemoteError {
	return &RemoteError{Code: code, Message: fmt.Sprintf(format, args...)}
}

// AsRemote returns the *RemoteError inside err, or err's text under the
// fallback code when it carries none.
func AsRemote(err error, fallback Code) *RemoteError {
	var re *RemoteError
	if errors.As(err, &re) {
		return re
	}
	return &RemoteError{Code: fallback, Message: err.Error()}
}

// Decode interprets a response body. On a success envelope it unmarshals the
// result into out (when out != nil) and returns nil; on an error envelope it
// returns the *RemoteError. A body that is not an envelope (a proxy's error
// page, a node that is not udfdecorr) is an INTERNAL RemoteError quoting it.
func Decode(body []byte, httpStatus int, out any) error {
	var env Envelope
	if err := json.Unmarshal(body, &env); err != nil || env.V != V1 {
		return Errorf(CodeInternal, "HTTP %d: not a wire envelope: %.200s", httpStatus, strings.TrimSpace(string(body)))
	}
	if env.Error != nil {
		return &RemoteError{Code: env.Error.Code, Message: env.Error.Message, LeaderHint: env.LeaderHint}
	}
	if out == nil || len(env.Result) == 0 {
		return nil
	}
	if err := json.Unmarshal(env.Result, out); err != nil {
		return Errorf(CodeInternal, "HTTP %d: decoding result: %v", httpStatus, err)
	}
	return nil
}

// Statement is the request body of /query, /exec, /stream and /explain. SQL
// and Script are aliases; /exec clients send "script".
type Statement struct {
	Session string `json:"session"`
	SQL     string `json:"sql,omitempty"`
	Script  string `json:"script,omitempty"`
	// ShardPartial selects shard-local partial-aggregate execution
	// (/stream only; the shard router sets it on scatter-merge legs).
	ShardPartial bool `json:"shard_partial,omitempty"`
}

// Text returns whichever of sql/script the client set.
func (q *Statement) Text() string {
	if q.SQL != "" {
		return q.SQL
	}
	return q.Script
}

// QueryResult is the /query result payload. A router fills Cols, Rows and
// RowCount only.
type QueryResult struct {
	Cols       []string   `json:"cols"`
	Rows       [][]string `json:"rows"`
	RowCount   int        `json:"row_count"`
	Rewritten  bool       `json:"rewritten"`
	CacheHit   bool       `json:"cache_hit"`
	ElapsedUS  int64      `json:"elapsed_us"`
	UDFCalls   int64      `json:"udf_calls"`
	PlanBuilds int64      `json:"plan_builds"`
	Morsels    int64      `json:"morsels"`
	Workers    int64      `json:"workers"`
}

// Ack is the result payload of /exec and /session/close.
type Ack struct {
	OK bool `json:"ok"`
}
