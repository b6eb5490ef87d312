package wire

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"net/http/httptest"
	"reflect"
	"testing"
	"unicode/utf8"

	"udfdecorr/internal/sqltypes"
)

// Seeds are replies captured from server.NewHandler and shard.NewHandler.
var envelopeSeeds = []string{
	`{"v":1,"result":{"session":"s1","mode":"rewrite","profile":"SYS1","vectorized":false,"parallelism":0,"timeout_ms":0},"role":"leader"}`,
	`{"v":1,"result":{"cols":["k","v"],"rows":[["1","'a'"],["2","'b'"]],"row_count":2,"rewritten":true,"cache_hit":false,"elapsed_us":97,"udf_calls":0,"plan_builds":0,"morsels":0,"workers":0},"role":"leader","trace_id":"t-1"}`,
	`{"v":1,"result":{"ok":true},"role":"leader"}`,
	`{"v":1,"error":{"code":"UNKNOWN_SESSION","message":"unknown session \"nope\""},"role":"leader"}`,
	`{"v":1,"error":{"code":"READ_ONLY","message":"read-only replica: writes, DDL and transactions must go to the leader"},"role":"follower","leader_hint":"http://127.0.0.1:8093"}`,
	`{"v":1,"result":{"session":"rs-1","shards":2},"role":"router","trace_id":"t-1"}`,
	`{"v":1,"error":{"code":"UNSHARDABLE","message":"ORDER BY over a sharded table cannot be merged from concatenated shard streams"},"role":"router","trace_id":"t-1"}`,
	`{"v":1,"error":{"code":"SHARD_UNAVAILABLE","message":"scatter leg 1: shard http://127.0.0.1:37847: Post \"http://127.0.0.1:37847/stream\": dial tcp 127.0.0.1:37847: connect: connection refused"},"role":"router"}`,
	`{"error":"unknown session"}`,
	`<html>502 Bad Gateway</html>`,
}

var streamSeeds = []string{
	`{"cols":["k","v"],"rewritten":true,"cache_hit":true}`,
	`{"cols":["k","v"],"rewritten":false,"cache_hit":false}`,
	`{"row":["1","'a'"]}`,
	`{"row":["1","NULL","2.5","'it''s'"]}`,
	`{"done":true,"row_count":3,"elapsed_us":89}`,
	`{"done":true,"row_count":21000,"elapsed_us":51234,"udf_calls":21000,"morsels":6,"workers":4}`,
	`{"done":true}`,
	`{"error":"division by zero","code":"BAD_REQUEST"}`,
	`{"error":"scatter leg 1 failed after 7 gathered rows: boom","code":"PARTIAL_FAILURE"}`,
	`{"error":"read-only replica","code":"READ_ONLY","leader_hint":"http://127.0.0.1:8093"}`,
	`{"row":["a<b","x&y","p>q","<&>"]}`,
	`{"row":["line\u2028sep","para\u2029sep"]}`,
	`{"row":["bad \ufffd","\u0000\u0001\t\n\r\u001f","quote\" back\\ slash"]}`,
	`{"row":["","'it''s'",""]}`,
	`{"row":[]}`,
}

// FuzzDecode: Decode never panics and every failure is typed; a body whose
// envelope has "error" set yields that error's code, message and hint; and
// what OK/Fail encode, Decode reads back.
func FuzzDecode(f *testing.F) {
	for _, s := range envelopeSeeds {
		f.Add([]byte(s), 200, "msg", "http://leader:1")
	}
	f.Fuzz(func(t *testing.T, body []byte, status int, msg, hint string) {
		var out any
		err := Decode(body, status, &out)
		var re *RemoteError
		if err != nil && !errors.As(err, &re) {
			t.Fatalf("Decode(%q) failed untyped: %v", body, err)
		}
		var env Envelope
		if json.Unmarshal(body, &env) == nil && env.V == V1 && env.Error != nil {
			want := RemoteError{Code: env.Error.Code, Message: env.Error.Message, LeaderHint: env.LeaderHint}
			if re == nil || *re != want {
				t.Fatalf("Decode(%q) = %v, want %+v", body, err, want)
			}
		}

		if !utf8.ValidString(msg) || !utf8.ValidString(hint) {
			return // encoding/json replaces invalid bytes, so no round trip
		}
		raw, err := json.Marshal(Fail(CodeReadOnly, msg, "follower", hint, "t"))
		if err != nil {
			t.Fatal(err)
		}
		err = Decode(raw, CodeReadOnly.HTTPStatus(), nil)
		if !errors.As(err, &re) || *re != (RemoteError{Code: CodeReadOnly, Message: msg, LeaderHint: hint}) {
			t.Fatalf("Fail round trip of (%q, %q) = %v", msg, hint, err)
		}
		okEnv, err := OK(Statement{Session: hint, SQL: msg}, "leader", "", "t")
		if err != nil {
			t.Fatal(err)
		}
		raw, err = json.Marshal(okEnv)
		if err != nil {
			t.Fatal(err)
		}
		var back Statement
		if err := Decode(raw, 200, &back); err != nil || back != (Statement{Session: hint, SQL: msg}) {
			t.Fatalf("OK round trip of (%q, %q) = %+v, %v", msg, hint, back, err)
		}
	})
}

// reencode writes a decoded line back through StreamWriter and returns the
// bytes it put on the wire for that line. The writer buffers, so the
// recorder is read only after the trailer or Close; the header line that
// precedes a row or trailer is cut off.
func reencode(t *testing.T, l StreamLine) []byte {
	rec := httptest.NewRecorder()
	var h StreamHeader
	if l.Header != nil {
		h = *l.Header
	}
	sw := NewStreamWriter(rec, h)
	switch {
	case l.Header != nil:
		sw.Close()
		return rec.Body.Bytes()
	case l.Trailer != nil && l.Trailer.Done:
		sw.rows = l.Trailer.RowCount
		sw.Done(*l.Trailer)
	case l.Trailer != nil:
		sw.Fail(&RemoteError{Code: l.Trailer.Code, Message: l.Trailer.Error, LeaderHint: l.Trailer.LeaderHint})
	default:
		if err := sw.Row(l.Row); err != nil {
			t.Fatal(err)
		}
		sw.Close()
	}
	_, line, _ := bytes.Cut(rec.Body.Bytes(), []byte("\n"))
	return line
}

// FuzzStreamLine: decoding never panics, and a line that decodes survives
// the writer and a second decode unchanged (a failure trailer keeps the three
// members a failure trailer has). A row line the writer emits is byte for
// byte what encoding/json writes for it, which NDJSON readers that digest
// lines rely on.
func FuzzStreamLine(f *testing.F) {
	for _, s := range streamSeeds {
		f.Add([]byte(s))
	}
	f.Add([]byte("{\"row\":[\"invalid \xff\xfe utf-8\",\"ctl \x7f\"]}"))
	f.Fuzz(func(t *testing.T, line []byte) {
		// Any bytes as a cell, valid UTF-8 or not.
		cells := []string{string(line), ""}
		checkRowBytes(t, cells, reencode(t, StreamLine{Row: cells}))

		first, err := DecodeStreamLine(line)
		if err != nil {
			return
		}
		if n := btoi(first.Header != nil) + btoi(first.Row != nil) + btoi(first.Trailer != nil); n != 1 {
			t.Fatalf("DecodeStreamLine(%q) set %d members", line, n)
		}
		want := first
		if tr := first.Trailer; tr != nil && !tr.Done {
			want.Trailer = &StreamTrailer{Error: tr.Error, Code: tr.Code, LeaderHint: tr.LeaderHint}
		}
		wireBytes := reencode(t, first)
		if first.Row != nil {
			checkRowBytes(t, first.Row, wireBytes)
		}
		second, err := DecodeStreamLine(wireBytes)
		if err != nil {
			t.Fatalf("re-encoded %q as %q, which does not decode: %v", line, wireBytes, err)
		}
		if !reflect.DeepEqual(second, want) {
			t.Fatalf("%q -> %+v -> %q -> %+v", line, want, wireBytes, second)
		}
	})
}

// FuzzAppendRow: the row encoder writes exactly what encoding/json writes
// for the []string form of a row, from values of every kind (AppendValueRow)
// and from text cells (AppendRow), after whatever the buffer already held.
func FuzzAppendRow(f *testing.F) {
	f.Add("it's", int64(-7), math.Float64bits(2.5), true)
	f.Add("<a&b>\u2028\"\\", int64(math.MinInt64), math.Float64bits(math.Copysign(0, -1)), false)
	f.Add("\x00\x1f bad \xff\xfe", int64(math.MaxInt64), math.Float64bits(math.NaN()), false)
	f.Add("", int64(0), math.Float64bits(5e-324), true)
	f.Add("plain", int64(10), math.Float64bits(math.Inf(-1)), true)
	f.Fuzz(func(t *testing.T, s string, i int64, bits uint64, b bool) {
		row := []sqltypes.Value{sqltypes.NewString(s), sqltypes.NewInt(i),
			sqltypes.NewFloat(math.Float64frombits(bits)), sqltypes.NewBool(b), sqltypes.Null}
		cells := make([]string, 0, len(row)+1)
		for _, v := range row {
			cells = append(cells, v.String())
		}
		want, err := json.Marshal(cells)
		if err != nil {
			t.Fatal(err)
		}
		prefix := []byte(`{"row":`)
		if got := AppendValueRow(prefix, row); string(got) != string(prefix)+string(want) {
			t.Fatalf("AppendValueRow(%q) = %q, encoding/json writes %q", cells, got, want)
		}
		cells = append(cells, s) // a relayed cell can hold any text
		if want, err = json.Marshal(cells); err != nil {
			t.Fatal(err)
		}
		if got := AppendRow(prefix, cells); string(got) != string(prefix)+string(want) {
			t.Fatalf("AppendRow(%q) = %q, encoding/json writes %q", cells, got, want)
		}
	})
}

// checkRowBytes fails t unless got is what encoding/json writes for the row
// line of cells.
func checkRowBytes(t *testing.T, cells []string, got []byte) {
	want, err := json.Marshal(struct {
		Row []string `json:"row"`
	}{cells})
	if err != nil {
		t.Fatal(err)
	}
	if want = append(want, '\n'); !bytes.Equal(got, want) {
		t.Fatalf("row %q encoded as %q, encoding/json writes %q", cells, got, want)
	}
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}
