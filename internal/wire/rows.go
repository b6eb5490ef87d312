package wire

import (
	"encoding/json"
	"net/http"
	"strconv"
	"sync"

	"udfdecorr/internal/sqltypes"
)

// The one row encoder. Every result row on the wire — an element of a
// /query reply's "rows" member or a /stream row line's "row" — is a JSON
// array of its cells' SQL literal text. A node appends each value's text
// straight into the reply buffer (AppendValueRow); a router relays the text
// cells its shards sent (AppendRow). Either way the bytes are what
// encoding/json writes for the []string form of the row.

// AppendRow appends cells as a JSON array of strings.
func AppendRow(b []byte, cells []string) []byte {
	b = append(b, '[')
	for i, c := range cells {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendString(b, c)
	}
	return append(b, ']')
}

// AppendValueRow appends row as a JSON array of its values' SQL literal
// text (sqltypes.Value.AppendText), with no string built per cell.
func AppendValueRow(b []byte, row []sqltypes.Value) []byte {
	b = append(b, '[')
	for i, v := range row {
		if i > 0 {
			b = append(b, ',')
		}
		open := len(b)
		b = closeString(v.AppendText(append(b, '"')), open)
	}
	return append(b, ']')
}

// appendString appends s as a JSON string.
func appendString(b []byte, s string) []byte {
	open := len(b)
	return closeString(append(append(b, '"'), s...), open)
}

// closeString ends the JSON string that opens with the quote at b[open] and
// holds the raw text after it. Text with any byte encoding/json would escape
// or validate (control bytes, non-ASCII, the quote, the backslash and the
// HTML characters <, > and &) is written again by json.Marshal, so the
// output always matches it.
func closeString(b []byte, open int) []byte {
	for _, c := range b[open+1:] {
		if c < 0x20 || c >= 0x80 || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(string(b[open+1:])) // a string always encodes
			return append(b[:open], q...)
		}
	}
	return append(b, '"')
}

// QueryReply writes one /query success envelope by hand, rows included, into
// a pooled buffer: byte for byte what WriteOK writes for the same
// QueryResult, without building the rows as strings first.
//
//	q := wire.NewQueryReply(cols)
//	for ... { q.ValueRow(row) }      // or q.Row(cells)
//	q.Write(w, role, meta)           // or q.Discard() when the drain failed
//
// A QueryReply must not be used after Write or Discard.
type QueryReply struct {
	buf  []byte
	rows int
}

// maxPooledReply caps the buffers replyPool keeps: one that a large result
// grew past it is dropped, so a few big replies do not keep the heap large.
const maxPooledReply = 64 << 10

var replyPool = sync.Pool{New: func() any { return &QueryReply{buf: make([]byte, 0, 4<<10)} }}

// NewQueryReply starts a reply whose result has columns cols.
func NewQueryReply(cols []string) *QueryReply {
	q := replyPool.Get().(*QueryReply)
	q.rows = 0
	q.buf = append(q.buf[:0], `{"v":1,"result":{"cols":`...)
	if cols == nil {
		q.buf = append(q.buf, "null"...)
	} else {
		q.buf = AppendRow(q.buf, cols)
	}
	q.buf = append(q.buf, `,"rows":[`...)
	return q
}

// Row appends one row of text cells.
func (q *QueryReply) Row(cells []string) {
	q.sep()
	q.buf = AppendRow(q.buf, cells)
}

// ValueRow appends one row written straight from its values.
func (q *QueryReply) ValueRow(row []sqltypes.Value) {
	q.sep()
	q.buf = AppendValueRow(q.buf, row)
}

func (q *QueryReply) sep() {
	if q.rows > 0 {
		q.buf = append(q.buf, ',')
	}
	q.rows++
}

// Write ends the envelope and answers w with it, status 200. meta supplies
// every result member after the rows but row_count, which counts the rows
// written; its Cols, Rows and RowCount are ignored. trace_id is whatever the
// handler put in the TraceHeader response header, as in WriteOK.
func (q *QueryReply) Write(w http.ResponseWriter, role string, meta *QueryResult) {
	b := append(q.buf, `],"row_count":`...)
	b = strconv.AppendInt(b, int64(q.rows), 10)
	b = strconv.AppendBool(append(b, `,"rewritten":`...), meta.Rewritten)
	b = strconv.AppendBool(append(b, `,"cache_hit":`...), meta.CacheHit)
	b = strconv.AppendInt(append(b, `,"elapsed_us":`...), meta.ElapsedUS, 10)
	b = strconv.AppendInt(append(b, `,"udf_calls":`...), meta.UDFCalls, 10)
	b = strconv.AppendInt(append(b, `,"plan_builds":`...), meta.PlanBuilds, 10)
	b = strconv.AppendInt(append(b, `,"morsels":`...), meta.Morsels, 10)
	b = strconv.AppendInt(append(b, `,"workers":`...), meta.Workers, 10)
	b = append(b, '}')
	// The envelope members with omitempty; a success has no leader_hint.
	if role != "" {
		b = appendString(append(b, `,"role":`...), role)
	}
	if id := w.Header().Get(TraceHeader); id != "" {
		b = appendString(append(b, `,"trace_id":`...), id)
	}
	q.buf = append(b, "}\n"...)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(q.buf) // a failed write means the client went away
	q.Discard()
}

// Discard drops the reply unsent and returns its buffer to the pool.
func (q *QueryReply) Discard() {
	if cap(q.buf) <= maxPooledReply {
		replyPool.Put(q)
	}
}
