package wire

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"time"

	"udfdecorr/internal/sqltypes"
)

// The /stream response is NDJSON outside the envelope (Content-Type
// application/x-ndjson, one JSON object per line):
//
//	{"cols":["k","v"],"rewritten":true,"cache_hit":false}   header, first line
//	{"row":["1","'a'"]}                                     one line per row
//	{"done":true,"row_count":2,"elapsed_us":1234,...}       trailer on success
//	{"error":"...","code":"...","leader_hint":"..."}        trailer on failure
//
// A failure before the first line is an ordinary error envelope instead.

// StreamHeader is the first line of a /stream response.
type StreamHeader struct {
	Cols      []string `json:"cols"`
	Rewritten bool     `json:"rewritten"`
	CacheHit  bool     `json:"cache_hit"`
}

// streamRow is one result row line.
type streamRow struct {
	Row []string `json:"row"`
}

// StreamTrailer terminates a /stream response: Done with summary metadata on
// success, Error with its typed Code otherwise (including "context canceled"
// when the session timeout fired — the client sees why its stream stopped
// short).
type StreamTrailer struct {
	Done       bool   `json:"done,omitempty"`
	RowCount   int    `json:"row_count,omitempty"`
	ElapsedUS  int64  `json:"elapsed_us,omitempty"`
	UDFCalls   int64  `json:"udf_calls,omitempty"`
	Morsels    int64  `json:"morsels,omitempty"`
	Workers    int64  `json:"workers,omitempty"`
	Error      string `json:"error,omitempty"`
	Code       Code   `json:"code,omitempty"`
	LeaderHint string `json:"leader_hint,omitempty"`
}

// The flush policy of every /stream response. Lines are buffered; a buffered
// run goes to the client at the first row line (so time-to-first-row does not
// wait for the buffer), once it reaches flushBytes, once its oldest byte is
// flushDelay old, and at the trailer.
const (
	flushBytes = 32 << 10
	flushDelay = 5 * time.Millisecond
)

// StreamWriter writes one /stream response under the flush policy above. It
// touches the ResponseWriter only under mu, because the flushDelay timer
// flushes from its own goroutine. The handler must end every response with
// Done, Fail or Close before it returns: each flushes what is buffered and
// stops the timer.
type StreamWriter struct {
	mu    sync.Mutex
	w     http.ResponseWriter
	rc    *http.ResponseController
	buf   []byte      // lines not yet written to w
	timer *time.Timer // armed while buf holds a run; nil otherwise
	err   error       // first write or flush error
	rows  int
}

// NewStreamWriter commits w to a 200 NDJSON response and buffers the header
// line.
func NewStreamWriter(w http.ResponseWriter, h StreamHeader) *StreamWriter {
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	s := &StreamWriter{w: w, rc: http.NewResponseController(w)}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.arm()
	s.buf = appendJSON(s.buf, &h)
	return s
}

// Row buffers one row line of text cells (a router relays its shards'
// cells). An error means the client went away: it is the first write or
// flush error, and every later Row or ValueRow returns it too.
func (s *StreamWriter) Row(cells []string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return s.err
	}
	s.arm()
	s.buf = append(AppendRow(append(s.buf, `{"row":`...), cells), "}\n"...)
	return s.rowWritten()
}

// ValueRow buffers one row line written straight from a node's values; its
// error is Row's.
func (s *StreamWriter) ValueRow(row []sqltypes.Value) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return s.err
	}
	s.arm()
	s.buf = append(AppendValueRow(append(s.buf, `{"row":`...), row), "}\n"...)
	return s.rowWritten()
}

// rowWritten counts the row line just buffered and flushes under the
// policy. It runs with mu held.
func (s *StreamWriter) rowWritten() error {
	s.rows++
	if s.rows == 1 || len(s.buf) >= flushBytes {
		s.flush()
	}
	return s.err
}

// Done writes the success trailer, RowCount filled in from the rows written,
// and flushes.
func (s *StreamWriter) Done(t StreamTrailer) {
	s.mu.Lock()
	defer s.mu.Unlock()
	t.Done, t.RowCount = true, s.rows
	s.buf = appendJSON(s.buf, &t)
	s.flush()
}

// Fail writes the failure trailer for a mid-stream error and flushes.
func (s *StreamWriter) Fail(e *RemoteError) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.buf = appendJSON(s.buf, &StreamTrailer{Error: e.Message, Code: e.Code, LeaderHint: e.LeaderHint})
	s.flush()
}

// Close flushes whatever is buffered and stops the timer; after Done or Fail
// it does nothing. A handler defers it to cover its early returns.
func (s *StreamWriter) Close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.flush()
}

// arm starts the flushDelay timer when a line is about to begin a new run.
// The timer flushes only the run it was armed for: a flush clears s.timer,
// so a callback that lost the race to it finds another timer (or none).
func (s *StreamWriter) arm() {
	if len(s.buf) > 0 {
		return
	}
	var t *time.Timer
	t = time.AfterFunc(flushDelay, func() {
		s.mu.Lock()
		defer s.mu.Unlock()
		if s.timer == t {
			s.flush()
		}
	})
	s.timer = t
}

// flush writes the buffered run and flushes it to the client, keeping the
// first error. It runs with mu held.
func (s *StreamWriter) flush() {
	if s.timer != nil {
		s.timer.Stop()
		s.timer = nil
	}
	if len(s.buf) > 0 && s.err == nil {
		if _, err := s.w.Write(s.buf); err != nil {
			s.err = err
		} else if err := s.rc.Flush(); err != nil {
			s.err = err
		}
	}
	s.buf = s.buf[:0]
}

// appendJSON appends v's line. Header and trailers are plain structs of
// strings, numbers and bools, which always encode.
func appendJSON(b []byte, v any) []byte {
	j, _ := json.Marshal(v)
	return append(append(b, j...), '\n')
}

// StreamLine is one decoded /stream line: exactly one member is non-nil.
type StreamLine struct {
	Header  *StreamHeader
	Row     []string
	Trailer *StreamTrailer
}

// DecodeStreamLine parses one NDJSON line of a /stream response.
func DecodeStreamLine(b []byte) (StreamLine, error) {
	var u struct {
		StreamHeader
		streamRow
		StreamTrailer
	}
	if err := json.Unmarshal(b, &u); err != nil {
		return StreamLine{}, fmt.Errorf("bad stream line %.200q: %w", b, err)
	}
	switch {
	case u.Cols != nil:
		return StreamLine{Header: &u.StreamHeader}, nil
	case u.Row != nil:
		return StreamLine{Row: u.Row}, nil
	case u.Done || u.Error != "":
		return StreamLine{Trailer: &u.StreamTrailer}, nil
	default:
		return StreamLine{}, fmt.Errorf("bad stream line %.200q: neither header, row nor trailer", b)
	}
}
