package wire

import (
	"encoding/json"
	"fmt"
	"net/http"
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

// StreamWriter writes one /stream response. Nothing is flushed to the client
// until the handler calls Flush; how often is the handler's policy.
type StreamWriter struct {
	enc  *json.Encoder
	rc   *http.ResponseController
	line streamRow
	rows int
}

// NewStreamWriter commits w to a 200 NDJSON response and writes the header
// line.
func NewStreamWriter(w http.ResponseWriter, h StreamHeader) (*StreamWriter, error) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	s := &StreamWriter{enc: json.NewEncoder(w), rc: http.NewResponseController(w)}
	return s, s.enc.Encode(&h)
}

// Row writes one row line. An error means the client went away.
func (s *StreamWriter) Row(cells []string) error {
	s.line.Row = cells
	s.rows++
	return s.enc.Encode(&s.line)
}

// Rows is the number of row lines written so far.
func (s *StreamWriter) Rows() int { return s.rows }

// Done writes the success trailer; RowCount is filled in from Rows.
func (s *StreamWriter) Done(t StreamTrailer) {
	t.Done, t.RowCount = true, s.rows
	_ = s.enc.Encode(&t)
}

// Fail writes the failure trailer for a mid-stream error.
func (s *StreamWriter) Fail(e *RemoteError) {
	_ = s.enc.Encode(&StreamTrailer{Error: e.Message, Code: e.Code, LeaderHint: e.LeaderHint})
}

// Flush pushes everything written so far to the client.
func (s *StreamWriter) Flush() { _ = s.rc.Flush() }

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
