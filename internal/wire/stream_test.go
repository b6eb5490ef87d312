package wire

// Tests of StreamWriter's flush policy through a real HTTP server: a handler
// writes rows from a source the test controls, and a wrapping ResponseWriter
// counts what reaches the connection.

import (
	"bufio"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

const testHeader = `{"cols":["c"],"rewritten":false,"cache_hit":false}` + "\n"

// watchedWriter counts the writes and flushes that reach the connection, and
// reports any after its handler has returned.
type watchedWriter struct {
	http.ResponseWriter
	t        *testing.T
	bytes    atomic.Int64 // written
	flushed  atomic.Int64 // written as of the last flush
	flushes  atomic.Int64
	returned atomic.Bool
}

func (w *watchedWriter) Write(p []byte) (int, error) {
	if w.returned.Load() {
		w.t.Error("Write after the handler returned")
		return 0, http.ErrHandlerTimeout
	}
	w.bytes.Add(int64(len(p)))
	return w.ResponseWriter.Write(p)
}

func (w *watchedWriter) Flush() {
	if w.returned.Load() {
		w.t.Error("Flush after the handler returned")
		return
	}
	w.flushes.Add(1)
	w.flushed.Store(w.bytes.Load())
	w.ResponseWriter.(http.Flusher).Flush()
}

// startStream serves one /stream response whose header has the single column
// "c" and whose rows body writes, and opens it. The channel yields the
// handler's writer once the handler has returned.
func startStream(t *testing.T, body func(sw *StreamWriter, w *watchedWriter)) (*bufio.Reader, io.Closer, <-chan *watchedWriter) {
	t.Helper()
	returned := make(chan *watchedWriter, 1)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		ww := &watchedWriter{ResponseWriter: w, t: t}
		defer func() {
			ww.returned.Store(true)
			returned <- ww
		}()
		sw := NewStreamWriter(ww, StreamHeader{Cols: []string{"c"}})
		defer sw.Close()
		body(sw, ww)
	}))
	t.Cleanup(ts.Close)
	resp, err := http.Post(ts.URL, "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return bufio.NewReader(resp.Body), resp.Body, returned
}

// expectLine reads one line and fails t unless it is want and arrives within d.
func expectLine(t *testing.T, br *bufio.Reader, want string, d time.Duration) {
	t.Helper()
	got := make(chan string, 1)
	go func() {
		line, _ := br.ReadString('\n')
		got <- line
	}()
	select {
	case line := <-got:
		if line != want {
			t.Fatalf("read %q, want %q", line, want)
		}
	case <-time.After(d):
		t.Fatalf("no line within %v (want %q)", d, want)
	}
}

func rowLine(c string) string { return `{"row":["` + c + `"]}` + "\n" }

// The header and the first row are on the connection when Row returns for
// the first row, before the source yields row 2.
func TestStreamFlushesFirstRowAtOnce(t *testing.T) {
	next := make(chan string)
	br, _, _ := startStream(t, func(sw *StreamWriter, w *watchedWriter) {
		for c := range next {
			if sw.Row([]string{c}) != nil {
				t.Error("Row failed")
				return
			}
			if c == "1" {
				if n := int64(len(testHeader + rowLine("1"))); w.bytes.Load() != n || w.flushed.Load() != n {
					t.Errorf("after row 1: %d bytes written, %d flushed, want %d", w.bytes.Load(), w.flushed.Load(), n)
				}
			}
		}
		sw.Done(StreamTrailer{})
	})
	next <- "1"
	expectLine(t, br, testHeader, 10*time.Second)
	expectLine(t, br, rowLine("1"), 10*time.Second)
	next <- "2"
	close(next)
	expectLine(t, br, rowLine("2"), 10*time.Second)
	expectLine(t, br, `{"done":true,"row_count":2}`+"\n", 10*time.Second)
}

// A row buffered behind the first goes out on the timer while the source
// stalls.
func TestStreamFlushesStalledRunOnTimer(t *testing.T) {
	release := make(chan struct{})
	br, _, _ := startStream(t, func(sw *StreamWriter, _ *watchedWriter) {
		if sw.Row([]string{"1"}) != nil || sw.Row([]string{"2"}) != nil {
			t.Error("Row failed")
			return
		}
		select {
		case <-release:
		case <-time.After(3 * time.Second):
		}
		sw.Done(StreamTrailer{})
	})
	expectLine(t, br, testHeader, 10*time.Second)
	expectLine(t, br, rowLine("1"), 10*time.Second)
	expectLine(t, br, rowLine("2"), time.Second)
	close(release)
	expectLine(t, br, `{"done":true,"row_count":2}`+"\n", 10*time.Second)
}

// Fast rows are flushed by the buffer, not per row.
func TestStreamFlushesByBytes(t *testing.T) {
	const rows = 20000
	cell := strings.Repeat("x", 100)
	br, _, returned := startStream(t, func(sw *StreamWriter, _ *watchedWriter) {
		for i := 0; i < rows; i++ {
			if sw.Row([]string{cell, strconv.Itoa(i)}) != nil {
				t.Error("Row failed")
				return
			}
		}
		sw.Done(StreamTrailer{})
	})
	body, err := io.ReadAll(br)
	if err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(string(body), "\n"); lines != rows+2 {
		t.Fatalf("%d lines, want %d", lines, rows+2)
	}
	w := <-returned
	bytes, flushes := w.bytes.Load(), w.flushes.Load()
	if bytes != int64(len(body)) || w.flushed.Load() != bytes {
		t.Fatalf("wrote %d bytes, flushed %d, client read %d", bytes, w.flushed.Load(), len(body))
	}
	if limit := (bytes+flushBytes-1)/flushBytes + 3; flushes > limit {
		t.Fatalf("%d rows, %d bytes: %d flushes, want at most %d", rows, bytes, flushes, limit)
	}
}

// Whichever way the handler returns, the timer never touches the
// ResponseWriter afterwards (watchedWriter reports it; run with -race).
func TestStreamTimerStopsWithHandler(t *testing.T) {
	buffered := func(sw *StreamWriter) bool {
		// Row 1 is flushed at once; rows 2 and 3 stay buffered, timer armed.
		return sw.Row([]string{"1"}) == nil && sw.Row([]string{"2"}) == nil && sw.Row([]string{"3"}) == nil
	}
	for _, tc := range []struct {
		name   string
		body   func(sw *StreamWriter)
		hangUp bool
		tail   []string // lines after the header
	}{
		{name: "done", body: func(sw *StreamWriter) {
			if buffered(sw) {
				sw.Done(StreamTrailer{})
			}
		}, tail: []string{rowLine("1"), rowLine("2"), rowLine("3"), `{"done":true,"row_count":3}` + "\n"}},
		{name: "fail", body: func(sw *StreamWriter) {
			if buffered(sw) {
				sw.Fail(&RemoteError{Code: CodeInternal, Message: "boom"})
			}
		}, tail: []string{rowLine("1"), rowLine("2"), rowLine("3"), `{"error":"boom","code":"INTERNAL"}` + "\n"}},
		{name: "close", body: func(sw *StreamWriter) {
			buffered(sw)
		}, tail: []string{rowLine("1"), rowLine("2"), rowLine("3")}},
		{name: "hang-up", body: func(sw *StreamWriter) {
			cell := strings.Repeat("x", 1000)
			for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); {
				if sw.Row([]string{cell}) != nil {
					return
				}
			}
			t.Error("Row never failed after the client hung up")
		}, hangUp: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			br, body, returned := startStream(t, func(sw *StreamWriter, _ *watchedWriter) { tc.body(sw) })
			expectLine(t, br, testHeader, 10*time.Second)
			if tc.hangUp {
				body.Close()
			}
			for _, want := range tc.tail {
				expectLine(t, br, want, 10*time.Second)
			}
			select {
			case <-returned:
			case <-time.After(20 * time.Second):
				t.Fatal("handler did not return")
			}
			// Long enough for any timer armed before the return to fire.
			time.Sleep(10 * flushDelay)
		})
	}
}
