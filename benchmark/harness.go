package main

import (
	"fmt"
	"net"
	"net/http"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// ---------------------------------------------------------------------------
// Loopback listeners
// ---------------------------------------------------------------------------

// listener is an HTTP server on a loopback port chosen by the kernel.
type listener struct {
	url   string
	srv   *http.Server
	done  chan struct{}
	conns atomic.Int64 // connections accepted
}

func listen(h http.Handler) (*listener, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	l := &listener{url: "http://" + ln.Addr().String(), done: make(chan struct{})}
	l.srv = &http.Server{Handler: h, ConnState: func(_ net.Conn, s http.ConnState) {
		if s == http.StateNew {
			l.conns.Add(1)
		}
	}}
	go func() {
		defer close(l.done)
		_ = l.srv.Serve(ln) // returns ErrServerClosed on close
	}()
	return l, nil
}

// close stops the server and waits for its accept loop to end.
func (l *listener) close() {
	_ = l.srv.Close()
	<-l.done
}

// ---------------------------------------------------------------------------
// Boundary middleware (traced runs only)
// ---------------------------------------------------------------------------

// middleware wraps a handler; nil wraps nothing.
type middleware func(http.Handler) http.Handler

func (m middleware) apply(h http.Handler) http.Handler {
	if m == nil {
		return h
	}
	return m(h)
}

// countingWriter counts what a handler does to its ResponseWriter.
type countingWriter struct {
	http.ResponseWriter
	flushes int32
	bytes   int64
}

func (w *countingWriter) Write(p []byte) (int, error) {
	w.bytes += int64(len(p))
	return w.ResponseWriter.Write(p)
}

func (w *countingWriter) Flush() {
	w.flushes++
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// spanMiddleware records one span per request around a handler. The
// statement id comes from the X-Trace-Id header the benchmark client sets;
// the router does not forward it, so shard legs fall back to the id of the
// statement the (single) traced client has in flight.
func spanMiddleware(rec *recorder, name, parent string) middleware {
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if !rec.on.Load() {
				next.ServeHTTP(w, r)
				return
			}
			stmt, err := strconv.ParseInt(r.Header.Get(traceHeader), 10, 64)
			if err != nil {
				stmt = rec.inFlight.Load()
			}
			cw := &countingWriter{ResponseWriter: w}
			start := rec.now()
			next.ServeHTTP(cw, r)
			rec.add(span{Stmt: stmt, Name: name, Parent: parent, Start: start, End: rec.now(),
				Path: r.URL.Path, Flushes: cw.flushes, Bytes: cw.bytes})
		})
	}
}

// ---------------------------------------------------------------------------
// Closed-loop clients
// ---------------------------------------------------------------------------

type reqKind uint8

const (
	kindQuery reqKind = iota
	kindStream
	kindExec
)

func (k reqKind) path() string { return [...]string{"/query", "/stream", "/exec"}[k] }

// request is one statement ready to send.
type request struct {
	shape int
	kind  reqKind
	body  []byte
	want  digest // expected reply (reads only)
	// rewritten marks statements whose reply must report rewritten=true and
	// udf_calls=0: the premise of the paper's rewritten leg.
	rewritten bool
	rowsMoved int // rows a write carries (reads count the rows returned)
}

// sample is one completed statement as the client saw it.
type sample struct {
	shape  int32
	failed bool
	rows   int32
	start  int64 // ns since the phase began
	lat    int64 // ns
	ttfr   int64 // ns
}

// clientLoop is one closed-loop client: it sends its next statement only
// after the previous reply has been read and checked.
type clientLoop struct {
	id      int
	wc      *wireClient
	next    func(i int) *request          // i-th statement of this client
	after   func(req *request, s *sample) // optional hook, outside the timed window
	pos     int                           // statements sent so far, across phases
	samples []sample
	fails   *failureLog
}

// failureLog keeps the first few failure messages for the report.
type failureLog struct {
	mu    sync.Mutex
	count int
	first []string
}

func (f *failureLog) add(format string, args ...any) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.count++
	if len(f.first) < 5 {
		msg := fmt.Sprintf(format, args...)
		f.first = append(f.first, msg)
		fmt.Fprintln(os.Stderr, "FAILED:", msg)
	}
}

// issue sends one request and checks the reply.
func (c *clientLoop) issue(req *request, traceID string) (reply, bool) {
	var r reply
	var err error
	switch req.kind {
	case kindQuery:
		r, err = c.wc.query(req.body, traceID)
	case kindStream:
		r, err = c.wc.stream(req.body, traceID)
	case kindExec:
		r, err = c.wc.execBody(req.body, traceID)
	}
	switch {
	case err != nil:
		c.fails.add("client %d: %v (%.120s)", c.id, err, req.body)
	case req.kind != kindExec && r.got != req.want:
		c.fails.add("client %d: wrong answer: got %d rows (sum %x), want %d rows (sum %x): %.160s",
			c.id, r.got.rows, r.got.sum, req.want.rows, req.want.sum, req.body)
	case req.rewritten && (!r.rewritten || r.udfCalls != 0):
		c.fails.add("client %d: premise: rewritten=%v udf_calls=%d, want a fully decorrelated plan: %.160s",
			c.id, r.rewritten, r.udfCalls, req.body)
	default:
		return r, true
	}
	return r, false
}

// run drives the loop until the deadline. rec is nil when tracing is off.
func (c *clientLoop) run(begin, deadline time.Time, rec *recorder) {
	for ; ; c.pos++ {
		req := c.next(c.pos)
		t0 := time.Now()
		if !t0.Before(deadline) {
			return
		}
		traceID := ""
		var stmt int64
		if rec != nil {
			stmt = rec.nextStmt()
			traceID = strconv.FormatInt(stmt, 10)
		}
		r, ok := c.issue(req, traceID)
		if rec != nil {
			start := t0.Sub(rec.origin).Nanoseconds()
			rec.add(span{Stmt: stmt, Name: spanClient, Start: start, End: start + r.latency.Nanoseconds(),
				Path: req.kind.path(), Shape: req.shape, Rows: r.got.rows})
		}
		rows := r.got.rows
		if req.kind == kindExec {
			rows = req.rowsMoved
		}
		c.samples = append(c.samples, sample{
			shape: int32(req.shape), failed: !ok, rows: int32(rows),
			start: t0.Sub(begin).Nanoseconds(), lat: r.latency.Nanoseconds(), ttfr: r.ttfr.Nanoseconds(),
		})
		if c.after != nil {
			c.after(req, &c.samples[len(c.samples)-1])
		}
	}
}

// runPhase runs every client for the given duration and returns the wall
// time from start to the last client finishing.
func runPhase(clients []*clientLoop, d time.Duration, rec *recorder) time.Duration {
	begin := time.Now()
	deadline := begin.Add(d)
	var wg sync.WaitGroup
	for _, c := range clients {
		wg.Add(1)
		go func(c *clientLoop) {
			defer wg.Done()
			c.run(begin, deadline, rec)
		}(c)
	}
	wg.Wait()
	return time.Since(begin)
}
