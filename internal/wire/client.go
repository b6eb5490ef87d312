package wire

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"
)

const (
	// requestTimeout bounds one request, a whole /stream included.
	requestTimeout = 5 * time.Minute
	// idleConnsPerHost is how many idle connections a client keeps to its
	// node: one per statement a router can have in flight against a shard
	// (udfserverd's default worker pool), so steady load opens no new ones.
	idleConnsPerHost = 32
	// maxStreamLine bounds one NDJSON line.
	maxStreamLine = 1 << 20
)

// Client speaks the wire API to one node (a udfserverd or a udfrouterd). It
// is safe for concurrent use. Failures the node reported come back as
// *RemoteError; anything else (connection refused, a stream cut short) is a
// transport error wrapping its cause.
type Client struct {
	base string
	hc   *http.Client
}

// NewClient builds a client for the node at base. ":8080" means localhost,
// and a missing scheme means http.
func NewClient(base string) *Client {
	switch {
	case strings.HasPrefix(base, ":"):
		base = "http://localhost" + base
	case !strings.Contains(base, "://"):
		base = "http://" + base
	}
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.MaxIdleConns = 0 // no limit across hosts: there is one host
	tr.MaxIdleConnsPerHost = idleConnsPerHost
	return &Client{base: strings.TrimRight(base, "/"), hc: &http.Client{Transport: tr, Timeout: requestTimeout}}
}

// Base is the node's base URL.
func (c *Client) Base() string { return c.base }

type traceKey struct{}

// WithTraceID returns a context whose requests carry id in TraceHeader.
func WithTraceID(ctx context.Context, id string) context.Context {
	if id == "" {
		return ctx
	}
	return context.WithValue(ctx, traceKey{}, id)
}

// do sends one request; body == nil sends none.
func (c *Client) do(ctx context.Context, method, path string, body any) (*http.Response, error) {
	var rd io.Reader
	if body != nil {
		buf, err := json.Marshal(body)
		if err != nil {
			return nil, fmt.Errorf("%s %s: encoding request: %w", method, path, err)
		}
		rd = bytes.NewReader(buf)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if id, _ := ctx.Value(traceKey{}).(string); id != "" {
		req.Header.Set(TraceHeader, id)
	}
	return c.hc.Do(req) // its *url.Error already names the method and URL
}

func (c *Client) call(ctx context.Context, method, path string, body, out any) error {
	resp, err := c.do(ctx, method, path, body)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return fmt.Errorf("%s %s%s: reading reply: %w", method, c.base, path, err)
	}
	return Decode(raw, resp.StatusCode, out)
}

// Post sends body as JSON and decodes the envelope's result into out (which
// may be nil).
func (c *Client) Post(ctx context.Context, path string, body, out any) error {
	return c.call(ctx, http.MethodPost, path, body, out)
}

// Get fetches an enveloped endpoint (/stats, /healthz) into out.
func (c *Client) Get(ctx context.Context, path string, out any) error {
	return c.call(ctx, http.MethodGet, path, nil, out)
}

// NewSession opens a session; settings is the /session body (mode, profile,
// vectorized, parallelism, timeout_ms).
func (c *Client) NewSession(ctx context.Context, settings any) (string, error) {
	var out struct {
		Session string `json:"session"`
	}
	if err := c.Post(ctx, "/session", settings, &out); err != nil {
		return "", err
	}
	if out.Session == "" {
		return "", Errorf(CodeInternal, "%s/session returned no session id", c.base)
	}
	return out.Session, nil
}

// Query runs one SELECT through /query.
func (c *Client) Query(ctx context.Context, session, sql string) (*QueryResult, error) {
	var out QueryResult
	if err := c.Post(ctx, "/query", Statement{Session: session, SQL: sql}, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Exec runs a DDL/DML/transaction script through /exec.
func (c *Client) Exec(ctx context.Context, session, script string) error {
	return c.Post(ctx, "/exec", Statement{Session: session, Script: script}, nil)
}

// Stream opens a /stream cursor. The caller must Close it.
func (c *Client) Stream(ctx context.Context, stmt Statement) (*Cursor, error) {
	ctx, cancel := context.WithCancel(ctx)
	resp, err := c.do(ctx, http.MethodPost, "/stream", stmt)
	if err != nil {
		cancel()
		return nil, err
	}
	cur := &Cursor{cancel: cancel, body: resp.Body, sc: bufio.NewScanner(resp.Body)}
	cur.sc.Buffer(nil, maxStreamLine)
	if resp.StatusCode != http.StatusOK {
		// Rejected before streaming began: the body is an error envelope.
		raw, _ := io.ReadAll(resp.Body)
		cur.Close()
		if err := Decode(raw, resp.StatusCode, nil); err != nil {
			return nil, err
		}
		return nil, Errorf(CodeInternal, "HTTP %d from %s/stream", resp.StatusCode, c.base)
	}
	line, err := cur.scan()
	if err == nil && line.Header == nil {
		err = Errorf(CodeInternal, "%s/stream did not start with a header line", c.base)
	}
	if err != nil {
		cur.Close()
		return nil, err
	}
	cur.Header = *line.Header
	return cur, nil
}

// Cursor is an open /stream response.
type Cursor struct {
	Header StreamHeader

	trailer *StreamTrailer
	cancel  context.CancelFunc
	body    io.ReadCloser
	sc      *bufio.Scanner
}

func (cur *Cursor) scan() (StreamLine, error) {
	if !cur.sc.Scan() {
		if err := cur.sc.Err(); err != nil {
			return StreamLine{}, fmt.Errorf("reading stream: %w", err)
		}
		return StreamLine{}, fmt.Errorf("stream ended without trailer (node died mid-stream?): %w", io.ErrUnexpectedEOF)
	}
	line, err := DecodeStreamLine(cur.sc.Bytes())
	if err != nil {
		return line, AsRemote(err, CodeInternal)
	}
	return line, nil
}

// Next returns the next row, or (nil, nil) once the success trailer has
// arrived. A failure trailer comes back as its typed *RemoteError.
func (cur *Cursor) Next() ([]string, error) {
	if cur.trailer != nil {
		return nil, nil
	}
	line, err := cur.scan()
	switch {
	case err != nil:
		return nil, err
	case line.Row != nil:
		return line.Row, nil
	case line.Trailer == nil:
		return nil, Errorf(CodeInternal, "second header line in stream")
	}
	cur.trailer = line.Trailer
	if t := cur.trailer; !t.Done {
		if t.Code == "" {
			t.Code = CodeInternal
		}
		return nil, &RemoteError{Code: t.Code, Message: t.Error, LeaderHint: t.LeaderHint}
	}
	return nil, nil
}

// Trailer is the stream's final line, nil until Next has reached it.
func (cur *Cursor) Trailer() *StreamTrailer { return cur.trailer }

// Close releases the cursor. After the trailer it first reads the body to
// EOF: the transport reuses a connection only if its response was consumed
// completely, and the end-of-body marker arrives after the trailer line.
// Closing earlier abandons the stream, which cancels the statement on the
// node and drops the connection.
func (cur *Cursor) Close() {
	if cur.trailer != nil {
		_, _ = io.Copy(io.Discard, cur.body)
	}
	cur.body.Close()
	cur.cancel()
}
