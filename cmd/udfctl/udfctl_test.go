package main

import (
	"context"
	"net/http/httptest"
	"path/filepath"
	"testing"
	"time"

	"udfdecorr/internal/bench"
	"udfdecorr/internal/engine"
	"udfdecorr/internal/server"
	"udfdecorr/internal/shard"
	"udfdecorr/internal/wire"
)

// newNode serves a volatile single node over the small bench dataset.
func newNode(t *testing.T) *wire.Client {
	t.Helper()
	e, err := bench.NewEngine(engine.SYS1, engine.ModeRewrite, bench.SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := e.ExecScript(bench.ExtraUDFs); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(server.NewHandler(server.NewServiceFromEngine(e, server.DefaultOptions())))
	t.Cleanup(ts.Close)
	return wire.NewClient(ts.URL)
}

// newRouter serves a router over n empty shards and returns the shard
// servers so a test can kill one.
func newRouter(t *testing.T, n int) (*wire.Client, []*httptest.Server) {
	t.Helper()
	var shards []*httptest.Server
	var urls []string
	for i := 0; i < n; i++ {
		svc := server.NewServiceFromEngine(engine.New(engine.SYS1, engine.ModeRewrite), server.DefaultOptions())
		ts := httptest.NewServer(server.NewHandler(svc))
		t.Cleanup(ts.Close)
		shards, urls = append(shards, ts), append(urls, ts.URL)
	}
	r, err := shard.New(urls)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(shard.NewHandler(r))
	t.Cleanup(ts.Close)
	return wire.NewClient(ts.URL), shards
}

// TestSingleNodeScenario is CI's durability sequence in process: snapshot,
// write, load and mixed traffic, then verify and check.
func TestSingleNodeScenario(t *testing.T) {
	ctx := context.Background()
	c := newNode(t)
	pre, acked := filepath.Join(t.TempDir(), "pre.json"), filepath.Join(t.TempDir(), "acked.json")

	m, err := captureManifest(ctx, c)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Results) != len(bench.Corpus) || m.RowCounts["orders"] == 0 {
		t.Fatalf("manifest = %d results, row counts %v", len(m.Results), m.RowCounts)
	}
	if err := writeJSONFileAtomic(pre, m); err != nil {
		t.Fatal(err)
	}

	// Two runs of the writer: the second resumes on fresh keys.
	for i := 0; i < 2; i++ {
		if err := runWrite(ctx, c, "dura_kv", acked, 3, 8); err != nil {
			t.Fatal(err)
		}
	}
	got, err := readAckManifest(acked, "dura_kv", false)
	if err != nil {
		t.Fatal(err)
	}
	if got.ackedRows() != 48 || len(got.Acked) != 1 || got.NextKey != 48 || len(got.Errors) != 0 {
		t.Fatalf("ack manifest = %+v", got)
	}
	if err := runCheck(ctx, c, "dura_kv", acked, true); err != nil {
		t.Fatal(err)
	}
	if _, err := readAckManifest(acked, "other", false); err == nil {
		t.Fatal("a manifest for another table was accepted")
	}

	if err := runLoad(ctx, c, 3, 1, 2, 0.3); err != nil {
		t.Fatal(err)
	}
	if err := runMixed(ctx, c, 2, 1, 4, "mixed_kv", 200*time.Millisecond); err != nil {
		t.Fatal(err)
	}

	// The corpus still answers as it did, and a lost acked row is noticed.
	after, err := captureManifest(ctx, c)
	if err != nil {
		t.Fatal(err)
	}
	for name, want := range m.Results {
		if after.Results[name] != want {
			t.Errorf("corpus query %s changed under load", name)
		}
	}
	got.ack(keyRange{1000, 1001})
	if err := writeJSONFileAtomic(acked, got); err != nil {
		t.Fatal(err)
	}
	if err := runCheck(ctx, c, "dura_kv", acked, false); err == nil {
		t.Fatal("check passed with an acked key missing from the table")
	}
}

// TestWriteThroughRouter: single-row batches through a router are
// single-shard writes; with a shard dead its keys fail typed, the others
// keep being acked, and nothing is recorded untyped.
func TestWriteThroughRouter(t *testing.T) {
	ctx := context.Background()
	c, shards := newRouter(t, 3)
	acked := filepath.Join(t.TempDir(), "acked.json")
	if err := runWrite(ctx, c, "shard_kv", acked, 12, 1); err != nil {
		t.Fatal(err)
	}
	if err := runCheck(ctx, c, "shard_kv", acked, true); err != nil {
		t.Fatal(err)
	}

	// The writer's setup needs the whole cluster; kill a shard after it.
	killed := make(chan struct{})
	go func() {
		defer close(killed)
		time.Sleep(100 * time.Millisecond)
		shards[1].CloseClientConnections()
		shards[1].Close()
	}()
	wctx, cancel := context.WithTimeout(ctx, 2*time.Second)
	defer cancel()
	if err := runWrite(wctx, c, "shard_kv", acked, 0, 1); err != context.DeadlineExceeded {
		t.Fatalf("unbounded write ended with %v, want the deadline", err)
	}
	<-killed
	m, err := readAckManifest(acked, "shard_kv", false)
	if err != nil {
		t.Fatal(err)
	}
	if m.Errors[string(wire.CodeShardUnavailable)] == 0 || m.Errors["UNTYPED"] != 0 || m.ackedRows() <= 12 {
		t.Fatalf("after the shard died: acked=%d errors=%v", m.ackedRows(), m.Errors)
	}
}
