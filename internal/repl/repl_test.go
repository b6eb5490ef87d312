// End-to-end replication tests: a leader's live WAL served over HTTP, a
// follower bootstrapping from its checkpoint, tailing the stream into its
// own catalog+store, and draining a dead leader's directory at promotion.
package repl_test

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"testing"
	"time"

	"udfdecorr/internal/repl"
	"udfdecorr/internal/sqltypes"
	"udfdecorr/internal/wal"
)

func openLog(t *testing.T, dir string, opts wal.Options) *wal.Log {
	t.Helper()
	l, _, err := wal.Open(dir, opts, func(wal.Record) error { return nil })
	if err != nil {
		t.Fatalf("wal.Open: %v", err)
	}
	return l
}

func serveLeader(t *testing.T, l *wal.Log, dir string) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	repl.NewLeaderHandlers(l, dir).Register(mux)
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv
}

func kvRow(k int64, v string) []sqltypes.Value {
	return []sqltypes.Value{sqltypes.NewInt(k), sqltypes.NewString(v)}
}

// committed returns the record run of one committed transaction inserting
// rows into kv.
func committed(txid uint64, rows ...[]sqltypes.Value) []wal.Record {
	return []wal.Record{wal.BeginRecord(txid), wal.TxnInsertRecord(txid, "kv", rows), wal.CommitRecord(txid)}
}

// waitApplied polls the follower until it has applied n records.
func waitApplied(t *testing.T, f *repl.Follower, n int64) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for {
		st := f.Status()
		if st.AppliedRecords >= n {
			if st.AppliedRecords > n {
				t.Fatalf("follower applied %d records, want %d", st.AppliedRecords, n)
			}
			return
		}
		if st.Fatal {
			t.Fatalf("follower tail died: %s", st.LastError)
		}
		if time.Now().After(deadline) {
			t.Fatalf("follower stalled at %d/%d applied records (err=%q)", st.AppliedRecords, n, st.LastError)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func followerRows(t *testing.T, f *repl.Follower, table string) int {
	t.Helper()
	tb, ok := f.Store().Table(table)
	if !ok {
		t.Fatalf("follower has no table %q", table)
	}
	return tb.RowCount()
}

// TestFollowerTailsLiveLeader: bootstrap from an empty leader (no checkpoint
// yet → 404 → start at the log's beginning), then tail DDL, two committed
// transactions, and an uncommitted suffix across segment rotations.
// The uncommitted transaction must never surface in the replica's store.
func TestFollowerTailsLiveLeader(t *testing.T) {
	dir := t.TempDir()
	l := openLog(t, dir, wal.Options{Sync: wal.SyncAlways, SegmentBytes: 512, RetainSegments: 8})
	defer l.Close()
	srv := serveLeader(t, l, dir)

	f := repl.NewFollower(srv.URL, nil)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := f.Bootstrap(ctx); err != nil {
		t.Fatalf("Bootstrap: %v", err)
	}
	done := make(chan error, 1)
	go func() { done <- f.Run(ctx) }()

	records := append([]wal.Record{wal.DDLRecord("create table kv (k int primary key, v varchar);")},
		committed(6, kvRow(1, "a"), kvRow(2, "b"))...)
	records = append(records,
		wal.BeginRecord(7),
		wal.TxnInsertRecord(7, "kv", [][]sqltypes.Value{kvRow(3, "c")}),
		wal.TxnInsertRecord(7, "kv", [][]sqltypes.Value{kvRow(4, "d")}),
		wal.CommitRecord(7),
		wal.BeginRecord(8),
		wal.TxnInsertRecord(8, "kv", [][]sqltypes.Value{kvRow(99, "never-committed")}),
	)
	for _, rec := range records {
		if err := l.AppendAll(rec); err != nil {
			t.Fatal(err)
		}
	}
	waitApplied(t, f, int64(len(records)))

	if got := followerRows(t, f, "kv"); got != 4 {
		t.Fatalf("replica kv has %d rows, want 4 (2 + 2 committed)", got)
	}
	st := f.Status()
	if st.PendingTxns != 1 {
		t.Fatalf("pending txns = %d, want 1 (the uncommitted suffix)", st.PendingTxns)
	}
	if st.LagRecords != 0 {
		t.Fatalf("lag = %d records, want 0 at the tip", st.LagRecords)
	}
	if _, ok := f.Catalog().Table("kv"); !ok {
		t.Fatal("replica catalog missing table kv")
	}

	cancel()
	if err := <-done; err != nil {
		t.Fatalf("Run returned %v after cancel", err)
	}
}

// TestFollowerBootstrapsFromCheckpoint: state checkpointed before the
// follower ever connects arrives via /repl/snapshot; the stream then only
// carries the post-checkpoint suffix.
func TestFollowerBootstrapsFromCheckpoint(t *testing.T) {
	dir := t.TempDir()
	l := openLog(t, dir, wal.Options{Sync: wal.SyncAlways, RetainSegments: 8})
	defer l.Close()
	srv := serveLeader(t, l, dir)

	if err := l.AppendAll(append([]wal.Record{wal.DDLRecord("create table kv (k int primary key, v varchar);")},
		committed(1, kvRow(1, "a"))...)...); err != nil {
		t.Fatal(err)
	}
	// Checkpoint re-emits the logical state the log's records built (the
	// engine does exactly this from its catalog+store).
	err := l.Checkpoint(func(write func(wal.Record) error) error {
		if err := write(wal.DDLRecord("create table kv (k int primary key, v varchar);")); err != nil {
			return err
		}
		return write(wal.SegmentRecord("kv", [][]sqltypes.Value{{sqltypes.NewInt(1)}, {sqltypes.NewString("a")}}, 1))
	})
	if err != nil {
		t.Fatal(err)
	}

	f := repl.NewFollower(srv.URL, nil)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := f.Bootstrap(ctx); err != nil {
		t.Fatalf("Bootstrap: %v", err)
	}
	if got := followerRows(t, f, "kv"); got != 1 {
		t.Fatalf("post-bootstrap replica has %d rows, want 1", got)
	}
	go f.Run(ctx)

	if err := l.AppendAll(committed(2, kvRow(2, "b"))...); err != nil {
		t.Fatal(err)
	}
	// 2 snapshot records + 3 streamed.
	waitApplied(t, f, 5)
	if got := followerRows(t, f, "kv"); got != 2 {
		t.Fatalf("replica has %d rows, want 2", got)
	}
}

// TestPromotionCatchupFromDeadLeaderDir: the follower saw a prefix of the
// stream when the leader died. Catch-up takes the dead directory's flock,
// drains every complete fsynced frame beyond the follower's position —
// including a torn final write, which is truncated, and an uncommitted txn
// suffix, which stays invisible — and leaves the replica at zero loss.
func TestPromotionCatchupFromDeadLeaderDir(t *testing.T) {
	dir := t.TempDir()
	l := openLog(t, dir, wal.Options{Sync: wal.SyncAlways, SegmentBytes: 512, RetainSegments: 8})
	srv := serveLeader(t, l, dir)

	prefix := append([]wal.Record{wal.DDLRecord("create table kv (k int primary key, v varchar);")},
		committed(1, kvRow(1, "a"))...)
	for _, rec := range prefix {
		if err := l.AppendAll(rec); err != nil {
			t.Fatal(err)
		}
	}

	f := repl.NewFollower(srv.URL, nil)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := f.Bootstrap(ctx); err != nil {
		t.Fatal(err)
	}
	tailCtx, stopTail := context.WithCancel(ctx)
	done := make(chan error, 1)
	go func() { done <- f.Run(tailCtx) }()
	waitApplied(t, f, int64(len(prefix)))
	stopTail()
	<-done

	// The leader accepts (and fsyncs = acks) more writes the follower never
	// streams, including an uncommitted transaction, then dies.
	suffix := append(committed(4, kvRow(2, "b"), kvRow(3, "c")),
		wal.BeginRecord(5),
		wal.TxnInsertRecord(5, "kv", [][]sqltypes.Value{kvRow(4, "d")}),
		wal.CommitRecord(5),
		wal.BeginRecord(6),
		wal.TxnInsertRecord(6, "kv", [][]sqltypes.Value{kvRow(99, "uncommitted")}),
	)
	for _, rec := range suffix {
		if err := l.AppendAll(rec); err != nil {
			t.Fatal(err)
		}
	}
	// While the "leader" is alive, catch-up must refuse loudly.
	if _, err := f.CatchupFromDir(dir); err == nil {
		t.Fatal("CatchupFromDir succeeded while the leader holds the flock")
	}
	l.Close() // kill -9: flock released, files as fsynced
	// A torn final write: the leader died mid-append of a frame that was
	// never acknowledged.
	segs, err := wal.SegmentFiles(dir)
	if err != nil {
		t.Fatal(err)
	}
	last := wal.SegmentFilePath(dir, segs[len(segs)-1])
	lf, err := os.OpenFile(last, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	// A frame header claiming a 42-byte body, with only 5 body bytes present.
	if _, err := lf.Write([]byte{0, 0, 0, 42, 0xde, 0xad, 0xbe, 0xef, 1, 2, 3, 4, 5}); err != nil {
		t.Fatal(err)
	}
	lf.Close()

	recovered, err := f.CatchupFromDir(dir)
	if err != nil {
		t.Fatalf("CatchupFromDir: %v", err)
	}
	if recovered != int64(len(suffix)) {
		t.Fatalf("recovered %d records, want %d", recovered, len(suffix))
	}
	if got := followerRows(t, f, "kv"); got != 4 {
		t.Fatalf("promoted replica has %d rows, want 4 (uncommitted txn invisible)", got)
	}
	if st := f.Status(); st.PendingTxns != 1 || st.LagRecords != 0 {
		t.Fatalf("status after catch-up: pending=%d lag=%d, want 1/0", st.PendingTxns, st.LagRecords)
	}
}

// TestFollowerFellBehindIsFatal: a leader that checkpointed past the
// follower's position serves 410; the tail loop must die with ErrFellBehind
// rather than retrying forever against a hole in history.
func TestFollowerFellBehindIsFatal(t *testing.T) {
	dir := t.TempDir()
	l := openLog(t, dir, wal.Options{Sync: wal.SyncAlways, SegmentBytes: 256})
	defer l.Close()
	srv := serveLeader(t, l, dir)

	f := repl.NewFollower(srv.URL, nil)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := f.Bootstrap(ctx); err != nil {
		t.Fatal(err)
	}
	// The leader moves on without the follower: many appends, then a
	// retention-free checkpoint deletes everything below the new segment.
	for i := 0; i < 30; i++ {
		if err := l.AppendAll(wal.DDLRecord(fmt.Sprintf("create table t%d (k int); -- padding padding", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Checkpoint(func(write func(wal.Record) error) error { return nil }); err != nil {
		t.Fatal(err)
	}

	err := f.Run(ctx)
	if !errors.Is(err, repl.ErrFellBehind) {
		t.Fatalf("Run returned %v, want ErrFellBehind", err)
	}
	if st := f.Status(); !st.Fatal {
		t.Fatal("status does not mark the fell-behind tail as fatal")
	}
}
