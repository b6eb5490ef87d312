package wal

import (
	"errors"
	"fmt"
	"os"
	"reflect"
	"sync"
	"testing"
	"time"

	"udfdecorr/internal/sqltypes"
)

// TestGroupCommitConcurrentAppends: many goroutines committing under
// SyncAlways must all be acknowledged, everything must be on disk when the
// last Append returns, and batching must have saved fsyncs (strictly fewer
// syncs than commits). The first commit of every writer parks behind a held
// flush, so at least that flush covers all of them: how many later commits
// collapse depends on fsync latency and scheduling.
func TestGroupCommitConcurrentAppends(t *testing.T) {
	dir := t.TempDir()
	l, _, _ := collect(t, dir, Options{Sync: SyncAlways})
	const (
		writers = 32
		each    = 20
		records = writers * each * 3 // Begin, TxnInsert, Commit
	)
	holdFlush(l)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				run := committed(uint64(w*each+i+1), "kv",
					[]sqltypes.Value{sqltypes.NewInt(int64(w)), sqltypes.NewInt(int64(i))})
				if err := l.AppendAll(run...); err != nil {
					t.Errorf("writer %d: %v", w, err)
					return
				}
			}
		}(w)
	}
	waitWriteGen(t, l, writers)
	releaseFlush(l)
	wg.Wait()
	st := l.Stats()
	if st.Records != records {
		t.Fatalf("records = %d, want %d", st.Records, records)
	}
	if st.GroupSyncs == 0 {
		t.Fatal("SyncAlways performed no group syncs")
	}
	if st.GroupSyncs >= writers*each {
		t.Fatalf("no batching: %d syncs for %d commits", st.GroupSyncs, writers*each)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	_, got, _ := collect(t, dir, Options{Sync: SyncNone})
	if len(got) != records {
		t.Fatalf("replayed %d records, want %d", len(got), records)
	}
}

// TestGroupCommitSurvivesRotation: group-synced appends crossing segment
// rotation must all replay.
func TestGroupCommitSurvivesRotation(t *testing.T) {
	dir := t.TempDir()
	l, _, _ := collect(t, dir, Options{Sync: SyncAlways, SegmentBytes: 256})
	const n = 50
	for i := 0; i < n; i++ {
		run := committed(uint64(i+1), "kv",
			[]sqltypes.Value{sqltypes.NewInt(int64(i)), sqltypes.NewString("padding-padding")})
		if err := l.AppendAll(run...); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	_, got, _ := collect(t, dir, Options{Sync: SyncNone})
	if len(got) != 3*n {
		t.Fatalf("replayed %d records, want %d", len(got), 3*n)
	}
}

// TestAppendAllContiguous: a multi-record append lands as one contiguous
// run, in order, even interleaved with other appenders.
func TestAppendAllContiguous(t *testing.T) {
	dir := t.TempDir()
	l, _, _ := collect(t, dir, Options{Sync: SyncAlways})
	const txns = 16
	var wg sync.WaitGroup
	for w := 0; w < txns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			txid := uint64(w + 1)
			err := l.AppendAll(
				BeginRecord(txid),
				TxnInsertRecord(txid, "kv", [][]sqltypes.Value{{sqltypes.NewInt(int64(w))}}),
				CommitRecord(txid),
			)
			if err != nil {
				t.Errorf("txn %d: %v", w, err)
			}
		}(w)
	}
	wg.Wait()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	_, got, _ := collect(t, dir, Options{Sync: SyncNone})
	if len(got) != txns*3 {
		t.Fatalf("replayed %d records, want %d", len(got), txns*3)
	}
	// Each transaction's three records must be adjacent and ordered.
	for i := 0; i < len(got); i += 3 {
		if got[i].Type != RecBegin || got[i+1].Type != RecTxnInsert || got[i+2].Type != RecCommit {
			t.Fatalf("record run %d not contiguous: %d %d %d",
				i, got[i].Type, got[i+1].Type, got[i+2].Type)
		}
		id0, _ := got[i].Txid()
		id1, _, _, err := got[i+1].TxnInsert()
		if err != nil {
			t.Fatal(err)
		}
		id2, _ := got[i+2].Txid()
		if id0 != id1 || id1 != id2 {
			t.Fatalf("record run %d mixes txids %d/%d/%d", i, id0, id1, id2)
		}
	}
}

// TestTxnRecordRoundTrip pins the txn record encodings.
func TestTxnRecordRoundTrip(t *testing.T) {
	for _, rec := range []Record{BeginRecord(42), CommitRecord(42), RollbackRecord(42)} {
		id, err := rec.Txid()
		if err != nil {
			t.Fatal(err)
		}
		if id != 42 {
			t.Fatalf("txid = %d", id)
		}
	}
	rows := [][]sqltypes.Value{
		{sqltypes.NewInt(7), sqltypes.NewString("a"), sqltypes.Null},
		{sqltypes.NewFloat(1.5), sqltypes.NewBool(false), sqltypes.NewInt(-1)},
	}
	rec := TxnInsertRecord(9, "orders", rows)
	id, table, got, err := rec.TxnInsert()
	if err != nil {
		t.Fatal(err)
	}
	if id != 9 || table != "orders" {
		t.Fatalf("decoded txid=%d table=%q", id, table)
	}
	if fmt.Sprint(got) != fmt.Sprint(rows) {
		t.Fatalf("rows mismatch:\n got %v\nwant %v", got, rows)
	}
	if _, err := DDLRecord("x").Txid(); err == nil {
		t.Fatal("Txid on a DDL record must fail")
	}
}

// holdFlush marks a group flush in progress, so appenders park behind it
// until releaseFlush lets one of them become the flusher.
func holdFlush(l *Log) {
	l.gmu.Lock()
	l.syncing = true
	l.gmu.Unlock()
}

func releaseFlush(l *Log) {
	l.gmu.Lock()
	l.syncing = false
	l.gcond.Broadcast()
	l.gmu.Unlock()
}

// waitWriteGen returns once appends have taken write generation want, so
// each of them is parked on, or about to park on, a held flush.
func waitWriteGen(t *testing.T, l *Log, want uint64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		l.mu.Lock()
		gen := l.writeGen
		l.mu.Unlock()
		if gen == want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("write generation stuck at %d, want %d", gen, want)
		}
		time.Sleep(time.Millisecond)
	}
}

// appendParked starts one AppendAll per run and returns once every run is
// written and ticketed (want is the write generation that takes).
func appendParked(t *testing.T, l *Log, want uint64, runs ...[]Record) <-chan error {
	t.Helper()
	errs := make(chan error, len(runs))
	for _, run := range runs {
		go func(run []Record) { errs <- l.AppendAll(run...) }(run)
	}
	waitWriteGen(t, l, want)
	return errs
}

// TestGroupFlushFailureStopsLog: a failed fsync under two or more parked
// appenders fails every one of them and stops the log; on reopen every
// record acknowledged before the failure replays and nothing of the failed
// batch does.
func TestGroupFlushFailureStopsLog(t *testing.T) {
	dir := t.TempDir()
	l, _, _ := collect(t, dir, Options{Sync: SyncAlways})
	row := func(k int64) []sqltypes.Value { return []sqltypes.Value{sqltypes.NewInt(k)} }
	acked := committed(1, "kv", row(1))
	if err := l.AppendAll(acked...); err != nil {
		t.Fatal(err)
	}

	holdFlush(l)
	errs := appendParked(t, l, 4, committed(2, "kv", row(2)), committed(3, "kv", row(3)), committed(4, "kv", row(4)))
	injected := errors.New("injected fsync failure")
	fsyncFile = func(*os.File) error { return injected }
	defer func() { fsyncFile = (*os.File).Sync }()
	releaseFlush(l)
	for i := 0; i < 3; i++ {
		if err := <-errs; !errors.Is(err, injected) {
			t.Fatalf("parked appender %d: err = %v, want the failed fsync", i, err)
		}
	}
	if err := l.AppendAll(committed(5, "kv", row(5))...); err == nil {
		t.Fatal("append after a failed fsync succeeded")
	}
	l.Close()

	_, got, _ := collect(t, dir, Options{Sync: SyncNone})
	if !reflect.DeepEqual(got, acked) {
		t.Fatalf("replayed %d records, want exactly the %d acknowledged before the failure:\n%v", len(got), len(acked), got)
	}
}

// TestCloseAndRotationCoverParkedAppender: an appender parked behind a
// flush in progress whose record a Close or a Checkpoint's rotation then
// fsyncs is acknowledged, and its record replays, even though the log the
// flusher finds afterwards is closed or rotated.
func TestCloseAndRotationCoverParkedAppender(t *testing.T) {
	rec := DDLRecord("create table kv (k int);")
	for _, tc := range []struct {
		name string
		seal func(*Log) error
	}{
		{"close", (*Log).Close},
		{"checkpoint", func(l *Log) error {
			// The snapshot captures the state the parked record built.
			return l.Checkpoint(func(write func(Record) error) error { return write(rec) })
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			l, _, _ := collect(t, dir, Options{Sync: SyncAlways})
			holdFlush(l)
			errs := appendParked(t, l, 1, []Record{rec})
			if err := tc.seal(l); err != nil {
				t.Fatal(err)
			}
			releaseFlush(l)
			if err := <-errs; err != nil {
				t.Fatalf("parked append covered by %s: %v", tc.name, err)
			}
			l.Close()
			_, got, _ := collect(t, dir, Options{Sync: SyncNone})
			if !reflect.DeepEqual(got, []Record{rec}) {
				t.Fatalf("replayed %v, want the parked record", got)
			}
		})
	}
}
