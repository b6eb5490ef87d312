package wal

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"udfdecorr/internal/sqltypes"
)

// collect opens dir and gathers the replayed records.
func collect(t *testing.T, dir string, opts Options) (*Log, []Record, RecoveryStats) {
	t.Helper()
	var recs []Record
	l, st, err := Open(dir, opts, func(r Record) error {
		recs = append(recs, r)
		return nil
	})
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	return l, recs, st
}

// committed returns the record run of one committed transaction inserting
// rows into table.
func committed(txid uint64, table string, rows ...[]sqltypes.Value) []Record {
	return []Record{BeginRecord(txid), TxnInsertRecord(txid, table, rows), CommitRecord(txid)}
}

func TestAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, recs, _ := collect(t, dir, Options{Sync: SyncNone})
	if len(recs) != 0 {
		t.Fatalf("fresh dir replayed %d records", len(recs))
	}
	want := []Record{
		DDLRecord("create table kv (k int primary key, v varchar);"),
		IndexRecord("kv", "v"),
		BeginRecord(1),
		TxnInsertRecord(1, "kv", [][]sqltypes.Value{
			{sqltypes.NewInt(1), sqltypes.NewString("a")},
			{sqltypes.NewInt(-7), sqltypes.Null},
			{sqltypes.NewFloat(2.5), sqltypes.NewBool(true)},
		}),
		CommitRecord(1),
	}
	for _, r := range want {
		if err := l.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	_, got, st := collect(t, dir, Options{Sync: SyncNone})
	if st.WALRecords != int64(len(want)) {
		t.Fatalf("replayed %d records, want %d", st.WALRecords, len(want))
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("replay mismatch:\n got %+v\nwant %+v", got, want)
	}

	// Typed decoding survives the round trip.
	if sql, err := got[0].DDL(); err != nil || sql != "create table kv (k int primary key, v varchar);" {
		t.Fatalf("DDL() = %q, %v", sql, err)
	}
	if tb, col, err := got[1].Index(); err != nil || tb != "kv" || col != "v" {
		t.Fatalf("Index() = %q,%q,%v", tb, col, err)
	}
	id, tb, rows, err := got[3].TxnInsert()
	if err != nil || id != 1 || tb != "kv" || len(rows) != 3 {
		t.Fatalf("TxnInsert() = %d, %q, %d rows, %v", id, tb, len(rows), err)
	}
	if rows[1][1].Kind() != sqltypes.KindNull || rows[2][0].Kind() != sqltypes.KindFloat {
		t.Fatalf("value kinds not preserved: %+v", rows)
	}
}

func TestSegmentRotation(t *testing.T) {
	dir := t.TempDir()
	l, _, _ := collect(t, dir, Options{Sync: SyncNone, SegmentBytes: 256})
	for i := 0; i < 50; i++ {
		if err := l.Append(DDLRecord("create table t (k int); -- padding padding padding")); err != nil {
			t.Fatal(err)
		}
	}
	if seg := l.Stats().Segment; seg < 2 {
		t.Fatalf("expected rotation past segment 1, at %d", seg)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	_, recs, st := collect(t, dir, Options{Sync: SyncNone, SegmentBytes: 256})
	if len(recs) != 50 {
		t.Fatalf("replayed %d records across %d segments, want 50", len(recs), st.Segments)
	}
	if st.Segments < 2 {
		t.Fatalf("expected multiple segments, scanned %d", st.Segments)
	}
}

func TestTornFinalRecordTruncated(t *testing.T) {
	dir := t.TempDir()
	l, _, _ := collect(t, dir, Options{Sync: SyncNone})
	for i := 0; i < 3; i++ {
		if err := l.Append(DDLRecord("statement;")); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()

	seg := filepath.Join(dir, segName(1))
	fi, _ := os.Stat(seg)
	sizes := []int64{
		fi.Size() - 1,               // payload cut by one byte
		fi.Size() - 10,              // cut into the middle of the last frame
		fi.Size()/3*2 + frameHeader, // header present, body missing
	}
	for _, sz := range sizes {
		if err := os.Truncate(seg, sz); err != nil {
			t.Fatal(err)
		}
		l2, recs, st := collect(t, dir, Options{Sync: SyncNone})
		if len(recs) >= 3 {
			t.Fatalf("truncate to %d: torn record replayed (got %d records)", sz, len(recs))
		}
		if st.TornBytes == 0 {
			t.Fatalf("truncate to %d: torn bytes not reported", sz)
		}
		// The log must be appendable after truncation.
		if err := l2.Append(DDLRecord("after;")); err != nil {
			t.Fatal(err)
		}
		l2.Close()
		l3, recs2, st2 := collect(t, dir, Options{Sync: SyncNone})
		l3.Close()
		if len(recs2) != len(recs)+1 || st2.TornBytes != 0 {
			t.Fatalf("truncate to %d: append-after-truncate broken (%d -> %d records, torn %d)",
				sz, len(recs), len(recs2), st2.TornBytes)
		}
		// The next iteration's truncate re-cuts the same segment, so the
		// appended record does not leak across cases.
	}
}

func TestCRCCorruptionMidLogFails(t *testing.T) {
	dir := t.TempDir()
	l, _, _ := collect(t, dir, Options{Sync: SyncNone})
	for i := 0; i < 3; i++ {
		if err := l.Append(DDLRecord("statement number one with some length;")); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()

	seg := filepath.Join(dir, segName(1))
	buf, _ := os.ReadFile(seg)
	buf[frameHeader+5] ^= 0x01 // flip a payload bit in the FIRST record
	if err := os.WriteFile(seg, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err := Open(dir, Options{Sync: SyncNone}, func(Record) error { return nil })
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("corrupted mid-log record: err = %v, want ErrCorrupt", err)
	}
}

func TestTornTailInNonFinalSegmentFails(t *testing.T) {
	dir := t.TempDir()
	l, _, _ := collect(t, dir, Options{Sync: SyncNone, SegmentBytes: 64})
	for i := 0; i < 10; i++ {
		if err := l.Append(DDLRecord("some statement that forces rotation;")); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	// Cut the FIRST segment short: that hole cannot be a torn append.
	seg1 := filepath.Join(dir, segName(1))
	fi, _ := os.Stat(seg1)
	if err := os.Truncate(seg1, fi.Size()-3); err != nil {
		t.Fatal(err)
	}
	_, _, err := Open(dir, Options{Sync: SyncNone, SegmentBytes: 64}, func(Record) error { return nil })
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("short non-final segment: err = %v, want ErrCorrupt", err)
	}
}

func TestEmptySegmentIsValid(t *testing.T) {
	dir := t.TempDir()
	l, _, _ := collect(t, dir, Options{Sync: SyncNone})
	l.Close()
	// Simulate a crash right after rotation created an empty next segment.
	if err := os.WriteFile(filepath.Join(dir, segName(2)), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	l2, recs, _ := collect(t, dir, Options{Sync: SyncNone})
	if len(recs) != 0 {
		t.Fatalf("empty segments replayed %d records", len(recs))
	}
	if err := l2.Append(DDLRecord("after;")); err != nil {
		t.Fatal(err)
	}
	l2.Close()
	_, recs, _ = collect(t, dir, Options{Sync: SyncNone})
	if len(recs) != 1 {
		t.Fatalf("append after empty segment lost: %d records", len(recs))
	}
}

func TestCheckpointTruncatesAndBounds(t *testing.T) {
	dir := t.TempDir()
	l, _, _ := collect(t, dir, Options{Sync: SyncNone, SegmentBytes: 128})
	for i := 0; i < 20; i++ {
		if err := l.Append(DDLRecord("pre-checkpoint statement with padding;")); err != nil {
			t.Fatal(err)
		}
	}
	snapshotState := []Record{DDLRecord("state summary;")}
	if err := l.Checkpoint(func(write func(Record) error) error {
		for _, r := range snapshotState {
			if err := write(r); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(DDLRecord("post-checkpoint;")); err != nil {
		t.Fatal(err)
	}
	l.Close()

	_, recs, st := collect(t, dir, Options{Sync: SyncNone, SegmentBytes: 128})
	if st.SnapshotRecords != 1 {
		t.Fatalf("snapshot records = %d, want 1", st.SnapshotRecords)
	}
	// Only the post-checkpoint tail replays from segments.
	if st.WALRecords != 1 {
		t.Fatalf("wal records = %d, want 1 (pre-checkpoint history must be gone)", st.WALRecords)
	}
	want := append(append([]Record{}, snapshotState...), DDLRecord("post-checkpoint;"))
	if !reflect.DeepEqual(recs, want) {
		t.Fatalf("replay after checkpoint:\n got %+v\nwant %+v", recs, want)
	}
}

// TestCheckpointCrashWindows walks the two crash points around a checkpoint:
// before the snapshot rename (old state must win) and after the rename but
// before old-segment deletion (new snapshot must win, stale segments must be
// ignored and cleaned).
func TestCheckpointCrashWindows(t *testing.T) {
	dir := t.TempDir()
	l, _, _ := collect(t, dir, Options{Sync: SyncNone})
	if err := l.Append(DDLRecord("history;")); err != nil {
		t.Fatal(err)
	}
	l.Close()

	// Crash before rename: a leftover temp snapshot must be ignored.
	if err := os.WriteFile(filepath.Join(dir, snapTempName), []byte("half-written"), 0o644); err != nil {
		t.Fatal(err)
	}
	l2, recs, _ := collect(t, dir, Options{Sync: SyncNone})
	if len(recs) != 1 {
		t.Fatalf("temp snapshot changed replay: %d records", len(recs))
	}
	if _, err := os.Stat(filepath.Join(dir, snapTempName)); !errors.Is(err, os.ErrNotExist) {
		t.Fatal("temp snapshot not cleaned up")
	}

	// Crash after rename, before deletion: write a real snapshot naming
	// segment 2 as the boundary, keep the stale segment 1 on disk.
	if err := writeSnapshot(dir, 2, func(write func(Record) error) error {
		return write(DDLRecord("snapshot state;"))
	}); err != nil {
		t.Fatal(err)
	}
	l2.Close()
	_, recs, st := collect(t, dir, Options{Sync: SyncNone})
	if st.SnapshotRecords != 1 || st.WALRecords != 0 {
		t.Fatalf("stale segment replayed: snap=%d wal=%d", st.SnapshotRecords, st.WALRecords)
	}
	if len(recs) != 1 || string(recs[0].Payload) != "snapshot state;" {
		t.Fatalf("wrong winner after crashed checkpoint: %+v", recs)
	}
	if _, err := os.Stat(filepath.Join(dir, segName(1))); !errors.Is(err, os.ErrNotExist) {
		t.Fatal("stale pre-checkpoint segment not removed")
	}
}

func TestMissingBoundarySegmentFails(t *testing.T) {
	dir := t.TempDir()
	l, _, _ := collect(t, dir, Options{Sync: SyncNone})
	if err := l.Append(DDLRecord("pre;")); err != nil {
		t.Fatal(err)
	}
	if err := l.Checkpoint(func(write func(Record) error) error {
		return write(DDLRecord("state;"))
	}); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(DDLRecord("post;")); err != nil {
		t.Fatal(err)
	}
	l.Close()

	// Deleting the boundary segment (the one the snapshot names) loses its
	// committed records; recovery must refuse, not silently skip ahead.
	if err := os.Remove(filepath.Join(dir, segName(2))); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, segName(3)), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err := Open(dir, Options{Sync: SyncNone}, func(Record) error { return nil })
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("missing boundary segment: err = %v, want ErrCorrupt", err)
	}

	// Same refusal when the snapshot is deleted but post-checkpoint
	// segments remain: replay can no longer start from scratch.
	dir2 := t.TempDir()
	l2, _, _ := collect(t, dir2, Options{Sync: SyncNone})
	if err := l2.Checkpoint(func(write func(Record) error) error { return nil }); err != nil {
		t.Fatal(err)
	}
	l2.Close()
	if err := os.Remove(filepath.Join(dir2, snapName)); err != nil {
		t.Fatal(err)
	}
	_, _, err = Open(dir2, Options{Sync: SyncNone}, func(Record) error { return nil })
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("deleted snapshot with live post-checkpoint segments: err = %v, want ErrCorrupt", err)
	}
}

func TestDirLockExcludesSecondOpen(t *testing.T) {
	dir := t.TempDir()
	l, _, _ := collect(t, dir, Options{Sync: SyncNone})
	if _, _, err := Open(dir, Options{Sync: SyncNone}, func(Record) error { return nil }); err == nil {
		t.Fatal("second Open succeeded while the first process holds the directory")
	}
	if err := l.Append(DDLRecord("still mine;")); err != nil {
		t.Fatalf("lock-holder append after contended open: %v", err)
	}
	l.Close()
	// Close releases the lock: the directory is reopenable.
	l2, recs, _ := collect(t, dir, Options{Sync: SyncNone})
	if len(recs) != 1 {
		t.Fatalf("replay after lock release: %d records", len(recs))
	}
	l2.Close()
}

func TestOversizedRecordRejected(t *testing.T) {
	dir := t.TempDir()
	l, _, _ := collect(t, dir, Options{Sync: SyncNone})
	defer l.Close()
	big := Record{Type: RecDDL, Payload: make([]byte, maxRecordBody)}
	if err := l.Append(big); err == nil {
		t.Fatal("oversized append accepted — it would be unreadable on recovery")
	}
	// The refusal must leave the log consistent and appendable.
	if err := l.Append(DDLRecord("ok;")); err != nil {
		t.Fatal(err)
	}
	if err := l.Checkpoint(func(write func(Record) error) error {
		return write(big)
	}); err == nil {
		t.Fatal("oversized snapshot record accepted")
	}
	l.Close()
	_, recs, _ := collect(t, dir, Options{Sync: SyncNone})
	if len(recs) != 1 || string(recs[0].Payload) != "ok;" {
		t.Fatalf("log inconsistent after rejected records: %+v", recs)
	}
}

func TestIncompleteSnapshotFails(t *testing.T) {
	dir := t.TempDir()
	// A snapshot missing its end marker (truncated rename target — should be
	// impossible with atomic rename, but refuse loudly if it happens).
	frame := appendFrame(nil, Record{Type: recSnapBegin, Payload: make([]byte, 8)})
	frame = appendFrame(frame, DDLRecord("state;"))
	if err := os.WriteFile(filepath.Join(dir, snapName), frame, 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err := Open(dir, Options{Sync: SyncNone}, func(Record) error { return nil })
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("incomplete snapshot: err = %v, want ErrCorrupt", err)
	}
}

func TestSyncPolicies(t *testing.T) {
	for _, tc := range []struct {
		in      string
		policy  SyncPolicy
		wantErr bool
	}{
		{"always", SyncAlways, false},
		{"", SyncAlways, false},
		{"none", SyncNone, false},
		{"off", SyncNone, false},
		{"never", SyncNone, false},
		{"group", 0, true},
		{"250ms", 0, true},
		{"sometimes", 0, true},
	} {
		p, err := ParseSyncPolicy(tc.in)
		if tc.wantErr != (err != nil) {
			t.Fatalf("ParseSyncPolicy(%q): err = %v", tc.in, err)
		}
		if err == nil && p != tc.policy {
			t.Fatalf("ParseSyncPolicy(%q) = %v", tc.in, p)
		}
	}

	// Appends under each policy must be replayable.
	for _, opts := range []Options{
		{Sync: SyncAlways},
		{Sync: SyncNone},
	} {
		dir := t.TempDir()
		l, _, _ := collect(t, dir, opts)
		for i := 0; i < 5; i++ {
			if err := l.Append(DDLRecord("x;")); err != nil {
				t.Fatal(err)
			}
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		_, recs, _ := collect(t, dir, opts)
		if len(recs) != 5 {
			t.Fatalf("policy %v: replayed %d/5", opts.Sync, len(recs))
		}
	}
}
