package engine_test

// Columnar checkpoint tests: a checkpoint written by this binary snapshots
// table data as column-major RecSegment records, and recovery rebuilds the
// columnar store from them; a row-major RecInsert record, written only by
// earlier binaries, is refused by name.

import (
	"fmt"
	"strings"
	"testing"

	"udfdecorr/internal/engine"
	"udfdecorr/internal/sqltypes"
	"udfdecorr/internal/storage"
	"udfdecorr/internal/wal"
)

// fillTable loads n fixture rows (i, 2i) into a durable engine's table in
// misaligned batches so the data spans several column segments.
func fillTable(t *testing.T, e *engine.Engine, name string, n int) {
	t.Helper()
	const per = 777
	for lo := 0; lo < n; lo += per {
		hi := lo + per
		if hi > n {
			hi = n
		}
		rows := make([]storage.Row, 0, hi-lo)
		for i := lo; i < hi; i++ {
			rows = append(rows, storage.Row{sqltypes.NewInt(int64(i)), sqltypes.NewInt(int64(2 * i))})
		}
		if err := e.Load(name, rows); err != nil {
			t.Fatal(err)
		}
	}
}

// checkFixture verifies the recovered table holds exactly the n fixture
// rows in well-formed segments (every segment but the last full).
func checkFixture(t *testing.T, e *engine.Engine, name string, n int) {
	t.Helper()
	st, ok := e.Store.Table(name)
	if !ok {
		t.Fatalf("table %s missing after recovery", name)
	}
	v := st.Version()
	if v.RowCount() != n {
		t.Fatalf("table %s: %d rows after recovery, want %d", name, v.RowCount(), n)
	}
	segs := v.Segments()
	seen := map[int64]bool{}
	for si, sg := range segs {
		if si < len(segs)-1 && sg.Len() != storage.SegmentRows {
			t.Fatalf("recovered segment %d/%d has %d rows, want full %d",
				si, len(segs), sg.Len(), storage.SegmentRows)
		}
		for i := 0; i < sg.Len(); i++ {
			k := sg.Col(0)[i].Int()
			if sg.Col(1)[i].Int() != 2*k {
				t.Fatalf("recovered row k=%d has v=%d, want %d", k, sg.Col(1)[i].Int(), 2*k)
			}
			if seen[k] {
				t.Fatalf("recovered row k=%d duplicated", k)
			}
			seen[k] = true
		}
	}
	if len(seen) != n {
		t.Fatalf("recovered %d distinct rows, want %d", len(seen), n)
	}
}

// walRecordTypes replays a closed data directory and counts record types
// (snapshot and log tail together).
func walRecordTypes(t *testing.T, dir string) map[byte]int {
	t.Helper()
	counts := map[byte]int{}
	log, _, err := wal.Open(dir, wal.Options{Sync: wal.SyncNone}, func(rec wal.Record) error {
		counts[rec.Type]++
		return nil
	})
	if err != nil {
		t.Fatalf("reopening %s to inspect records: %v", dir, err)
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	return counts
}

func TestColumnarCheckpointRoundTrip(t *testing.T) {
	dir := t.TempDir()
	e1 := openDurable(t, dir)
	if err := e1.ExecScript("create table ck (k int primary key, v int);"); err != nil {
		t.Fatal(err)
	}
	n := 2*storage.SegmentRows + 123
	fillTable(t, e1, "ck", n)
	if err := e1.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := e1.Durable.Close(); err != nil {
		t.Fatal(err)
	}

	// The checkpoint snapshot must be column-major: RecSegment records
	// covering the data, no row-major RecInsert snapshot left behind.
	counts := walRecordTypes(t, dir)
	if counts[wal.RecSegment] < 3 { // two full segments + one partial
		t.Fatalf("checkpoint wrote %d RecSegment records, want >= 3 (types: %v)",
			counts[wal.RecSegment], counts)
	}
	if counts[wal.RecInsert] != 0 {
		t.Fatalf("checkpoint left %d row-major RecInsert records", counts[wal.RecInsert])
	}

	e2 := openDurable(t, dir)
	if e2.Durable.Stats().RecoveredRecords == 0 {
		t.Fatal("expected recovered records after reopen")
	}
	checkFixture(t, e2, "ck", n)
	res, err := e2.Query("select count(*) from ck where v = k + k")
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Rows[0][0].Int(); got != int64(n) {
		t.Fatalf("recovered query sees %d consistent rows, want %d", got, n)
	}
}

// TestRowMajorInsertRecordRefused: a log holding a kind-3 record (the
// row-major insert batch of binaries from before transactional row logging)
// fails recovery with an error that names the record and the way out,
// rather than replaying it or skipping it silently.
func TestRowMajorInsertRecordRefused(t *testing.T) {
	dir := t.TempDir()
	log, _, err := wal.Open(dir, wal.Options{Sync: wal.SyncNone}, func(wal.Record) error {
		return fmt.Errorf("fresh dir must have no records")
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := log.AppendAll(
		wal.DDLRecord("create table legacy (k int primary key, v int);"),
		wal.Record{Type: wal.RecInsert, Payload: []byte("row-major rows")},
	); err != nil {
		t.Fatal(err)
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	_, err = engine.OpenDurable(dir, engine.SYS1, engine.ModeRewrite, engine.DurabilityOptions{Sync: wal.SyncNone})
	if err == nil {
		t.Fatal("recovery replayed a row-major insert record")
	}
	for _, want := range []string{"record kind 3", "row-major insert", "checkpoint"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("recovery error %q does not mention %q", err, want)
		}
	}
}
