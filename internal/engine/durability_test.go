package engine_test

// Durability tests: a durable engine must recover — from a clean close, a
// checkpoint + log tail, and a torn log tail — to a state on which the full
// differential corpus produces exactly the rows a never-restarted volatile
// engine produces.

import (
	"errors"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"

	"udfdecorr/internal/bench"
	"udfdecorr/internal/engine"
	"udfdecorr/internal/wal"
)

// openDurable opens a durable engine in dir with test-friendly options
// (no fsync: tests care about logical consistency, not power loss).
func openDurable(t *testing.T, dir string) *engine.Engine {
	t.Helper()
	e, err := engine.OpenDurable(dir, engine.SYS1, engine.ModeRewrite,
		engine.DurabilityOptions{Sync: wal.SyncNone})
	if err != nil {
		t.Fatalf("OpenDurable(%s): %v", dir, err)
	}
	return e
}

// populateDurable fills a durable engine with the bench dataset + extra UDFs.
func populateDurable(t *testing.T, e *engine.Engine) {
	t.Helper()
	if err := bench.Populate(e, bench.SmallConfig()); err != nil {
		t.Fatal(err)
	}
	if err := e.ExecScript(bench.ExtraUDFs); err != nil {
		t.Fatal(err)
	}
}

// assertCorpusEqual runs the full differential corpus on both engines and
// compares row multisets.
func assertCorpusEqual(t *testing.T, want, got *engine.Engine) {
	t.Helper()
	for _, q := range bench.Corpus {
		w, err := want.Query(q.SQL)
		if err != nil {
			t.Fatalf("%s on reference engine: %v", q.Name, err)
		}
		g, err := got.Query(q.SQL)
		if err != nil {
			t.Fatalf("%s on recovered engine: %v", q.Name, err)
		}
		assertSameRowMultiset(t, q.Name, w.Rows, g.Rows)
	}
}

// stateFingerprint summarizes an engine's durable state: table names, row
// counts, index declarations, function names.
func stateFingerprint(e *engine.Engine) string {
	var parts []string
	for _, tb := range e.Cat.Tables() {
		st, ok := e.Store.Table(tb.Name)
		n := 0
		if ok {
			n = st.RowCount()
		}
		ix := append([]string(nil), tb.Indexes...)
		sort.Strings(ix)
		parts = append(parts, tb.Name+":"+strings.Join(ix, ",")+":"+strconv.Itoa(n))
	}
	for _, f := range e.Cat.Functions() {
		parts = append(parts, "fn:"+f.Def.Name)
	}
	return strings.Join(parts, ";")
}

func TestDurableRecoveryMatchesVolatile(t *testing.T) {
	dir := t.TempDir()
	e1 := openDurable(t, dir)
	populateDurable(t, e1)

	// Reference: a volatile engine with identical data that never restarts.
	ref := diffEngine(t, engine.SYS1, engine.ModeRewrite, bench.SmallConfig())

	assertCorpusEqual(t, ref, e1)
	if err := e1.Durable.Close(); err != nil {
		t.Fatal(err)
	}

	e2 := openDurable(t, dir)
	if got := e2.Durable.Stats().RecoveredRecords; got == 0 {
		t.Fatal("expected recovered records after reopen")
	}
	if f1, f2 := stateFingerprint(e1), stateFingerprint(e2); f1 != f2 {
		t.Fatalf("state fingerprint changed across restart:\n pre: %s\npost: %s", f1, f2)
	}
	assertCorpusEqual(t, ref, e2)
}

func TestDurableCheckpointTruncatesAndRecovers(t *testing.T) {
	dir := t.TempDir()
	e1 := openDurable(t, dir)
	populateDurable(t, e1)

	preBytes := e1.Durable.Stats().WALBytes
	if preBytes == 0 {
		t.Fatal("expected a non-empty WAL after populate")
	}
	if err := e1.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	st := e1.Durable.Stats()
	if st.Checkpoints != 1 {
		t.Fatalf("checkpoints = %d, want 1", st.Checkpoints)
	}
	if st.WALBytes >= preBytes {
		t.Fatalf("checkpoint did not truncate the log: %d -> %d bytes", preBytes, st.WALBytes)
	}

	// Mutations after the checkpoint land in the log tail.
	if err := e1.ExecScript("insert into customer values (99001, 'post-ckpt', 1, 1);"); err != nil {
		t.Fatal(err)
	}
	if err := e1.Durable.Close(); err != nil {
		t.Fatal(err)
	}

	e2 := openDurable(t, dir)
	res, err := e2.Query("select name from customer where custkey = 99001")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].Str() != "post-ckpt" {
		t.Fatalf("post-checkpoint insert lost: %v", res.Rows)
	}
	if f1, f2 := stateFingerprint(e1), stateFingerprint(e2); f1 != f2 {
		t.Fatalf("fingerprint mismatch after checkpoint+tail recovery:\n pre: %s\npost: %s", f1, f2)
	}
}

// TestDurableRecoveryIdempotent: running recovery twice (open, close, open)
// must converge — replaying the same snapshot + tail into a fresh engine
// yields the same state, with no duplicated rows or DDL.
func TestDurableRecoveryIdempotent(t *testing.T) {
	dir := t.TempDir()
	e1 := openDurable(t, dir)
	populateDurable(t, e1)
	if err := e1.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := e1.ExecScript("insert into customer values (99002, 'tail', 2, 1);"); err != nil {
		t.Fatal(err)
	}
	if err := e1.Durable.Close(); err != nil {
		t.Fatal(err)
	}
	want := stateFingerprint(e1)

	for i := 0; i < 2; i++ {
		e := openDurable(t, dir)
		if got := stateFingerprint(e); got != want {
			t.Fatalf("open #%d diverged:\nwant: %s\n got: %s", i+1, want, got)
		}
		if err := e.Durable.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestDurableIndexesSurviveRestart(t *testing.T) {
	dir := t.TempDir()
	e1 := openDurable(t, dir)
	if err := e1.ExecScript("create table kv (k int primary key, v varchar);"); err != nil {
		t.Fatal(err)
	}
	if err := e1.CreateIndex("kv", "v"); err != nil {
		t.Fatal(err)
	}
	if err := e1.Durable.Close(); err != nil {
		t.Fatal(err)
	}

	e2 := openDurable(t, dir)
	tb, ok := e2.Cat.Table("kv")
	if !ok {
		t.Fatal("table kv not recovered")
	}
	if len(tb.Indexes) != 1 || tb.Indexes[0] != "v" {
		t.Fatalf("index not recovered: %v", tb.Indexes)
	}
}

// TestDurableTornTail simulates a kill -9 mid-append: the final record of
// the last segment is cut short, recovery must keep everything before it.
func TestDurableTornTail(t *testing.T) {
	dir := t.TempDir()
	e1 := openDurable(t, dir)
	// Two scripts, so the two inserts are two log groups.
	if err := e1.ExecScript(`create table kv (k int primary key, v varchar);
		insert into kv values (1, 'a');`); err != nil {
		t.Fatal(err)
	}
	if err := e1.ExecScript("insert into kv values (2, 'b');"); err != nil {
		t.Fatal(err)
	}
	if err := e1.Durable.Close(); err != nil {
		t.Fatal(err)
	}

	seg := lastSegment(t, dir)
	fi, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	// Cut into the final record's frame (the second insert's commit
	// record: recovery must drop that whole group, not just the record).
	if err := os.Truncate(seg, fi.Size()-5); err != nil {
		t.Fatal(err)
	}

	e2 := openDurable(t, dir)
	if torn := e2.Durable.Stats().TornBytes; torn == 0 {
		t.Fatal("expected a truncated torn tail to be reported")
	}
	res, err := e2.Query("select k from kv")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].Int() != 1 {
		t.Fatalf("torn-tail recovery kept wrong rows: %v", res.Rows)
	}
	// The truncated log must append cleanly again.
	if err := e2.ExecScript("insert into kv values (3, 'c');"); err != nil {
		t.Fatal(err)
	}
	if err := e2.Durable.Close(); err != nil {
		t.Fatal(err)
	}
	e3 := openDurable(t, dir)
	res, err = e3.Query("select count(*) from kv")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].Int() != 2 {
		t.Fatalf("post-torn append lost: count = %v", res.Rows[0][0])
	}
}

// TestDurableCorruptLogFails: a CRC-corrupted record mid-log is real damage,
// not a torn tail — recovery must refuse rather than silently drop data.
func TestDurableCorruptLogFails(t *testing.T) {
	dir := t.TempDir()
	e1 := openDurable(t, dir)
	if err := e1.ExecScript(`create table kv (k int primary key, v varchar);
		insert into kv values (1, 'a');
		insert into kv values (2, 'b');`); err != nil {
		t.Fatal(err)
	}
	if err := e1.Durable.Close(); err != nil {
		t.Fatal(err)
	}

	seg := lastSegment(t, dir)
	buf, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	buf[12] ^= 0xff // flip a bit in the first record's body (8-byte frame header)
	if err := os.WriteFile(seg, buf, 0o644); err != nil {
		t.Fatal(err)
	}

	_, err = engine.OpenDurable(dir, engine.SYS1, engine.ModeRewrite,
		engine.DurabilityOptions{Sync: wal.SyncNone})
	if err == nil {
		t.Fatal("expected corruption error")
	}
	if !errors.Is(err, wal.ErrCorrupt) {
		t.Fatalf("error %v is not wal.ErrCorrupt", err)
	}
}

func TestVolatileCheckpointErrors(t *testing.T) {
	e := engine.New(engine.SYS1, engine.ModeRewrite)
	if err := e.Checkpoint(); err == nil {
		t.Fatal("expected an error checkpointing a volatile engine")
	}
}

func lastSegment(t *testing.T, dir string) string {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segments in %s (err=%v)", dir, err)
	}
	sort.Strings(segs)
	return segs[len(segs)-1]
}
