// Replication-stream tests: a reader tailing a live log must see exactly the
// appended records, in order, cut only at frame boundaries — no matter how it
// races appends, group-commit fsyncs and segment rotations. Run under -race.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"strings"
	"sync"
	"testing"
	"time"
)

// tailAll drains the log from (1,0) until n records arrive or the deadline
// passes, verifying every chunk is a whole-frame run.
func tailAll(t *testing.T, l *Log, n int, deadline time.Duration) []Record {
	t.Helper()
	var got []Record
	seg, off := uint64(1), int64(0)
	timeout := time.After(deadline)
	for len(got) < n {
		select {
		case <-timeout:
			t.Fatalf("tail stalled: %d/%d records (at segment %d offset %d)", len(got), n, seg, off)
		default:
		}
		watch := l.TipWatch()
		data, sealed, err := l.ReadSegment(seg, off, 4096)
		if err != nil {
			t.Fatalf("ReadSegment(%d,%d): %v", seg, off, err)
		}
		recs, consumed, err := ScanFrames(data, func(r Record) error {
			got = append(got, r)
			return nil
		})
		if err != nil {
			t.Fatalf("ScanFrames at segment %d offset %d: %v", seg, off, err)
		}
		if consumed != int64(len(data)) {
			t.Fatalf("ReadSegment returned a partial frame: consumed %d of %d bytes", consumed, len(data))
		}
		off += consumed
		if sealed {
			seg, off = seg+1, 0
			continue
		}
		if recs == 0 {
			select {
			case <-watch:
			case <-time.After(50 * time.Millisecond):
			}
		}
	}
	return got
}

// TestTailRacesGroupCommitAndRotation is the live-tail race test: concurrent
// writers under group-commit fsync with aggressive rotation, one reader
// tailing from the start. The reader must observe every acknowledged record
// exactly once, each writer's records in order, and only whole CRC-valid
// frames (ScanFrames fails the test on any torn or corrupt chunk).
func TestTailRacesGroupCommitAndRotation(t *testing.T) {
	dir := t.TempDir()
	l, _, _ := collect(t, dir, Options{Sync: SyncAlways, SegmentBytes: 2048})
	defer l.Close()

	const writers, perWriter = 4, 100
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				rec := DDLRecord(fmt.Sprintf("writer %d record %d -- padding to make frames non-trivial", w, i))
				if err := l.AppendAll(rec); err != nil {
					t.Errorf("writer %d: %v", w, err)
					return
				}
			}
		}(w)
	}

	got := tailAll(t, l, writers*perWriter, 30*time.Second)
	wg.Wait()

	// Every record exactly once, and per-writer order preserved.
	nextPerWriter := make([]int, writers)
	seen := map[string]bool{}
	for _, r := range got {
		sql, err := r.DDL()
		if err != nil {
			t.Fatalf("unexpected record type %d", r.Type)
		}
		if seen[sql] {
			t.Fatalf("record observed twice: %q", sql)
		}
		seen[sql] = true
		var w, i int
		if _, err := fmt.Sscanf(sql, "writer %d record %d", &w, &i); err != nil {
			t.Fatalf("unparseable record %q", sql)
		}
		if i != nextPerWriter[w] {
			t.Fatalf("writer %d records out of order: got %d, want %d", w, i, nextPerWriter[w])
		}
		nextPerWriter[w]++
	}
	if st := l.Stats(); st.Segment < 2 {
		t.Fatalf("test did not exercise rotation (still at segment %d)", st.Segment)
	}
}

// TestTailNeverSeesUnsyncedBytes: under group commit the durable tip trails
// the written bytes; a reader must never be handed bytes that have not been
// fsynced (they could vanish in a crash, forking the replica's history).
func TestTailNeverSeesUnsyncedBytes(t *testing.T) {
	dir := t.TempDir()
	l, _, _ := collect(t, dir, Options{Sync: SyncAlways})
	defer l.Close()
	if err := l.AppendAll(DDLRecord("one;")); err != nil {
		t.Fatal(err)
	}
	tip := l.StreamTip()
	if tip.Records != 1 {
		t.Fatalf("tip records = %d, want 1", tip.Records)
	}
	data, sealed, err := l.ReadSegment(tip.Segment, 0, 1<<20)
	if err != nil || sealed {
		t.Fatalf("ReadSegment: %v sealed=%v", err, sealed)
	}
	if int64(len(data)) != tip.Offset {
		t.Fatalf("read %d bytes, durable tip is %d", len(data), tip.Offset)
	}
	// A reader positioned exactly at the tip gets nothing (and no error).
	data, sealed, err = l.ReadSegment(tip.Segment, tip.Offset, 1<<20)
	if err != nil || sealed || len(data) != 0 {
		t.Fatalf("read at tip: %d bytes, sealed=%v, err=%v", len(data), sealed, err)
	}
}

// TestReadSegmentCutsAtFrameBoundary: a maxBytes that lands mid-frame must
// shorten the chunk to whole frames, never split one.
func TestReadSegmentCutsAtFrameBoundary(t *testing.T) {
	dir := t.TempDir()
	l, _, _ := collect(t, dir, Options{Sync: SyncAlways})
	defer l.Close()
	payload := strings.Repeat("x", 100)
	for i := 0; i < 5; i++ {
		if err := l.AppendAll(DDLRecord(payload)); err != nil {
			t.Fatal(err)
		}
	}
	frame := frameHeader + 1 + 100 // header + type byte + payload
	data, sealed, err := l.ReadSegment(1, 0, frame+frame/2)
	if err != nil {
		t.Fatal(err)
	}
	if sealed {
		t.Fatal("truncated read reported sealed")
	}
	if len(data) != frame {
		t.Fatalf("read %d bytes, want exactly one %d-byte frame", len(data), frame)
	}
	if n, _, err := ScanFrames(data, func(Record) error { return nil }); err != nil || n != 1 {
		t.Fatalf("ScanFrames on cut chunk: %d records, %v", n, err)
	}
}

// TestRetentionKeepsCatchUpWindow: RetainSegments sealed segments survive a
// checkpoint; older ones are deleted and report ErrSegmentGone; wal.Stats
// exposes the oldest/newest bounds.
func TestRetentionKeepsCatchUpWindow(t *testing.T) {
	dir := t.TempDir()
	l, _, _ := collect(t, dir, Options{Sync: SyncNone, SegmentBytes: 256, RetainSegments: 2})
	for i := 0; i < 60; i++ {
		if err := l.AppendAll(DDLRecord("padding padding padding padding padding;")); err != nil {
			t.Fatal(err)
		}
	}
	before := l.Stats()
	if before.Segment < 4 {
		t.Fatalf("need several segments to test retention, got %d", before.Segment)
	}
	if err := l.Checkpoint(func(write func(Record) error) error { return nil }); err != nil {
		t.Fatal(err)
	}
	st := l.Stats()
	if st.NewestSegment != before.Segment+1 {
		t.Fatalf("newest segment %d, want %d", st.NewestSegment, before.Segment+1)
	}
	wantOldest := st.NewestSegment - 2
	if st.OldestSegment != wantOldest {
		t.Fatalf("oldest segment %d, want %d (retain 2)", st.OldestSegment, wantOldest)
	}
	segs, err := SegmentFiles(dir)
	if err != nil {
		t.Fatal(err)
	}
	if segs[0] != wantOldest {
		t.Fatalf("on-disk oldest segment %d, want %d", segs[0], wantOldest)
	}
	// Retained segments are readable; below the horizon is ErrSegmentGone.
	if _, _, err := l.ReadSegment(wantOldest, 0, 1<<20); err != nil {
		t.Fatalf("reading retained segment: %v", err)
	}
	if _, _, err := l.ReadSegment(wantOldest-1, 0, 1<<20); !errors.Is(err, ErrSegmentGone) {
		t.Fatalf("reading dropped segment: err=%v, want ErrSegmentGone", err)
	}
	l.Close()

	// Retained (pre-checkpoint) segments must not replay on reopen: the
	// snapshot boundary wins, and the stale run below it is cleaned up.
	l2, recs, _ := collect(t, dir, Options{Sync: SyncNone, SegmentBytes: 256, RetainSegments: 2})
	defer l2.Close()
	if len(recs) != 0 {
		t.Fatalf("retained segments replayed %d records; snapshot boundary ignored", len(recs))
	}
}

// TestNoRetentionDeletesImmediately preserves the pre-retention behavior:
// RetainSegments 0 leaves only the fresh post-checkpoint segment.
func TestNoRetentionDeletesImmediately(t *testing.T) {
	dir := t.TempDir()
	l, _, _ := collect(t, dir, Options{Sync: SyncNone, SegmentBytes: 256})
	defer l.Close()
	for i := 0; i < 30; i++ {
		if err := l.AppendAll(DDLRecord("padding padding padding padding;")); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Checkpoint(func(write func(Record) error) error { return nil }); err != nil {
		t.Fatal(err)
	}
	segs, err := SegmentFiles(dir)
	if err != nil {
		t.Fatal(err)
	}
	st := l.Stats()
	if len(segs) != 1 || segs[0] != st.Segment {
		t.Fatalf("segments on disk after checkpoint: %v, want just %d", segs, st.Segment)
	}
	if st.OldestSegment != st.NewestSegment {
		t.Fatalf("stats bounds %d..%d, want equal", st.OldestSegment, st.NewestSegment)
	}
}

// TestLockErrorNamesDirAndHolder: the double-open error must say which
// directory is locked and by whom, so a follower misconfigured to open its
// leader's data dir fails with an actionable message.
func TestLockErrorNamesDirAndHolder(t *testing.T) {
	dir := t.TempDir()
	l, _, _ := collect(t, dir, Options{Sync: SyncNone})
	defer l.Close()
	_, _, err := Open(dir, Options{Sync: SyncNone}, func(Record) error { return nil })
	if err == nil {
		t.Fatal("second Open succeeded; flock not held")
	}
	msg := err.Error()
	if !strings.Contains(msg, dir) {
		t.Fatalf("lock error does not name the directory: %q", msg)
	}
	if !strings.Contains(msg, "pid ") {
		t.Fatalf("lock error does not hint at the holder: %q", msg)
	}
	if !strings.Contains(msg, "locked by another process") {
		t.Fatalf("lock error is not explicit about the cause: %q", msg)
	}
	// LockDir (promotion's liveness probe) fails the same way while the
	// holder lives...
	if _, err := LockDir(dir); err == nil {
		t.Fatal("LockDir succeeded while the log holds the flock")
	}
	// ...and succeeds once it is gone.
	l.Close()
	lock, err := LockDir(dir)
	if err != nil {
		t.Fatalf("LockDir after close: %v", err)
	}
	lock.Close()
}

// TestScanFramesTornTail: a buffer ending mid-frame (a dead leader's final
// segment) applies the whole prefix and stops cleanly; flipping a bit in a
// complete frame is ErrCorrupt, never a silent skip.
func TestScanFramesTornTail(t *testing.T) {
	dir := t.TempDir()
	l, _, _ := collect(t, dir, Options{Sync: SyncNone})
	for i := 0; i < 3; i++ {
		if err := l.AppendAll(DDLRecord(fmt.Sprintf("statement %d;", i))); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	buf, err := os.ReadFile(SegmentFilePath(dir, 1))
	if err != nil {
		t.Fatal(err)
	}

	// Torn tail: cut the last frame short at every possible boundary.
	frame := len(buf) / 3
	for cut := len(buf) - 1; cut > 2*frame; cut-- {
		n, consumed, err := ScanFrames(buf[:cut], func(Record) error { return nil })
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if n != 2 || consumed != int64(2*frame) {
			t.Fatalf("cut %d: applied %d records / %d bytes, want 2 / %d", cut, n, consumed, 2*frame)
		}
	}

	// Corrupt a complete middle frame's payload: must be ErrCorrupt.
	bad := append([]byte(nil), buf...)
	bad[frame+frameHeader+2] ^= 0xFF
	if _, _, err := ScanFrames(bad, func(Record) error { return nil }); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("corrupt frame: err=%v, want ErrCorrupt", err)
	}
}

// TestStreamRecordCoordinates: logRecords/segStart stay consistent across
// rotations so lag math (tip − segment base − frames applied) is exact.
func TestStreamRecordCoordinates(t *testing.T) {
	dir := t.TempDir()
	l, _, _ := collect(t, dir, Options{Sync: SyncNone, SegmentBytes: 256})
	defer l.Close()
	const n = 40
	for i := 0; i < n; i++ {
		if err := l.AppendAll(DDLRecord("padding padding padding padding;")); err != nil {
			t.Fatal(err)
		}
	}
	tip := l.StreamTip()
	if tip.Records != n {
		t.Fatalf("tip records = %d, want %d", tip.Records, n)
	}
	// Walk the segments: each start count plus its frame count must chain to
	// the next segment's start count.
	var counted int64
	for seq := uint64(1); seq <= tip.Segment; seq++ {
		base, ok := l.SegmentStartRecords(seq)
		if !ok {
			t.Fatalf("segment %d has no start-record entry", seq)
		}
		if base != counted {
			t.Fatalf("segment %d starts at record %d, want %d", seq, base, counted)
		}
		buf, err := os.ReadFile(SegmentFilePath(dir, seq))
		if err != nil {
			t.Fatal(err)
		}
		frames, _, err := ScanFrames(buf, func(Record) error { return nil })
		if err != nil {
			t.Fatal(err)
		}
		counted += frames
	}
	if counted != n {
		t.Fatalf("segments hold %d records, want %d", counted, n)
	}
}

// TestTipWatchWakesOnAppendAndClose: the long-poll primitive must fire on
// tip advances and on Close (so pollers never hang on a shut-down log).
func TestTipWatchWakesOnAppendAndClose(t *testing.T) {
	dir := t.TempDir()
	l, _, _ := collect(t, dir, Options{Sync: SyncAlways})
	watch := l.TipWatch()
	done := make(chan struct{})
	go func() {
		<-watch
		close(done)
	}()
	if err := l.AppendAll(DDLRecord("wake;")); err != nil {
		t.Fatal(err)
	}
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("TipWatch did not fire on append")
	}
	watch = l.TipWatch()
	l.Close()
	select {
	case <-watch:
	case <-time.After(5 * time.Second):
		t.Fatal("TipWatch did not fire on close")
	}
}

// sanity: wholeFrames agrees with the frame codec on hand-built buffers.
func TestWholeFramesPrefix(t *testing.T) {
	mk := func(n int) []byte {
		body := make([]byte, 1+n) // type byte + payload
		body[0] = RecDDL
		frame := make([]byte, frameHeader+len(body))
		binary.BigEndian.PutUint32(frame, uint32(len(body)))
		binary.BigEndian.PutUint32(frame[4:], crc32.Checksum(body, crcTable))
		copy(frame[frameHeader:], body)
		return frame
	}
	a, b := mk(10), mk(300)
	buf := append(append([]byte{}, a...), b...)
	for cut := 0; cut <= len(buf); cut++ {
		want := 0
		if cut >= len(a) {
			want = len(a)
		}
		if cut == len(buf) {
			want = len(buf)
		}
		if got := len(wholeFrames(buf[:cut])); got != want {
			t.Fatalf("cut %d: wholeFrames kept %d bytes, want %d", cut, got, want)
		}
	}
}
