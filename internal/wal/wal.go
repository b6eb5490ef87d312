// Package wal implements the durability substrate under the engine: a
// segmented append-only write-ahead log of CRC-framed records, plus an
// atomically-replaced snapshot file written by checkpoints. The package
// knows nothing about SQL — records carry opaque typed payloads (DDL text,
// index declarations, encoded insert batches) that the engine's durability
// layer produces and replays.
//
// On-disk layout of a data directory:
//
//	wal-00000001.seg   append-only record segments, replayed in order
//	wal-00000002.seg
//	checkpoint.snap    latest snapshot (same record framing; names the
//	                   first segment that post-dates it)
//
// Crash semantics: every record is framed with a length and a CRC32 of its
// body. A record whose frame runs past the end of the final segment is a
// torn tail — the bytes of an append cut short by a crash — and is silently
// truncated on open. A complete frame whose CRC does not match, or a short
// frame in any segment other than the last, cannot be explained by a torn
// append and fails recovery with ErrCorrupt: silently dropping it would
// hide real data loss. Snapshots are written to a temp file, fsynced, and
// renamed over checkpoint.snap, so a crash mid-checkpoint leaves the
// previous snapshot + segments fully intact.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// fsyncObserver, when set, receives the wall-clock latency of every
// log-file fsync (see SetFsyncObserver).
var fsyncObserver atomic.Pointer[func(time.Duration)]

// SetFsyncObserver registers fn to receive the latency of each WAL
// log-file fsync — the syncs that gate append acknowledgement, not the
// checkpoint temp-file syncs. Pass nil to clear. The hook is process-wide
// (one durable engine per process in practice) and must be fast and
// non-blocking: it runs with the log lock held.
func SetFsyncObserver(fn func(time.Duration)) {
	if fn == nil {
		fsyncObserver.Store(nil)
		return
	}
	fsyncObserver.Store(&fn)
}

// fsyncFile is the segment fsync; tests replace it to inject failures.
var fsyncFile = (*os.File).Sync

// syncLogFile fsyncs the live log segment, reporting the latency to the
// registered observer (error or not — a slow failed fsync is still signal).
func syncLogFile(f *os.File) error {
	start := time.Now()
	err := fsyncFile(f)
	if ob := fsyncObserver.Load(); ob != nil {
		(*ob)(time.Since(start))
	}
	return err
}

// ErrCorrupt reports unrecoverable log damage: a CRC mismatch on a complete
// record frame, or a torn record in a segment that is not the last. Torn
// final records are NOT corruption — they are truncated silently.
var ErrCorrupt = errors.New("wal: corrupt record")

// SyncPolicy selects when appends reach stable storage.
type SyncPolicy uint8

// Sync policies.
const (
	// SyncAlways acknowledges an append only once it is fsynced: an
	// acknowledged write survives kill -9 and power loss. The default.
	// Appends are group-committed: committers park on a shared flush, one of
	// them syncs everything written so far, and every covered waiter acks,
	// so concurrent writers share one fsync. A failed fsync stops the log.
	SyncAlways SyncPolicy = iota
	// SyncNone never fsyncs an append; the OS decides. Survives process
	// crashes (kill -9) but not power loss.
	SyncNone
)

// ParseSyncPolicy maps the -fsync flag surface onto a policy: "always", or
// "none" (aliases "off", "never").
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "always":
		return SyncAlways, nil
	case "none", "off", "never":
		return SyncNone, nil
	}
	return 0, fmt.Errorf("fsync policy %q: want always|none", s)
}

// String names the policy.
func (p SyncPolicy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncNone:
		return "none"
	default:
		return "?"
	}
}

// Options configures a Log.
type Options struct {
	// Sync is the fsync policy for appends (default SyncAlways).
	Sync SyncPolicy
	// SegmentBytes rotates to a fresh segment once the current one exceeds
	// this size. <=0 means 4 MiB.
	SegmentBytes int64
	// RetainSegments keeps that many sealed segments below each checkpoint's
	// replay boundary instead of deleting them immediately, so a replica
	// catching up from an older snapshot can still stream them. 0 restores
	// the delete-at-checkpoint behavior. Retained segments are dead weight
	// for recovery (they predate the snapshot) and are cleaned up on the
	// next Open.
	RetainSegments int
}

const (
	defaultSegmentBytes = 4 << 20
	segPrefix           = "wal-"
	segSuffix           = ".seg"
	snapName            = "checkpoint.snap"
	snapTempName        = "checkpoint.snap.tmp"
	lockName            = "LOCK"
)

func segName(seq uint64) string { return fmt.Sprintf("%s%08d%s", segPrefix, seq, segSuffix) }

func parseSegName(name string) (uint64, bool) {
	if !strings.HasPrefix(name, segPrefix) || !strings.HasSuffix(name, segSuffix) {
		return 0, false
	}
	var seq uint64
	_, err := fmt.Sscanf(strings.TrimSuffix(strings.TrimPrefix(name, segPrefix), segSuffix), "%d", &seq)
	return seq, err == nil
}

// RecoveryStats reports what Open replayed.
type RecoveryStats struct {
	// SnapshotRecords is the number of records loaded from checkpoint.snap
	// (0 when no snapshot exists).
	SnapshotRecords int64
	// WALRecords is the number of log records replayed from segments.
	WALRecords int64
	// Segments is the number of segment files scanned.
	Segments int
	// TornBytes is the size of the torn tail truncated from the final
	// segment (0 on a clean shutdown).
	TornBytes int64
}

// Log is an open write-ahead log. Append is safe for concurrent use;
// Checkpoint requires the caller to exclude concurrent Appends (the query
// service holds its DDL write gate around checkpoints).
type Log struct {
	dir  string
	opts Options
	lock *os.File // flock-held LOCK file; released on Close (or process exit)

	mu       sync.Mutex
	f        *os.File
	seg      uint64 // current segment seq
	segBytes int64  // bytes in the current segment
	bytes    int64  // total bytes across live segments
	records  int64  // records appended this process

	// Replication-stream state: the durable tip (what may be shipped to a
	// replica), per-segment cumulative record counts (lag is computed in
	// records, in one coordinate system), and the tip-watch channel closed
	// whenever the durable tip advances (long-polling readers wait on it).
	oldestSeg  uint64           // smallest on-disk segment seq (incl. retained)
	logRecords int64            // cumulative records in this log lineage (replayed + appended)
	segStart   map[uint64]int64 // logRecords value at each live segment's start
	tipCh      chan struct{}

	// Group-commit state. Batches are numbered: every append under mu takes
	// the next writeGen ticket; every fsync of the live segment (syncLocked)
	// covers the tickets issued before it and advances syncGen to the last,
	// releasing every waiter whose ticket it covers. One flusher runs at a
	// time; appenders arriving mid-flush park and the first of them becomes
	// the next flusher — the classic two-generation group commit.
	writeGen uint64     // guarded by mu
	gmu      sync.Mutex // guards the fields below (never held across a sync)
	gcond    *sync.Cond
	syncGen  uint64
	syncing  bool
	syncErr  error // sticky: a failed fsync stops the log (fail-stop)

	// syncedSegBytes is the acknowledged prefix of the current segment
	// (guarded by mu): what the last fsync covered, or under SyncNone simply
	// what was written. It is the replication tip, and a failed fsync
	// truncates back to it, since the batched frames of several writers
	// cannot be selectively dropped.
	syncedSegBytes int64
	groupSyncs     int64 // group flushes performed (telemetry)
}

// Open replays the durable state in dir (snapshot first, then every live
// segment in order) through apply, then returns a log positioned to append.
// A missing or empty directory is a valid empty log. The final segment's
// torn tail, if any, is truncated before appending resumes.
func Open(dir string, opts Options, apply func(Record) error) (*Log, RecoveryStats, error) {
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = defaultSegmentBytes
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, RecoveryStats{}, err
	}
	// Exclusive-lock the directory before touching anything: a second
	// process replaying here would truncate the live log's in-flight tail
	// as "torn" and interleave appends. The flock releases automatically if
	// the process dies, so kill -9 never wedges the directory.
	lock, err := acquireDirLock(filepath.Join(dir, lockName))
	if err != nil {
		return nil, RecoveryStats{}, err
	}
	ok := false
	defer func() {
		if !ok {
			lock.Close()
		}
	}()
	var stats RecoveryStats

	firstSeg := uint64(1)
	snapRecords, snapFirstSeg, err := readSnapshot(filepath.Join(dir, snapName), apply)
	if err != nil {
		return nil, stats, err
	}
	stats.SnapshotRecords = snapRecords
	if snapFirstSeg > 0 {
		firstSeg = snapFirstSeg
	}
	// A crash between snapshot rename and temp cleanup leaves the temp file;
	// it is dead weight either way.
	_ = os.Remove(filepath.Join(dir, snapTempName))

	segs, err := listSegments(dir)
	if err != nil {
		return nil, stats, err
	}
	// Segments older than the snapshot boundary were checkpointed away; a
	// crash between snapshot rename and segment deletion can leave them.
	live := segs[:0]
	for _, seq := range segs {
		if seq < firstSeg {
			_ = os.Remove(filepath.Join(dir, segName(seq)))
			continue
		}
		live = append(live, seq)
	}
	segs = live

	// Live segments must form a contiguous run starting exactly at the
	// snapshot boundary: a missing boundary or interior segment means
	// committed records are gone, which recovery must refuse to paper over.
	// (No live segments at all is legitimate — the crash window between a
	// checkpoint's snapshot rename and its new-segment creation.)
	if len(segs) > 0 && segs[0] != firstSeg {
		return nil, stats, fmt.Errorf("%w: first live segment is %d, snapshot boundary is %d (segment missing or stale snapshot deleted)",
			ErrCorrupt, segs[0], firstSeg)
	}
	l := &Log{dir: dir, opts: opts, lock: lock,
		segStart: map[uint64]int64{}, tipCh: make(chan struct{})}
	l.gcond = sync.NewCond(&l.gmu)
	for i, seq := range segs {
		if i > 0 && seq != segs[i-1]+1 {
			return nil, stats, fmt.Errorf("%w: segment gap between %d and %d", ErrCorrupt, segs[i-1], seq)
		}
		last := i == len(segs)-1
		l.segStart[seq] = l.logRecords
		n, kept, torn, err := replaySegment(filepath.Join(dir, segName(seq)), last, apply)
		if err != nil {
			return nil, stats, err
		}
		stats.WALRecords += n
		stats.Segments++
		stats.TornBytes += torn
		l.bytes += kept
		l.logRecords += n
		if last {
			l.seg = seq
			l.segBytes = kept
		}
	}

	if l.seg == 0 {
		// Fresh log (or everything was checkpointed away): start at the
		// snapshot boundary so older stray segments stay dead.
		if err := l.createSegmentLocked(firstSeg); err != nil {
			return nil, stats, err
		}
	} else {
		f, err := os.OpenFile(filepath.Join(dir, segName(l.seg)), os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, stats, err
		}
		l.f = f
	}
	// Whatever survived recovery is the durable prefix by definition.
	l.syncedSegBytes = l.segBytes
	l.oldestSeg = l.seg
	if len(segs) > 0 {
		l.oldestSeg = segs[0]
	}
	ok = true
	return l, stats, nil
}

// acquireDirLock takes a non-blocking exclusive flock on path, failing fast
// when another process holds the directory. The holder records itself in the
// LOCK file, so a double-open error can name who owns the directory — the
// classic way to hit this is pointing a follower at its leader's live data
// dir, which must fail loudly rather than with a bare EWOULDBLOCK.
func acquireDirLock(path string) (*os.File, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	if err := syscall.Flock(int(f.Fd()), syscall.LOCK_EX|syscall.LOCK_NB); err != nil {
		holder := "holder unknown"
		if b, rerr := os.ReadFile(path); rerr == nil && len(strings.TrimSpace(string(b))) > 0 {
			holder = "held by " + strings.TrimSpace(string(b))
		}
		f.Close()
		return nil, fmt.Errorf("wal: data directory %q is locked by another process (%s): %w — a follower must use its leader's /repl endpoints, never its data dir",
			filepath.Dir(path), holder, err)
	}
	// Best-effort holder stamp: truncate any stale owner's note first.
	if err := f.Truncate(0); err == nil {
		_, _ = f.WriteAt([]byte(fmt.Sprintf("pid %d since %s", os.Getpid(), time.Now().UTC().Format(time.RFC3339))), 0)
	}
	return f, nil
}

// LockDir takes the same exclusive flock a Log holds on its data directory
// and returns it for the caller to Close. Promotion uses it to prove a dead
// leader really is dead before draining its WAL tail from the filesystem: if
// the leader still runs, the flock fails with the holder's identity.
func LockDir(dir string) (*os.File, error) {
	return acquireDirLock(filepath.Join(dir, lockName))
}

// listSegments returns the segment sequence numbers in dir, sorted.
func listSegments(dir string) ([]uint64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var segs []uint64
	for _, e := range entries {
		if seq, ok := parseSegName(e.Name()); ok {
			segs = append(segs, seq)
		}
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i] < segs[j] })
	return segs, nil
}

// createSegmentLocked opens a fresh segment for writing (caller holds mu or
// has exclusive access) and fsyncs the directory so the file entry is
// durable.
func (l *Log) createSegmentLocked(seq uint64) error {
	f, err := os.OpenFile(filepath.Join(l.dir, segName(seq)), os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return err
	}
	if err := syncDir(l.dir); err != nil {
		f.Close()
		return err
	}
	l.f = f
	l.seg = seq
	l.segBytes = 0
	l.syncedSegBytes = 0
	if l.segStart != nil {
		l.segStart[seq] = l.logRecords
	}
	if l.oldestSeg == 0 {
		l.oldestSeg = seq
	}
	l.advanceTipLocked() // the previous segment (if any) is sealed: fully readable
	return nil
}

// advanceTipLocked wakes every long-polling stream reader: the durable tip
// moved (a sync completed or a segment sealed). Caller holds mu.
func (l *Log) advanceTipLocked() {
	if l.tipCh != nil {
		close(l.tipCh)
		l.tipCh = make(chan struct{})
	}
}

// Append frames rec, writes it to the current segment (rotating first if the
// segment is full), and under SyncAlways waits for the group flush that
// fsyncs it. An acknowledged Append is durable to the extent the policy
// promises.
func (l *Log) Append(rec Record) error { return l.AppendAll(rec) }

// AppendAll appends records contiguously under one lock hold — no other
// append interleaves between them — then, like Append, waits for one sync.
// The durability layer relies on the contiguity to keep a transaction's
// Begin/insert/Commit run together, so neither a concurrent append nor a
// crash can split a committed transaction from its commit record.
func (l *Log) AppendAll(recs ...Record) error {
	if len(recs) == 0 {
		return nil
	}
	for _, rec := range recs {
		if 1+len(rec.Payload) > maxRecordBody {
			return fmt.Errorf("wal: record body %d bytes exceeds the %d limit", 1+len(rec.Payload), maxRecordBody)
		}
	}
	var frame []byte
	l.mu.Lock()
	if l.f == nil {
		l.mu.Unlock()
		return errors.New("wal: log is closed")
	}
	// written/frames track this call's footprint in the CURRENT segment so
	// a failure can roll it back; a mid-call rotation resets them (frames
	// sealed into the previous segment were synced by the rotation and
	// cannot be unwritten — for transaction batches the missing commit
	// record makes replay discard them anyway).
	var written, frames int64
	fail := func(err error) error {
		l.discardLocked(written, frames)
		l.mu.Unlock()
		return err
	}
	for _, rec := range recs {
		frame = appendFrame(frame[:0], rec)
		if l.segBytes > 0 && l.segBytes+int64(len(frame)) > l.opts.SegmentBytes {
			if err := l.rotateLocked(); err != nil {
				return fail(err)
			}
			written, frames = 0, 0
		}
		if _, err := l.f.Write(frame); err != nil {
			// A partial frame must not linger mid-segment: later successful
			// appends after it would make the log unopenable (mid-log CRC
			// failure).
			return fail(err)
		}
		l.segBytes += int64(len(frame))
		l.bytes += int64(len(frame))
		l.records++
		l.logRecords++
		written += int64(len(frame))
		frames++
	}
	if l.opts.Sync == SyncNone {
		// No durability promise: what was written is acknowledged, and is
		// the shippable tip.
		l.syncedSegBytes = l.segBytes
		l.advanceTipLocked()
		l.mu.Unlock()
		return nil
	}
	l.writeGen++
	ticket := l.writeGen
	l.mu.Unlock()
	return l.groupWait(ticket)
}

// groupWait blocks until the append holding ticket is durably synced (nil)
// or the log stopped before any sync covered it. The first parked appender
// that finds no flush in progress becomes the flusher for everything written
// so far; appenders arriving mid-flush park for the next generation.
func (l *Log) groupWait(ticket uint64) error {
	l.gmu.Lock()
	defer l.gmu.Unlock()
	for l.syncGen < ticket && l.syncErr == nil {
		if l.syncing {
			l.gcond.Wait()
			continue
		}
		l.syncing = true
		l.gmu.Unlock()
		l.groupFlush()
		l.gmu.Lock()
		l.syncing = false
		l.gcond.Broadcast()
	}
	if l.syncGen >= ticket {
		return nil // covered by a successful sync, even if a later one failed
	}
	return l.syncErr
}

// groupFlush syncs the live segment on behalf of every parked appender. A
// rotation or Close may have synced (and released) them first; a log closed
// without covering them can only have stopped on a failure.
func (l *Log) groupFlush() {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		l.stopLocked(errors.New("wal: log is closed"))
		return
	}
	if l.syncLocked() == nil {
		l.groupSyncs++
	}
}

// syncLocked fsyncs the live segment: the one fsync path of the log, taken
// by group flushes, rotation and Close. Success makes everything written so
// far durable, so it advances the durable prefix, the replication tip and
// syncGen (releasing every covered appender) together. Failure stops the
// log. Caller holds mu.
func (l *Log) syncLocked() error {
	if err := syncLogFile(l.f); err != nil {
		l.stopLocked(err)
		return err
	}
	l.syncedSegBytes = l.segBytes
	l.advanceTipLocked()
	l.gmu.Lock()
	l.syncGen = l.writeGen
	l.gcond.Broadcast()
	l.gmu.Unlock()
	return nil
}

// stopLocked fail-stops the log after a failed fsync, truncate or rotation:
// after a failed fsync the kernel may have dropped the dirty pages, so a
// retry proves nothing (Rebello et al., USENIX ATC 2020). The live segment
// is cut back to its acknowledged prefix and closed; err goes to every
// parked appender, and every later Append fails. Caller holds mu.
func (l *Log) stopLocked(err error) {
	if l.f != nil {
		if terr := l.f.Truncate(l.syncedSegBytes); terr == nil {
			l.bytes -= l.segBytes - l.syncedSegBytes
			l.segBytes = l.syncedSegBytes
		}
		l.f.Close()
		l.f = nil
	}
	l.gmu.Lock()
	if l.syncErr == nil {
		l.syncErr = err
	}
	l.gcond.Broadcast()
	l.gmu.Unlock()
}

// discardLocked rolls the current segment back by n bytes / k records (plus
// any trailing partial frame) after a failed write. If the truncate fails
// too, the log stops: acknowledging further appends on top of undefined
// bytes would risk silent corruption.
func (l *Log) discardLocked(n, k int64) {
	if l.f == nil {
		return
	}
	if terr := l.f.Truncate(l.segBytes - n); terr != nil {
		l.stopLocked(terr)
		return
	}
	l.segBytes -= n
	l.bytes -= n
	l.records -= k
	l.logRecords -= k
}

// rotateLocked seals the current segment and starts the next one. Any
// failure leaves the log stopped — fail-stop, never inconsistent.
func (l *Log) rotateLocked() error {
	if err := l.syncLocked(); err != nil {
		return err
	}
	seq := l.seg
	err := l.f.Close()
	l.f = nil
	if err == nil {
		err = l.createSegmentLocked(seq + 1)
	}
	if err != nil {
		l.stopLocked(err)
	}
	return err
}

// Checkpoint writes a snapshot and truncates the log: emit is called with a
// writer that frames each snapshot record; once the snapshot is durable, all
// segments preceding the checkpoint are deleted and appends continue in a
// fresh segment. The caller must exclude concurrent Appends AND guarantee
// the emitted records capture all appends acknowledged so far.
func (l *Log) Checkpoint(emit func(write func(Record) error) error) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return errors.New("wal: log is closed")
	}
	oldSeg := l.seg
	newSeg := oldSeg + 1

	// Rotate FIRST, snapshot second: once the snapshot durably names newSeg
	// as the replay boundary, every later acknowledged append must land in a
	// segment >= newSeg. Rotating first guarantees that even if the snapshot
	// write (or this whole process) fails right after the rename — the
	// failure mode where appends continuing in oldSeg would be silently
	// deleted on the next open. If the rotation itself fails the log is left
	// unusable (appends error) rather than inconsistent.
	if err := l.rotateLocked(); err != nil {
		return err
	}
	if err := writeSnapshot(l.dir, newSeg, emit); err != nil {
		// The old snapshot still pairs correctly with the full segment run;
		// only the truncation was lost.
		return err
	}
	// Superseded segments are deleted, except the newest RetainSegments of
	// them: a replica still streaming from before this checkpoint can catch
	// up through the retained run instead of being forced to re-bootstrap.
	cutoff := newSeg
	if r := uint64(l.opts.RetainSegments); r > 0 {
		if r >= cutoff {
			cutoff = 0
		} else {
			cutoff -= r
		}
	}
	removed := int64(0)
	segs, err := listSegments(l.dir)
	if err == nil {
		l.oldestSeg = newSeg
		for _, seq := range segs {
			if seq < cutoff {
				if fi, err := os.Stat(filepath.Join(l.dir, segName(seq))); err == nil {
					removed += fi.Size()
				}
				_ = os.Remove(filepath.Join(l.dir, segName(seq)))
				delete(l.segStart, seq)
			} else if seq < l.oldestSeg {
				l.oldestSeg = seq
			}
		}
	}
	l.bytes -= removed
	if l.bytes < 0 {
		l.bytes = 0
	}
	return nil
}

// Stats is a point-in-time size snapshot of the log.
type Stats struct {
	// Bytes is the total size of live segments (appended minus truncated).
	Bytes int64
	// Records is the number of records appended by this process.
	Records int64
	// Segment is the current segment sequence number.
	Segment uint64
	// OldestSegment is the smallest segment still on disk (retained segments
	// included) — the earliest position a replica can stream from.
	OldestSegment uint64
	// NewestSegment equals Segment (the open segment); named for symmetry in
	// /stats output.
	NewestSegment uint64
	// GroupSyncs is the number of group flushes: under SyncAlways, every
	// append fsync but the rare one a rotation or Close does first (0 under
	// SyncNone). Records appended minus GroupSyncs approximates the fsyncs
	// saved by batching.
	GroupSyncs int64
}

// Stats snapshots the log counters.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return Stats{Bytes: l.bytes, Records: l.records, Segment: l.seg,
		OldestSegment: l.oldestSeg, NewestSegment: l.seg, GroupSyncs: l.groupSyncs}
}

// Close syncs and closes the current segment and releases the directory
// lock. Further Appends fail.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	var err error
	if l.f != nil {
		// A failed sync has already stopped (and closed) the log.
		if err = l.syncLocked(); err == nil {
			err = l.f.Close()
			l.f = nil
		}
	}
	if l.lock != nil {
		if cerr := l.lock.Close(); err == nil {
			err = cerr
		}
		l.lock = nil
	}
	l.advanceTipLocked() // wake long-polling readers so they observe the close
	return err
}

// ---------------------------------------------------------------------------
// Record framing
// ---------------------------------------------------------------------------

// frame: u32 bodyLen | u32 crc32(body) | body, where body = type byte +
// payload.
const frameHeader = 8

// maxRecordBody bounds a record's body on BOTH sides: readFrame rejects
// larger frames as corruption, so the writers must refuse to produce them —
// otherwise an acknowledged oversized append would poison the log forever.
const maxRecordBody = 1 << 30

var crcTable = crc32.MakeTable(crc32.Castagnoli)

func appendFrame(dst []byte, rec Record) []byte {
	bodyLen := 1 + len(rec.Payload)
	var hdr [frameHeader]byte
	binary.BigEndian.PutUint32(hdr[0:4], uint32(bodyLen))
	crc := crc32.Update(0, crcTable, []byte{rec.Type})
	crc = crc32.Update(crc, crcTable, rec.Payload)
	binary.BigEndian.PutUint32(hdr[4:8], crc)
	dst = append(dst, hdr[:]...)
	dst = append(dst, rec.Type)
	return append(dst, rec.Payload...)
}

// readFrame decodes one record from buf. It returns the record, the number
// of bytes consumed, and ok=false when buf holds only a partial frame (a
// torn tail if at end of the final segment). A complete frame with a CRC
// mismatch returns ErrCorrupt.
func readFrame(buf []byte) (Record, int, bool, error) {
	if len(buf) < frameHeader {
		return Record{}, 0, false, nil
	}
	bodyLen := int(binary.BigEndian.Uint32(buf[0:4]))
	if bodyLen < 1 || bodyLen > maxRecordBody {
		// An absurd length is indistinguishable from garbage; treat it as a
		// CRC-level failure, not a torn tail, unless the header itself could
		// be partial (it is not: we have all 8 bytes).
		return Record{}, 0, false, fmt.Errorf("%w: implausible record length %d", ErrCorrupt, bodyLen)
	}
	if len(buf) < frameHeader+bodyLen {
		return Record{}, 0, false, nil
	}
	body := buf[frameHeader : frameHeader+bodyLen]
	want := binary.BigEndian.Uint32(buf[4:8])
	if crc32.Checksum(body, crcTable) != want {
		return Record{}, 0, false, fmt.Errorf("%w: crc mismatch", ErrCorrupt)
	}
	payload := make([]byte, bodyLen-1)
	copy(payload, body[1:])
	return Record{Type: body[0], Payload: payload}, frameHeader + bodyLen, true, nil
}

// replaySegment streams a segment's records through apply. For the last
// segment a trailing partial frame is truncated from the file (torn-tail
// recovery); anywhere else it is corruption.
func replaySegment(path string, last bool, apply func(Record) error) (records, kept, torn int64, err error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return 0, 0, 0, err
	}
	off := 0
	for off < len(buf) {
		rec, n, ok, err := readFrame(buf[off:])
		if err != nil {
			return records, int64(off), 0, fmt.Errorf("%s at offset %d: %w", path, off, err)
		}
		if !ok {
			if !last {
				return records, int64(off), 0, fmt.Errorf("%w: %s: torn record at offset %d of a non-final segment", ErrCorrupt, path, off)
			}
			torn = int64(len(buf) - off)
			if err := os.Truncate(path, int64(off)); err != nil {
				return records, int64(off), torn, err
			}
			return records, int64(off), torn, nil
		}
		if err := apply(rec); err != nil {
			return records, int64(off), 0, fmt.Errorf("%s at offset %d: replay: %w", path, off, err)
		}
		records++
		off += n
	}
	return records, int64(off), 0, nil
}

func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// ---------------------------------------------------------------------------
// Snapshots
// ---------------------------------------------------------------------------

// Snapshot files reuse the record framing: a begin record naming the first
// segment that post-dates the snapshot, the engine-supplied state records,
// and an end marker proving the file is complete. The rename-over-old write
// makes checkpoint.snap atomic, so a file missing its end marker can only
// mean tampering or disk corruption — recovery refuses it.

// writeSnapshot writes dir/checkpoint.snap atomically.
func writeSnapshot(dir string, firstSeg uint64, emit func(write func(Record) error) error) error {
	tmp := filepath.Join(dir, snapTempName)
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	defer func() {
		if f != nil {
			f.Close()
			os.Remove(tmp)
		}
	}()

	var scratch []byte
	write := func(rec Record) error {
		if 1+len(rec.Payload) > maxRecordBody {
			return fmt.Errorf("wal: snapshot record body %d bytes exceeds the %d limit", 1+len(rec.Payload), maxRecordBody)
		}
		scratch = appendFrame(scratch[:0], rec)
		_, werr := f.Write(scratch)
		return werr
	}
	var seg [8]byte
	binary.BigEndian.PutUint64(seg[:], firstSeg)
	if err := write(Record{Type: recSnapBegin, Payload: seg[:]}); err != nil {
		return err
	}
	if err := emit(write); err != nil {
		return err
	}
	if err := write(Record{Type: recSnapEnd}); err != nil {
		return err
	}
	if err := f.Sync(); err != nil {
		return err
	}
	if err := f.Close(); err != nil {
		f = nil
		os.Remove(tmp)
		return err
	}
	f = nil
	if err := os.Rename(tmp, filepath.Join(dir, snapName)); err != nil {
		os.Remove(tmp)
		return err
	}
	return syncDir(dir)
}

// readSnapshot replays a snapshot file through apply. A missing file is an
// empty snapshot. Returns the record count and the first live segment.
func readSnapshot(path string, apply func(Record) error) (int64, uint64, error) {
	buf, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return 0, 0, nil
	}
	if err != nil {
		return 0, 0, err
	}
	records, firstSeg, err := ParseSnapshot(buf, apply)
	if err != nil {
		return records, 0, fmt.Errorf("snapshot %s: %w", path, err)
	}
	return records, firstSeg, nil
}

// ParseSnapshot replays an in-memory snapshot image (the byte-for-byte
// contents of checkpoint.snap, e.g. as fetched from a leader's /repl/snapshot
// endpoint) through apply. It returns the number of state records applied and
// the first WAL segment that post-dates the snapshot — the position a replica
// resumes streaming from.
func ParseSnapshot(buf []byte, apply func(Record) error) (int64, uint64, error) {
	var records int64
	var firstSeg uint64
	sawBegin, sawEnd := false, false
	off := 0
	for off < len(buf) {
		rec, n, ok, err := readFrame(buf[off:])
		if err != nil || !ok {
			if err == nil {
				err = io.ErrUnexpectedEOF
			}
			return records, 0, fmt.Errorf("%w: at offset %d: %v", ErrCorrupt, off, err)
		}
		off += n
		switch rec.Type {
		case recSnapBegin:
			if len(rec.Payload) != 8 {
				return records, 0, fmt.Errorf("%w: bad begin record", ErrCorrupt)
			}
			firstSeg = binary.BigEndian.Uint64(rec.Payload)
			sawBegin = true
		case recSnapEnd:
			sawEnd = true
		default:
			if err := apply(rec); err != nil {
				return records, 0, fmt.Errorf("replay: %w", err)
			}
			records++
		}
		if sawEnd {
			break
		}
	}
	if !sawBegin || !sawEnd {
		return records, 0, fmt.Errorf("%w: incomplete snapshot (begin=%v end=%v)", ErrCorrupt, sawBegin, sawEnd)
	}
	return records, firstSeg, nil
}
