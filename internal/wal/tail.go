// Streaming reads over sealed and live segments: the leader side of WAL
// shipping. A replica reads framed records at (segment, offset); the log
// serves only whole frames from the durable prefix (what an acknowledged
// append is promised to survive), so a tailing reader can never observe a
// torn or unsynced frame no matter how it races appends, group commits and
// rotations. TipWatch provides the long-poll primitive: a channel closed
// whenever the durable tip advances.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
)

// ErrSegmentGone reports a read of a segment that was checkpointed away (or
// never existed below the retention horizon). A replica seeing it has fallen
// too far behind the leader's retention window and must re-bootstrap from a
// fresh snapshot.
var ErrSegmentGone = errors.New("wal: segment no longer on disk (checkpointed past the retention window)")

// StreamPos is a position in the replication stream: a byte offset within a
// segment, plus the cumulative record count at that position (both sides of
// a replication pair compute lag in the same record coordinate system).
type StreamPos struct {
	Segment uint64
	Offset  int64
	Records int64
}

// StreamTip returns the durable tip of the log: the position up to which
// bytes may be shipped to a replica. Under SyncAlways that is the fsynced
// prefix — a replica can never get ahead of what the leader promised to
// keep; under SyncNone (no durability promise) it is simply everything
// written.
func (l *Log) StreamTip() StreamPos {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.streamTipLocked()
}

func (l *Log) streamTipLocked() StreamPos {
	return StreamPos{Segment: l.seg, Offset: l.syncedSegBytes, Records: l.logRecords}
}

// SegmentStartRecords returns the cumulative record count at the start of a
// live segment (false when the segment is not on disk). A replica at byte
// offset K of segment N that has applied R frames within N is exactly
// SegmentStartRecords(N)+R records into the stream.
func (l *Log) SegmentStartRecords(seq uint64) (int64, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	n, ok := l.segStart[seq]
	return n, ok
}

// TipWatch returns a channel closed the next time the durable tip advances
// (or the log closes). Long-polling readers that found no data re-check the
// tip after it fires; a fresh channel must be fetched for each wait.
func (l *Log) TipWatch() <-chan struct{} {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.tipCh
}

// ReadSegment returns up to maxBytes of whole record frames from segment seq
// starting at byte offset off, and whether the segment is sealed (a sealed
// segment read to its end means the reader advances to segment seq+1, offset
// 0). An empty result from an unsealed segment means the reader is at the
// durable tip and should wait on TipWatch. Reads never return a partial
// frame: the result is always a concatenation of complete frames, cut at a
// frame boundary.
func (l *Log) ReadSegment(seq uint64, off int64, maxBytes int) (data []byte, sealed bool, err error) {
	if maxBytes <= 0 {
		maxBytes = 1 << 20
	}
	l.mu.Lock()
	cur := l.seg
	oldest := l.oldestSeg
	tip := l.streamTipLocked()
	closed := l.f == nil && l.lock == nil
	l.mu.Unlock()

	if seq < oldest {
		return nil, false, ErrSegmentGone
	}
	if seq > cur {
		if closed {
			return nil, false, errors.New("wal: log is closed")
		}
		// Not created yet (reader raced a rotation announcement): nothing to
		// read, not sealed — the caller waits and retries.
		return nil, false, nil
	}

	limit := int64(-1) // -1: whole file (sealed segment)
	if seq == cur {
		// tip was captured under the same lock hold as cur, so it names this
		// segment; its offset is the durable (shippable) prefix.
		sealed = false
		limit = tip.Offset
	} else {
		sealed = true
	}

	f, ferr := os.Open(filepath.Join(l.dir, segName(seq)))
	if ferr != nil {
		if os.IsNotExist(ferr) {
			// Deleted by a checkpoint after the horizon check above.
			return nil, false, ErrSegmentGone
		}
		return nil, false, ferr
	}
	defer f.Close()
	if limit < 0 {
		fi, serr := f.Stat()
		if serr != nil {
			return nil, false, serr
		}
		limit = fi.Size()
	}
	if off > limit {
		if sealed {
			return nil, false, fmt.Errorf("wal: offset %d beyond sealed segment %d (%d bytes)", off, seq, limit)
		}
		// An unsealed segment can legitimately hold unsynced bytes past the
		// durable tip; a reader positioned there waits for the tip.
		return nil, false, nil
	}
	avail := limit - off
	if avail > int64(maxBytes) {
		avail = int64(maxBytes)
		sealed = false // more bytes remain; the reader is not at the seal yet
	}
	if avail == 0 {
		return nil, sealed, nil
	}
	buf := make([]byte, avail)
	n, rerr := f.ReadAt(buf, off)
	if rerr != nil && n < len(buf) {
		return nil, false, rerr
	}
	whole := wholeFrames(buf[:n])
	if int64(len(whole)) < avail {
		sealed = false // the cut frame completes in bytes past maxBytes
	}
	return whole, sealed, nil
}

// wholeFrames returns the prefix of buf holding only complete frames.
func wholeFrames(buf []byte) []byte {
	off := 0
	for off+frameHeader <= len(buf) {
		bodyLen := int(binary.BigEndian.Uint32(buf[off : off+4]))
		if bodyLen < 1 || bodyLen > maxRecordBody || off+frameHeader+bodyLen > len(buf) {
			break
		}
		off += frameHeader + bodyLen
	}
	return buf[:off]
}

// ScanFrames decodes whole CRC-checked frames from buf through apply,
// stopping cleanly at a trailing partial frame (the torn tail of a dead
// leader's final segment, or a chunk boundary). It returns the records
// applied and the bytes consumed; a CRC mismatch on a complete frame is
// ErrCorrupt, never silently skipped.
func ScanFrames(buf []byte, apply func(Record) error) (records int64, consumed int64, err error) {
	off := 0
	for off < len(buf) {
		rec, n, ok, err := readFrame(buf[off:])
		if err != nil {
			return records, int64(off), fmt.Errorf("at offset %d: %w", off, err)
		}
		if !ok {
			break
		}
		if err := apply(rec); err != nil {
			return records, int64(off), fmt.Errorf("at offset %d: apply: %w", off, err)
		}
		records++
		off += n
	}
	return records, int64(off), nil
}

// SnapshotPath returns the checkpoint snapshot file a data directory holds
// (the image /repl/snapshot serves).
func SnapshotPath(dir string) string { return filepath.Join(dir, snapName) }

// SegmentFiles lists the segment sequence numbers present in a data
// directory, sorted ascending. Promotion uses it to drain a dead leader's
// tail straight from the filesystem.
func SegmentFiles(dir string) ([]uint64, error) { return listSegments(dir) }

// SegmentFilePath returns the on-disk path of segment seq in dir.
func SegmentFilePath(dir string, seq uint64) string { return filepath.Join(dir, segName(seq)) }
