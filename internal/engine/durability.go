// Durability: the glue between the volatile engine and internal/wal. A
// durable engine logs every schema mutation write-ahead through the
// catalog's change hook, and every row write — a committed transaction, a
// script's autocommit run, or an Engine.Load batch — through the store's
// one batch hook, as a BEGIN/TXN-INSERT/COMMIT group. It checkpoints the
// full catalog+store into a snapshot that truncates the log, and on open
// replays snapshot + log tail into a consistent engine. The hooks live on
// the catalog and store, so every engine view over them (NewShared, as the
// query service builds per session) logs exactly as the engine OpenDurable
// returned does. Volatile stores have no hooks installed.
package engine

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"udfdecorr/internal/ast"
	"udfdecorr/internal/catalog"
	"udfdecorr/internal/parser"
	"udfdecorr/internal/sqltypes"
	"udfdecorr/internal/storage"
	"udfdecorr/internal/wal"
)

// DurabilityOptions configures a durable engine.
type DurabilityOptions struct {
	// Sync is the WAL fsync policy (default wal.SyncAlways).
	Sync wal.SyncPolicy
	// SegmentBytes is the WAL segment rotation threshold (<=0: wal default).
	SegmentBytes int64
	// RetainSegments keeps that many sealed WAL segments past each
	// checkpoint's replay boundary so catching-up replicas can still stream
	// them (0: delete superseded segments immediately).
	RetainSegments int
}

// Durability owns a durable engine's write-ahead log and checkpoint state.
// It is shared by every engine view over the same catalog+store (the query
// service attaches it once).
type Durability struct {
	dir   string
	log   *wal.Log
	cat   *catalog.Catalog
	store *storage.Store
	opts  DurabilityOptions

	checkpoints      atomic.Int64
	recoveredRecords int64 // fixed after open
	recoveredTorn    int64

	// nextTxid issues transaction ids for logged commits. Seeded past the
	// largest txid seen during replay so ids stay unique within one log
	// generation (BEGIN resets any stale pending state on reuse anyway).
	nextTxid atomic.Uint64
}

// DurabilityStats is the operational snapshot exposed through /stats.
type DurabilityStats struct {
	// Dir is the data directory.
	Dir string `json:"dir"`
	// WALBytes is the current size of the live log segments.
	WALBytes int64 `json:"wal_bytes"`
	// WALRecords counts records appended since open.
	WALRecords int64 `json:"wal_records"`
	// Segment is the current WAL segment sequence number.
	Segment uint64 `json:"segment"`
	// OldestSegment is the smallest WAL segment still on disk (checkpoint
	// retention keeps sealed segments for catching-up replicas).
	OldestSegment uint64 `json:"oldest_segment"`
	// NewestSegment is the open segment (same as Segment; the pair makes the
	// retained window readable at a glance in /stats).
	NewestSegment uint64 `json:"newest_segment"`
	// Checkpoints counts checkpoints taken since open.
	Checkpoints int64 `json:"checkpoints"`
	// RecoveredRecords is the number of snapshot + log records replayed when
	// the engine opened (0 for a fresh directory).
	RecoveredRecords int64 `json:"recovered_records"`
	// TornBytes is the size of the torn log tail truncated during recovery.
	TornBytes int64 `json:"torn_bytes"`
	// GroupSyncs counts group flushes: under fsync=always, every append
	// fsync but the rare one a rotation or Close does first (0 under none);
	// records/group_syncs approximates the fsyncs saved by batching.
	GroupSyncs int64 `json:"group_syncs"`
	// SyncPolicy names the fsync policy.
	SyncPolicy string `json:"sync_policy"`
}

// OpenDurable opens (or creates) the durable engine rooted at dir: it
// replays the checkpoint snapshot and the write-ahead-log tail into a fresh
// catalog+store, attaches the catalog change hook and the store batch hook
// so subsequent DDL and row writes are logged write-ahead, and returns the
// engine. The resulting engine behaves exactly like a volatile one for
// queries; only mutations pay the log.
func OpenDurable(dir string, profile Profile, mode Mode, opts DurabilityOptions) (*Engine, error) {
	cat := catalog.New()
	store := storage.NewStore()

	rp := &replayer{cat: cat, store: store, pending: map[uint64][]pendingInsert{}}
	log, rstats, err := wal.Open(dir, wal.Options{
		Sync:           opts.Sync,
		SegmentBytes:   opts.SegmentBytes,
		RetainSegments: opts.RetainSegments,
	}, rp.apply)
	if err != nil {
		return nil, fmt.Errorf("opening data dir %s: %w", dir, err)
	}
	// Transactions whose commit record never reached disk are discarded:
	// rp.pending leftovers at end-of-log were never acknowledged.

	d := &Durability{dir: dir, log: log, cat: cat, store: store, opts: opts}
	d.recoveredRecords = rstats.SnapshotRecords + rstats.WALRecords
	d.recoveredTorn = rstats.TornBytes
	d.nextTxid.Store(rp.maxTxid)

	// Recovery replay is complete: from here on, every mutation is logged
	// before it commits.
	cat.SetChangeHook(d.onCatalogChange)
	store.SetBatchHook(d.logTxn)

	e := NewShared(cat, store, profile, mode)
	e.Durable = d
	return e, nil
}

// Checkpoint snapshots the engine's catalog+store and truncates the log.
// The caller must exclude concurrent mutations (the query service holds its
// DDL write gate); concurrent read-only queries are safe.
func (e *Engine) Checkpoint() error {
	if e.Durable == nil {
		return errors.New("engine is volatile: no data directory configured")
	}
	return e.Durable.Checkpoint()
}

// Stats snapshots the durability counters.
func (d *Durability) Stats() DurabilityStats {
	ls := d.log.Stats()
	return DurabilityStats{
		Dir:              d.dir,
		WALBytes:         ls.Bytes,
		WALRecords:       ls.Records,
		Segment:          ls.Segment,
		OldestSegment:    ls.OldestSegment,
		NewestSegment:    ls.NewestSegment,
		Checkpoints:      d.checkpoints.Load(),
		RecoveredRecords: d.recoveredRecords,
		TornBytes:        d.recoveredTorn,
		GroupSyncs:       ls.GroupSyncs,
		SyncPolicy:       d.opts.Sync.String(),
	}
}

// Close seals the log. The engine remains usable for queries but further
// mutations fail.
func (d *Durability) Close() error { return d.log.Close() }

// WAL exposes the underlying log for the replication stream server (reads
// only: sealed/live segment chunks, the durable tip, the tip watch).
func (d *Durability) WAL() *wal.Log { return d.log }

// Dir returns the data directory (the replication snapshot endpoint serves
// its checkpoint file).
func (d *Durability) Dir() string { return d.dir }

// Checkpoint writes a snapshot of the catalog and every table's rows, then
// truncates the log. See Engine.Checkpoint for the locking contract.
func (d *Durability) Checkpoint() error {
	err := d.log.Checkpoint(func(write func(wal.Record) error) error {
		// DDL first (tables before the rows that need them, functions in one
		// pass since they only bind at planning time), then data, then the
		// index declarations.
		tables := d.cat.Tables()
		for _, t := range tables {
			if err := write(wal.DDLRecord(TableDDL(t))); err != nil {
				return err
			}
		}
		for _, f := range d.cat.Functions() {
			if err := write(wal.DDLRecord(f.Def.SQL())); err != nil {
				return err
			}
		}
		for _, t := range tables {
			st, ok := d.store.Table(t.Name)
			if !ok {
				continue
			}
			// Snapshot data is written column-major, one RecSegment per
			// published storage segment: replay re-installs segment-aligned
			// chunks without pivoting (see storage.Table.AppendCols). Wide
			// segments are cut into sub-ranges so no record exceeds the log's
			// size limit; sub-slicing columns is free, the values alias the
			// immutable segment.
			const chunkByteTarget = 4 << 20
			for _, sg := range st.Version().Segments() {
				n := sg.Len()
				if n == 0 {
					continue
				}
				pieces := int(sg.Bytes()/chunkByteTarget) + 1
				per := (n + pieces - 1) / pieces
				cols := make([][]sqltypes.Value, sg.Width())
				for lo := 0; lo < n; lo += per {
					hi := lo + per
					if hi > n {
						hi = n
					}
					for c := range cols {
						cols[c] = sg.Col(c)[lo:hi]
					}
					if err := write(wal.SegmentRecord(t.Name, cols, hi-lo)); err != nil {
						return err
					}
				}
			}
		}
		for _, t := range tables {
			for _, col := range t.Indexes {
				if err := write(wal.IndexRecord(t.Name, col)); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	d.checkpoints.Add(1)
	return nil
}

// onCatalogChange is the catalog commit hook: render the mutation as a log
// record and append it write-ahead.
func (d *Durability) onCatalogChange(ch catalog.Change) error {
	switch {
	case ch.Table != nil:
		return d.log.Append(wal.DDLRecord(TableDDL(ch.Table)))
	case ch.Function != nil:
		return d.log.Append(wal.DDLRecord(ch.Function.SQL()))
	case ch.IndexTable != "":
		return d.log.Append(wal.IndexRecord(ch.IndexTable, ch.IndexCol))
	default:
		return fmt.Errorf("durability: empty catalog change")
	}
}

// logTxn logs a batch of row writes — a transaction, an autocommit run or
// an Engine.Load — as one contiguous record run: BEGIN, one TxnInsert per
// table, COMMIT. AppendAll keeps the run contiguous in the log (and inside
// one segment's rollback window), so recovery sees either the whole batch
// with its commit record or an uncommitted prefix it discards. Installed as
// the store's batch hook, so it runs before any row of the batch becomes
// visible, whichever engine view committed it.
func (d *Durability) logTxn(writes []storage.TableWrite) error {
	txid := d.nextTxid.Add(1)
	recs := make([]wal.Record, 0, len(writes)+2)
	recs = append(recs, wal.BeginRecord(txid))
	for _, w := range writes {
		vals := make([][]sqltypes.Value, len(w.Rows))
		for i, r := range w.Rows {
			vals[i] = r
		}
		recs = append(recs, wal.TxnInsertRecord(txid, w.Table.Meta.Name, vals))
	}
	recs = append(recs, wal.CommitRecord(txid))
	return d.log.AppendAll(recs...)
}

// pendingInsert is one buffered TxnInsert awaiting its commit record.
type pendingInsert struct {
	table string
	rows  [][]sqltypes.Value
}

// replayer applies snapshot + log records during recovery, buffering
// transactional inserts until their commit record proves the transaction
// was acknowledged. Uncommitted leftovers (crash between BEGIN and COMMIT
// reaching disk) are simply dropped.
type replayer struct {
	cat     *catalog.Catalog
	store   *storage.Store
	pending map[uint64][]pendingInsert
	maxTxid uint64
}

func (rp *replayer) apply(rec wal.Record) error {
	switch rec.Type {
	case wal.RecBegin:
		txid, err := rec.Txid()
		if err != nil {
			return err
		}
		if txid > rp.maxTxid {
			rp.maxTxid = txid
		}
		// Reset, don't merge: a reused txid from an earlier log generation
		// must not leak stale buffered inserts into this transaction.
		rp.pending[txid] = nil
		return nil
	case wal.RecTxnInsert:
		txid, table, rows, err := rec.TxnInsert()
		if err != nil {
			return err
		}
		rp.pending[txid] = append(rp.pending[txid], pendingInsert{table: table, rows: rows})
		return nil
	case wal.RecCommit:
		txid, err := rec.Txid()
		if err != nil {
			return err
		}
		inserts := rp.pending[txid]
		delete(rp.pending, txid)
		if len(inserts) == 0 {
			return nil
		}
		// Publish the transaction's tables in one atomic batch, exactly as
		// the original commit did: a replica applying this mid-traffic must
		// never expose a state where one table committed and another has not.
		// Records for the same table merge into one write (AppendBatch locks
		// per table, so a table must not appear twice).
		byTable := map[string]int{}
		writes := make([]storage.TableWrite, 0, len(inserts))
		for _, ins := range inserts {
			rows := make([]storage.Row, len(ins.rows))
			for i, r := range ins.rows {
				rows[i] = r
			}
			if idx, ok := byTable[ins.table]; ok {
				writes[idx].Rows = append(writes[idx].Rows, rows...)
				continue
			}
			st, ok := rp.store.Table(ins.table)
			if !ok {
				return fmt.Errorf("insert into unknown table %q", ins.table)
			}
			byTable[ins.table] = len(writes)
			writes = append(writes, storage.TableWrite{Table: st, Rows: rows})
		}
		return rp.store.AppendBatch(writes)
	case wal.RecRollback:
		txid, err := rec.Txid()
		if err != nil {
			return err
		}
		delete(rp.pending, txid)
		return nil
	}
	return applyRecord(rp.cat, rp.store, rec)
}

// applyRecord replays one snapshot or log record into the catalog+store.
// The hooks are not yet attached during recovery, so nothing is re-logged.
func applyRecord(cat *catalog.Catalog, store *storage.Store, rec wal.Record) error {
	switch rec.Type {
	case wal.RecDDL:
		sql, err := rec.DDL()
		if err != nil {
			return err
		}
		return applyDDL(cat, store, sql)
	case wal.RecIndex:
		table, col, err := rec.Index()
		if err != nil {
			return err
		}
		return cat.AddIndex(table, col)
	case wal.RecInsert:
		return errors.New("record kind 3 (row-major insert, written by a binary from before transactional row logging) is no longer replayed: " +
			"open this data directory once with the previous release and take a checkpoint, which rewrites its rows column-major, then open it with this one")
	case wal.RecSegment:
		table, cols, nrows, err := rec.Segment()
		if err != nil {
			return err
		}
		st, ok := store.Table(table)
		if !ok {
			return fmt.Errorf("segment for unknown table %q", table)
		}
		return st.AppendCols(cols, nrows)
	default:
		return fmt.Errorf("unknown record type %d", rec.Type)
	}
}

// applyDDL re-parses and registers a logged DDL statement. Only CREATE
// TABLE / CREATE FUNCTION appear in the log (inserts are binary records).
func applyDDL(cat *catalog.Catalog, store *storage.Store, sql string) error {
	script, err := parser.ParseScript(sql)
	if err != nil {
		return fmt.Errorf("re-parsing logged DDL: %w\n%s", err, sql)
	}
	if len(script.Inserts) > 0 {
		return fmt.Errorf("unexpected INSERT in logged DDL record: %s", sql)
	}
	for _, t := range script.Tables {
		meta, err := cat.AddTableFromAST(t)
		if err != nil {
			return err
		}
		if _, err := store.CreateTable(meta); err != nil {
			return err
		}
	}
	for _, f := range script.Functions {
		if _, err := cat.AddFunction(f); err != nil {
			return err
		}
	}
	return nil
}

// Replayer is the incremental WAL applier a read replica feeds: the same
// txid-buffered logic recovery uses, applied record-by-record against a live
// catalog+store. Transactional inserts buffer until their commit record
// arrives and then publish atomically, so a replica's visible state is
// always transaction-consistent — an uncommitted txn suffix (a leader that
// died between BEGIN and COMMIT reaching the stream) is simply never
// applied. Records apply strictly in stream order from one tail loop, but
// PendingTxns is polled from health/metrics goroutines, so the wrapper
// serializes access to the underlying single-threaded replayer.
type Replayer struct {
	mu sync.Mutex
	rp *replayer
}

// NewReplayer builds an applier over the replica's catalog and store.
func NewReplayer(cat *catalog.Catalog, store *storage.Store) *Replayer {
	return &Replayer{rp: &replayer{cat: cat, store: store, pending: map[uint64][]pendingInsert{}}}
}

// Apply installs one WAL record (snapshot or stream) into the replica.
func (r *Replayer) Apply(rec wal.Record) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.rp.apply(rec)
}

// PendingTxns reports transactions with buffered inserts awaiting a commit
// record — nonzero while the stream sits mid-transaction.
func (r *Replayer) PendingTxns() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.rp.pending)
}

// IsDDL reports whether a record mutates the schema; the replica applies
// those under its query service's exclusive DDL gate (and invalidates
// cached plans), exactly as a leader-side DDL statement would.
func IsDDL(rec wal.Record) bool {
	return rec.Type == wal.RecDDL || rec.Type == wal.RecIndex
}

// TableDDL renders a catalog table back into the CREATE TABLE statement that
// reproduces it (minus secondary indexes, which are separate log records).
func TableDDL(t *catalog.Table) string {
	pk := make(map[string]bool, len(t.PKCols))
	for _, c := range t.PKCols {
		pk[c] = true
	}
	stmt := &ast.CreateTableStmt{Name: t.Name, ShardKey: t.ShardKey}
	for _, c := range t.Cols {
		stmt.Cols = append(stmt.Cols, ast.ColDef{Name: c.Name, Type: c.Type, PrimaryKey: pk[c.Name]})
	}
	return stmt.SQL()
}
