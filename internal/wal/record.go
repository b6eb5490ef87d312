// Typed records: the engine's durability layer logs three kinds of change —
// DDL statements (as SQL text, re-parsed on replay), secondary-index
// declarations (API-only DDL with no SQL surface), and transactional INSERT
// batches (rows in a kind-preserving binary codec; sqltypes.EncodeKey is
// unsuitable here because it deliberately collapses INT and FLOAT for join
// keys).
package wal

import (
	"encoding/binary"
	"fmt"
	"math"

	"udfdecorr/internal/sqltypes"
)

// Record is one framed log entry.
type Record struct {
	Type    byte
	Payload []byte
}

// Record types.
const (
	// RecDDL carries a CREATE TABLE / CREATE FUNCTION statement as SQL text.
	RecDDL byte = 1
	// RecIndex carries a secondary-index declaration (table, column).
	RecIndex byte = 2
	// RecInsert is reserved: it marked a row-major insert batch outside any
	// transaction, which earlier binaries wrote for loaded batches (before
	// every row write was logged as a transaction) and for checkpoint data
	// (before checkpoints went column-major). Recovery refuses it by name.
	RecInsert byte = 3
	// RecBegin opens a multi-statement transaction. Replay buffers the
	// transaction's RecTxnInsert records and applies nothing until the
	// matching RecCommit; a Begin for an already-pending txid resets it
	// (stale leftovers from a txid reused across restarts).
	RecBegin byte = 4
	// RecCommit seals a transaction: replay applies its buffered inserts.
	// A transaction whose commit record never made it to disk is discarded
	// wholesale — uncommitted suffixes do not resurrect.
	RecCommit byte = 5
	// RecRollback abandons a pending transaction's buffered records.
	RecRollback byte = 6
	// RecTxnInsert carries one table's row batch inside a transaction
	// (txid, table, then the rows).
	RecTxnInsert byte = 7
	// RecSegment carries one column-major chunk of a table: the checkpoint
	// snapshot format for columnar storage (values grouped by column, so
	// recovery installs them as segments without pivoting).
	RecSegment byte = 8

	// snapshot structural records (internal to this package)
	recSnapBegin byte = 100
	recSnapEnd   byte = 101
)

// DDLRecord wraps a DDL statement's SQL text.
func DDLRecord(sql string) Record { return Record{Type: RecDDL, Payload: []byte(sql)} }

// DDL returns the SQL text of a RecDDL record.
func (r Record) DDL() (string, error) {
	if r.Type != RecDDL {
		return "", fmt.Errorf("wal: record type %d is not DDL", r.Type)
	}
	return string(r.Payload), nil
}

// IndexRecord wraps a secondary-index declaration.
func IndexRecord(table, col string) Record {
	p := appendString(nil, table)
	p = appendString(p, col)
	return Record{Type: RecIndex, Payload: p}
}

// Index decodes a RecIndex record.
func (r Record) Index() (table, col string, err error) {
	if r.Type != RecIndex {
		return "", "", fmt.Errorf("wal: record type %d is not an index declaration", r.Type)
	}
	buf := r.Payload
	table, buf, err = readString(buf)
	if err != nil {
		return "", "", err
	}
	col, buf, err = readString(buf)
	if err != nil {
		return "", "", err
	}
	if len(buf) != 0 {
		return "", "", fmt.Errorf("wal: trailing bytes in index record")
	}
	return table, col, nil
}

// BeginRecord opens transaction txid.
func BeginRecord(txid uint64) Record {
	return Record{Type: RecBegin, Payload: binary.BigEndian.AppendUint64(nil, txid)}
}

// CommitRecord seals transaction txid.
func CommitRecord(txid uint64) Record {
	return Record{Type: RecCommit, Payload: binary.BigEndian.AppendUint64(nil, txid)}
}

// RollbackRecord abandons transaction txid.
func RollbackRecord(txid uint64) Record {
	return Record{Type: RecRollback, Payload: binary.BigEndian.AppendUint64(nil, txid)}
}

// Txid decodes the transaction id of a RecBegin/RecCommit/RecRollback
// record.
func (r Record) Txid() (uint64, error) {
	switch r.Type {
	case RecBegin, RecCommit, RecRollback:
	default:
		return 0, fmt.Errorf("wal: record type %d carries no transaction id", r.Type)
	}
	if len(r.Payload) != 8 {
		return 0, fmt.Errorf("wal: malformed transaction record (payload %d bytes)", len(r.Payload))
	}
	return binary.BigEndian.Uint64(r.Payload), nil
}

// TxnInsertRecord encodes one table's row batch inside transaction txid.
func TxnInsertRecord(txid uint64, table string, rows [][]sqltypes.Value) Record {
	p := binary.BigEndian.AppendUint64(nil, txid)
	return Record{Type: RecTxnInsert, Payload: encodeInsert(p, table, rows)}
}

// TxnInsert decodes a RecTxnInsert record.
func (r Record) TxnInsert() (txid uint64, table string, rows [][]sqltypes.Value, err error) {
	if r.Type != RecTxnInsert {
		return 0, "", nil, fmt.Errorf("wal: record type %d is not a transactional insert", r.Type)
	}
	if len(r.Payload) < 8 {
		return 0, "", nil, fmt.Errorf("wal: truncated transactional insert record")
	}
	txid = binary.BigEndian.Uint64(r.Payload)
	table, rows, err = decodeInsert(r.Payload[8:])
	return txid, table, rows, err
}

// SegmentRecord encodes nrows of column-major data for one table: each of
// cols contributes its first nrows values, column after column.
func SegmentRecord(table string, cols [][]sqltypes.Value, nrows int) Record {
	p := appendString(nil, table)
	p = binary.BigEndian.AppendUint16(p, uint16(len(cols)))
	p = binary.BigEndian.AppendUint32(p, uint32(nrows))
	for _, col := range cols {
		for _, v := range col[:nrows] {
			p = appendValue(p, v)
		}
	}
	return Record{Type: RecSegment, Payload: p}
}

// Segment decodes a RecSegment record into freshly allocated column vectors
// (safe for the caller to install as storage segments).
func (r Record) Segment() (table string, cols [][]sqltypes.Value, nrows int, err error) {
	if r.Type != RecSegment {
		return "", nil, 0, fmt.Errorf("wal: record type %d is not a column segment", r.Type)
	}
	buf := r.Payload
	table, buf, err = readString(buf)
	if err != nil {
		return "", nil, 0, err
	}
	if len(buf) < 6 {
		return "", nil, 0, fmt.Errorf("wal: truncated segment record")
	}
	ncols := int(binary.BigEndian.Uint16(buf))
	nrows = int(binary.BigEndian.Uint32(buf[2:]))
	buf = buf[6:]
	cols = make([][]sqltypes.Value, ncols)
	for c := range cols {
		col := make([]sqltypes.Value, nrows)
		for i := range col {
			col[i], buf, err = readValue(buf)
			if err != nil {
				return "", nil, 0, fmt.Errorf("wal: segment record col %d row %d: %w", c, i, err)
			}
		}
		cols[c] = col
	}
	if len(buf) != 0 {
		return "", nil, 0, fmt.Errorf("wal: trailing bytes in segment record")
	}
	return table, cols, nrows, nil
}

func encodeInsert(p []byte, table string, rows [][]sqltypes.Value) []byte {
	p = appendString(p, table)
	p = binary.BigEndian.AppendUint32(p, uint32(len(rows)))
	for _, row := range rows {
		p = binary.BigEndian.AppendUint16(p, uint16(len(row)))
		for _, v := range row {
			p = appendValue(p, v)
		}
	}
	return p
}

func decodeInsert(buf []byte) (table string, rows [][]sqltypes.Value, err error) {
	table, buf, err = readString(buf)
	if err != nil {
		return "", nil, err
	}
	if len(buf) < 4 {
		return "", nil, fmt.Errorf("wal: truncated insert record")
	}
	n := binary.BigEndian.Uint32(buf)
	buf = buf[4:]
	rows = make([][]sqltypes.Value, 0, n)
	for i := uint32(0); i < n; i++ {
		if len(buf) < 2 {
			return "", nil, fmt.Errorf("wal: truncated insert record row %d", i)
		}
		arity := binary.BigEndian.Uint16(buf)
		buf = buf[2:]
		row := make([]sqltypes.Value, arity)
		for j := range row {
			row[j], buf, err = readValue(buf)
			if err != nil {
				return "", nil, fmt.Errorf("wal: insert record row %d col %d: %w", i, j, err)
			}
		}
		rows = append(rows, row)
	}
	if len(buf) != 0 {
		return "", nil, fmt.Errorf("wal: trailing bytes in insert record")
	}
	return table, rows, nil
}

// ---------------------------------------------------------------------------
// value codec (kind-preserving, unlike sqltypes.EncodeKey)
// ---------------------------------------------------------------------------

func appendValue(dst []byte, v sqltypes.Value) []byte {
	dst = append(dst, byte(v.Kind()))
	switch v.Kind() {
	case sqltypes.KindNull:
	case sqltypes.KindInt:
		dst = binary.BigEndian.AppendUint64(dst, uint64(v.Int()))
	case sqltypes.KindFloat:
		dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(v.Float()))
	case sqltypes.KindString:
		dst = appendString(dst, v.Str())
	case sqltypes.KindBool:
		if v.Bool() {
			dst = append(dst, 1)
		} else {
			dst = append(dst, 0)
		}
	}
	return dst
}

func readValue(buf []byte) (sqltypes.Value, []byte, error) {
	if len(buf) < 1 {
		return sqltypes.Null, nil, fmt.Errorf("truncated value")
	}
	kind := sqltypes.Kind(buf[0])
	buf = buf[1:]
	switch kind {
	case sqltypes.KindNull:
		return sqltypes.Null, buf, nil
	case sqltypes.KindInt:
		if len(buf) < 8 {
			return sqltypes.Null, nil, fmt.Errorf("truncated int")
		}
		return sqltypes.NewInt(int64(binary.BigEndian.Uint64(buf))), buf[8:], nil
	case sqltypes.KindFloat:
		if len(buf) < 8 {
			return sqltypes.Null, nil, fmt.Errorf("truncated float")
		}
		return sqltypes.NewFloat(math.Float64frombits(binary.BigEndian.Uint64(buf))), buf[8:], nil
	case sqltypes.KindString:
		s, rest, err := readString(buf)
		if err != nil {
			return sqltypes.Null, nil, err
		}
		return sqltypes.NewString(s), rest, nil
	case sqltypes.KindBool:
		if len(buf) < 1 {
			return sqltypes.Null, nil, fmt.Errorf("truncated bool")
		}
		return sqltypes.NewBool(buf[0] != 0), buf[1:], nil
	default:
		return sqltypes.Null, nil, fmt.Errorf("unknown value kind %d", kind)
	}
}

func appendString(dst []byte, s string) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(s)))
	return append(dst, s...)
}

func readString(buf []byte) (string, []byte, error) {
	if len(buf) < 4 {
		return "", nil, fmt.Errorf("truncated string length")
	}
	n := int(binary.BigEndian.Uint32(buf))
	buf = buf[4:]
	if len(buf) < n {
		return "", nil, fmt.Errorf("truncated string payload")
	}
	return string(buf[:n]), buf[n:], nil
}
