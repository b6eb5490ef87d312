// Hash indexes for equality lookups: one per (table, column), shared by
// every version of the table.
//
// One index can serve every version because a table is append-only: each
// version's rows are a prefix of the same ordinal space, and no writer ever
// changes a published row. The index records which prefix it has hashed
// (colIndex.n). A probe on version v first extends it to v.n — hashing only
// the rows published since the last extension, read through v's own
// immutable segments — and then returns the key's ordinals below v.n.
// Buckets hold ordinals in ascending order, so that is a prefix of the
// bucket. Writers never touch the index; a reader waits for an extension
// at most as long as it takes to hash the rows appended since the previous
// probe.
package storage

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"udfdecorr/internal/sqltypes"
)

// colIndex is one column's hash index: key encoding -> ascending row
// ordinals, covering ordinals [0, n).
type colIndex struct {
	mu   sync.RWMutex // guards n and keys; probes read under RLock
	n    int
	keys map[string][]int
}

// indexRowsHashed counts rows hashed into any index, process-wide: the cost
// indexes actually pay. With a shared index it grows by the rows appended
// between probes, not by the table size per version.
var indexRowsHashed atomic.Int64

// IndexRowsHashed returns the process-wide count of rows hashed into
// column indexes.
func IndexRowsHashed() int64 { return indexRowsHashed.Load() }

// extendTo hashes column ord of ordinals [ix.n, v.n) into the index,
// reading them through v's segments; it does nothing when the index already
// covers v. Caller holds ix.mu exclusively (or owns ix before publication).
func (ix *colIndex) extendTo(v *TableVersion, ord int) {
	if ix.n >= v.n {
		return
	}
	var key []byte
	for o := ix.n; o < v.n; o++ {
		key = sqltypes.EncodeKey(key[:0], v.segs[o/SegmentRows].cols[ord][o%SegmentRows])
		ix.keys[string(key)] = append(ix.keys[string(key)], o)
	}
	indexRowsHashed.Add(int64(v.n - ix.n))
	ix.n = v.n
}

// columnIndex returns the table's shared index on column ord. The first
// probe of a column builds it from v outside any lock (a cold build of a
// large table must not stall other readers); racing builds are discarded
// and the first install wins.
func (t *Table) columnIndex(v *TableVersion, ord int) *colIndex {
	slot := &t.indexes[ord]
	if ix := slot.Load(); ix != nil {
		return ix
	}
	ix := &colIndex{keys: map[string][]int{}}
	ix.extendTo(v, ord)
	if !slot.CompareAndSwap(nil, ix) {
		return slot.Load()
	}
	return ix
}

// Lookup returns the ordinals of the version's rows whose column col equals
// key, in ascending order. NULL matches nothing. The returned slice is
// shared with the index: callers must not modify it.
func (v *TableVersion) Lookup(col string, key sqltypes.Value) ([]int, error) {
	ord := v.tab.Meta.ColIndex(col)
	if ord < 0 {
		return nil, fmt.Errorf("table %s: no column %q", v.tab.Meta.Name, col)
	}
	if key.IsNull() {
		return nil, nil
	}
	ix := v.tab.columnIndex(v, ord)
	var buf [16]byte
	probe := sqltypes.EncodeKey(buf[:0], key)
	ix.mu.RLock()
	ords, covered := ix.keys[string(probe)], ix.n >= v.n
	ix.mu.RUnlock()
	if !covered {
		ix.mu.Lock()
		ix.extendTo(v, ord)
		ords = ix.keys[string(probe)]
		ix.mu.Unlock()
	}
	// Ordinals at or past v.n belong to later versions. Elements below the
	// bucket's length are never rewritten (extensions only append), so the
	// trimmed slice stays valid without the lock.
	k := sort.SearchInts(ords, v.n)
	return ords[:k:k], nil
}
