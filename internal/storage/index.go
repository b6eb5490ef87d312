// Hash indexes for equality lookups: one per (table, column), shared by
// every version of the table.
//
// One index can serve every version because a table is append-only: each
// version's rows are a prefix of the same ordinal space, and no writer ever
// changes a published row. The index records which prefix it has hashed
// (colIndex.n). A probe on version v first extends it to v.n — hashing only
// the rows published since the last extension, read through v's own
// immutable segments — and then returns the key's ordinals below v.n.
// Each key's ordinals are in ascending order, so that is a prefix of its
// list. Writers never touch the index; a reader waits for an extension at
// most as long as it takes to hash the rows appended since the previous
// probe.
package storage

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"udfdecorr/internal/sqltypes"
)

// colIndex is one column's hash index, covering ordinals [0, n): keys
// gives each distinct non-NULL value an id, and ords[id] lists the
// ordinals holding it in ascending order. A NULL row is left out, since
// NULL matches nothing.
//
// A key's first ordinal is a capacity-1 slice carved from slab, so a
// unique column pays no allocation per key. Appending a key's second
// ordinal then copies its list out of the slab; a slab slot, once
// written, is never rewritten, so the prefixes Lookup hands out stay valid.
type colIndex struct {
	mu   sync.RWMutex // guards n, keys, ords and slab; probes read under RLock
	n    int
	keys sqltypes.KeyIndex
	ords [][]int
	slab []int
}

// maxSlab caps the ordinals one slab holds.
const maxSlab = 1024

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
	for o := ix.n; o < v.n; o++ {
		vecs, p := [][]sqltypes.Value{v.segs[o/SegmentRows].cols[ord]}, o%SegmentRows
		if vecs[0][p].IsNull() {
			continue
		}
		id, added := ix.keys.Add(vecs, p)
		if !added {
			ix.ords[id] = append(ix.ords[id], o)
			continue
		}
		if len(ix.slab) == cap(ix.slab) {
			ix.slab = make([]int, 0, min(max(len(ix.ords), 8), maxSlab))
		}
		at := len(ix.slab)
		ix.slab = append(ix.slab, o)
		ix.ords = append(ix.ords, ix.slab[at:at+1:at+1])
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
	ix := &colIndex{}
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
	probe := [][]sqltypes.Value{{key}}
	ix.mu.RLock()
	ords, covered := ix.lookup(probe), ix.n >= v.n
	ix.mu.RUnlock()
	if !covered {
		ix.mu.Lock()
		ix.extendTo(v, ord)
		ords = ix.lookup(probe)
		ix.mu.Unlock()
	}
	// Ordinals at or past v.n belong to later versions. Elements below a
	// list's length are never rewritten (extensions only append), so the
	// trimmed slice stays valid without the lock.
	k := sort.SearchInts(ords, v.n)
	return ords[:k:k], nil
}

// lookup returns the ordinals of the key in probe. Caller holds ix.mu.
func (ix *colIndex) lookup(probe [][]sqltypes.Value) []int {
	if id, ok := ix.keys.Get(probe, 0); ok {
		return ix.ords[id]
	}
	return nil
}
