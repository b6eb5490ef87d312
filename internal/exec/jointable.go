package exec

import (
	"sync"

	"udfdecorr/internal/sqltypes"
	"udfdecorr/internal/storage"
)

// joinTable is the build side of a hash join, for the row HashJoin and
// BatchHashJoin alike. A parallel build splits it into partitions by key
// hash, each filled by one worker without locking; a serial build has one
// partition. Each partition keeps integer or encoded keys on its own, since
// partOf sends equal keys to one partition either way. After the build the
// table is read-only, so any number of probe workers may share it.
type joinTable struct {
	parts []joinPart
}

// joinPart maps join keys to build rows in build order. While every key is
// a single integer value (the common foreign-key case) it keeps an integer
// map and skips key encoding; the first key of another kind moves it to
// encoded keys for good. 1 and 1.0 share a bucket either way.
type joinPart struct {
	intTable map[int64][]storage.Row // non-nil while every key is an integer
	table    map[string][]storage.Row
}

// newJoinPart returns an empty part sized for hint rows.
func newJoinPart(nKeys, hint int) joinPart {
	if nKeys == 1 {
		return joinPart{intTable: make(map[int64][]storage.Row, hint)}
	}
	return joinPart{table: make(map[string][]storage.Row, hint)}
}

// add inserts row under its non-NULL key values.
func (p *joinPart) add(keys []sqltypes.Value, row storage.Row) {
	if p.intTable != nil {
		if ik, ok := intKeyOf(keys); ok {
			p.intTable[ik] = append(p.intTable[ik], row)
			return
		}
		p.encodeKeys()
	}
	k := sqltypes.KeyOf(keys...)
	p.table[k] = append(p.table[k], row)
}

// encodeKeys moves an integer part to encoded keys.
func (p *joinPart) encodeKeys() {
	p.table = make(map[string][]storage.Row, len(p.intTable))
	var kb []byte
	for ik, rows := range p.intTable {
		kb = sqltypes.EncodeKey(kb[:0], sqltypes.NewInt(ik))
		p.table[string(kb)] = rows
	}
	p.intTable = nil
}

// get returns the bucket for non-NULL probe key values.
func (p *joinPart) get(keys []sqltypes.Value) []storage.Row {
	if p.intTable != nil {
		ik, ok := intKeyOf(keys)
		if !ok {
			return nil
		}
		return p.intTable[ik]
	}
	return p.table[sqltypes.KeyOf(keys...)]
}

// intKeyOf returns the integer a single key value equals: an int, or a
// float with an integral value in int64's range, whose key encoding is the
// same as that int's.
func intKeyOf(keys []sqltypes.Value) (int64, bool) {
	if len(keys) != 1 {
		return 0, false
	}
	v := &keys[0] // a copy of the Value costs more than the rest
	switch v.Kind() {
	case sqltypes.KindInt:
		return v.Int(), true
	case sqltypes.KindFloat:
		if f := v.Float(); f >= -(1<<63) && f < 1<<63 && f == float64(int64(f)) {
			return int64(f), true
		}
	}
	return 0, false
}

// partOf maps non-NULL key values to one of parts partitions. An integer
// key hashes its integer (a multiplicative mix, so sequential keys spread),
// which puts it in the same partition whether that partition holds integer
// or encoded keys; any other key hashes its encoding (FNV-1a).
func partOf(keys []sqltypes.Value, parts int) int {
	if ik, ok := intKeyOf(keys); ok {
		return int((uint64(ik) * 0x9E3779B97F4A7C15 >> 33) % uint64(parts))
	}
	var buf [64]byte
	kb := buf[:0]
	for _, v := range keys {
		kb = sqltypes.EncodeKey(kb, v)
	}
	h := uint64(14695981039346656037)
	for _, c := range kb {
		h = (h ^ uint64(c)) * 1099511628211
	}
	return int(h % uint64(parts))
}

// lookup returns the bucket for non-NULL probe key values.
func (jt *joinTable) lookup(keys []sqltypes.Value) []storage.Row {
	if len(jt.parts) == 1 {
		return jt.parts[0].get(keys)
	}
	return jt.parts[partOf(keys, len(jt.parts))].get(keys)
}

// drainKeyed drains build batch-at-a-time, evaluates its key expressions,
// and calls add for every row whose key values are all non-NULL (NULL keys
// never join). Batch.AppendTo carves the rows from one block per batch
// rather than allocating each. add must copy keys to keep them: the slice
// is reused.
func drainKeyed(ctx *Ctx, build Node, keyFs []VecFactory, add func(keys []sqltypes.Value, row storage.Row)) error {
	ri, err := OpenBatches(build, ctx)
	if err != nil {
		return err
	}
	defer ri.Close()
	evs := Instantiate(keyFs)
	keyVecs := make([][]sqltypes.Value, len(evs))
	keys := make([]sqltypes.Value, len(evs))
	var rows []storage.Row // the current batch's rows, reused across batches
	for {
		if err := ctx.Cancelled(); err != nil {
			return err
		}
		b, ok, err := ri.NextBatch(DefaultBatchSize)
		if err != nil || !ok {
			return err
		}
		for i, k := range evs {
			if keyVecs[i], err = k(ctx, b); err != nil {
				return err
			}
		}
		rows = b.AppendTo(rows[:0])
	next:
		for i, row := range rows {
			p := b.LiveAt(i)
			for c := range keyVecs {
				if keys[c] = keyVecs[c][p]; keys[c].IsNull() {
					continue next
				}
			}
			add(keys, row)
		}
	}
}

// buildJoinTable drains a build-side plan into a join table of the given
// partition count. With one partition the rows go straight into it. With
// more, the drain buckets each row with a copy of its keys by partition,
// then one goroutine per partition fills its part from its bucket in build
// order.
func buildJoinTable(ctx *Ctx, build Node, keyFs []VecFactory, parts int) (*joinTable, error) {
	if parts <= 1 {
		p := newJoinPart(len(keyFs), 0)
		if err := drainKeyed(ctx, build, keyFs, p.add); err != nil {
			return nil, err
		}
		return &joinTable{parts: []joinPart{p}}, nil
	}
	type keyedRow struct {
		keys []sqltypes.Value
		row  storage.Row
	}
	byPart := make([][]keyedRow, parts)
	var spare []sqltypes.Value // key copies are carved from batch-sized blocks
	err := drainKeyed(ctx, build, keyFs, func(keys []sqltypes.Value, row storage.Row) {
		if len(spare) < len(keys) {
			spare = make([]sqltypes.Value, DefaultBatchSize*len(keys))
		}
		k := spare[:len(keys):len(keys)]
		spare = spare[len(keys):]
		copy(k, keys)
		w := partOf(k, parts)
		byPart[w] = append(byPart[w], keyedRow{keys: k, row: row})
	})
	if err != nil {
		return nil, err
	}
	jt := &joinTable{parts: make([]joinPart, parts)}
	var wg sync.WaitGroup
	for w := range jt.parts {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			p := newJoinPart(len(keyFs), len(byPart[w]))
			for _, e := range byPart[w] {
				p.add(e.keys, e.row)
			}
			jt.parts[w] = p
		}(w)
	}
	wg.Wait()
	return jt, nil
}
