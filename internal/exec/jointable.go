package exec

import (
	"math"
	"sync"

	"udfdecorr/internal/sqltypes"
)

// joinTable is BatchHashJoin's build side: the build rows the join reads,
// kept as columns, and an index from key to build ordinal. A build ordinal
// is a kept row's position in those columns; a row with a NULL key is not
// kept, since it never joins. A parallel build splits the index into
// partitions by key hash, each filled by one worker without locking; a
// serial build has one partition. After the build the table is read-only,
// so any number of probe workers may share it.
type joinTable struct {
	cols  [][]sqltypes.Value // cols[c][o]: build column c of ordinal o; nil for a column the join does not read
	parts []joinPart
}

// joinPart maps join keys to build ordinals. Each distinct key has a dense
// id from a sqltypes.KeyIndex, and the ordinals are laid out by id, in
// build order within an id: the ordinals of id k are
// ords[start[k]:start[k+1]]. A key costs no slice of its own, and a key's
// match count is start[k+1]-start[k].
type joinPart struct {
	keys  sqltypes.KeyIndex
	start []int32
	ords  []int32
}

// index fills the part with the build ordinals ords, in order: keys[c][i]
// is key column c of ordinal ords[i], and none is NULL.
func (p *joinPart) index(keys [][]sqltypes.Value, ords []int32) {
	ids := make([]int32, len(ords))
	for i := range ids {
		ids[i], _ = p.keys.Add(keys, i)
	}
	p.layout(ids, ords)
}

// layout lays the ordinals out by id, where ids[i] is the id of the i-th
// ordinal (ords[i], or i when ords is nil) and -1 leaves it out: it counts
// each id's ordinals, turns the counts into offsets, then scatters the
// ordinals in build order.
func (p *joinPart) layout(ids, ords []int32) {
	p.start = make([]int32, p.keys.Len()+1)
	for _, id := range ids {
		if id >= 0 {
			p.start[id+1]++
		}
	}
	for k := 1; k < len(p.start); k++ {
		p.start[k] += p.start[k-1]
	}
	p.ords = make([]int32, p.start[len(p.start)-1])
	for i, id := range ids {
		if id < 0 {
			continue
		}
		o := int32(i)
		if ords != nil {
			o = ords[i]
		}
		p.ords[p.start[id]] = o
		p.start[id]++
	}
	// Each start[k] now holds where id k's ordinals end, which is where id
	// k+1's begin.
	copy(p.start[1:], p.start)
	p.start[0] = 0
}

// checkOrdinals reports an error when n build rows overflow an int32
// ordinal.
func checkOrdinals(n int) error {
	if n > math.MaxInt32 {
		return Errorf("hash join build side has more than %d rows", math.MaxInt32)
	}
	return nil
}

// get returns the build ordinals whose key equals the key at position pos
// of vecs, in build order.
func (p *joinPart) get(vecs [][]sqltypes.Value, pos int) []int32 {
	id, ok := p.keys.Get(vecs, pos)
	if !ok {
		return nil
	}
	return p.ords[p.start[id]:p.start[id+1]]
}

// nullAt reports whether any key at position p is NULL.
func nullAt(vecs [][]sqltypes.Value, p int) bool {
	for _, vec := range vecs {
		if vec[p].IsNull() {
			return true
		}
	}
	return false
}

// lookup returns the build ordinals matching the probe key at position p of
// vecs: none when the key has a NULL, since the build leaves such keys out.
func (jt *joinTable) lookup(vecs [][]sqltypes.Value, p int) []int32 {
	if len(jt.parts) == 1 {
		return jt.parts[0].get(vecs, p)
	}
	return jt.parts[sqltypes.KeyPart(vecs, p, len(jt.parts))].get(vecs, p)
}

// buildJoinTable drains j's build side into a join table of the given
// partition count. The drain copies, column by column, the build columns
// the join reads of every row whose key has no NULL. With one partition the
// drain gives each row its key's id as it goes, and the part lays the
// ordinals out at the end. With more, the drain buckets each row's ordinal
// and key values by partition, and one goroutine per partition indexes its
// bucket in build order.
func buildJoinTable(ctx *Ctx, j *BatchHashJoin, parts int) (*joinTable, error) {
	ri, err := OpenBatches(j.R, ctx)
	if err != nil {
		return nil, err
	}
	defer ri.Close()
	reads := j.buildReads()
	evs := Instantiate(j.RKeys)
	keyVecs := make([][]sqltypes.Value, len(evs)) // the current batch's
	jt := &joinTable{cols: make([][]sqltypes.Value, len(reads)), parts: make([]joinPart, max(parts, 1))}
	var ids []int32 // serial: the id of each ordinal
	type bucket struct {
		keys [][]sqltypes.Value // keys[c][i]: key column c of ords[i]
		ords []int32
	}
	var buckets []bucket // parallel: one per partition
	if len(jt.parts) > 1 {
		buckets = make([]bucket, len(jt.parts))
		for w := range buckets {
			buckets[w].keys = make([][]sqltypes.Value, len(evs))
		}
	}
	var kept []int // the current batch's positions with non-NULL keys
	n := 0
	for {
		if err := ctx.Cancelled(); err != nil {
			return nil, err
		}
		b, ok, err := ri.NextBatch(DefaultBatchSize)
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		for i, k := range evs {
			if keyVecs[i], err = k(ctx, b); err != nil {
				return nil, err
			}
		}
		kept = kept[:0]
		for i := 0; i < b.Len(); i++ {
			if p := b.LiveAt(i); !nullAt(keyVecs, p) {
				kept = append(kept, p)
			}
		}
		for c, read := range reads {
			if read {
				jt.cols[c] = appendAt(jt.cols[c], b.Cols[c], kept)
			}
		}
		if buckets == nil {
			ids = extend(ids, n+len(kept))
			for i, p := range kept {
				ids[n+i], _ = jt.parts[0].keys.Add(keyVecs, p)
			}
		} else {
			for i, p := range kept {
				bk := &buckets[sqltypes.KeyPart(keyVecs, p, len(buckets))]
				for c, vec := range keyVecs {
					bk.keys[c] = append(bk.keys[c], vec[p])
				}
				bk.ords = append(bk.ords, int32(n+i))
			}
		}
		n += len(kept)
	}
	if err := checkOrdinals(n); err != nil {
		return nil, err
	}
	if buckets == nil {
		jt.parts[0].layout(ids, nil)
		return jt, nil
	}
	// A panic in a partition becomes the statement's error, as in the
	// morsel workers: it must not take the process down.
	var wg sync.WaitGroup
	errs := make([]error, len(buckets))
	for w := range buckets {
		wg.Add(1)
		go func(w int, p *joinPart, bk *bucket) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					errs[w] = Errorf("parallel join build panic: %v", r)
				}
			}()
			if PartitionBuildHook != nil {
				PartitionBuildHook(w)
			}
			p.index(bk.keys, bk.ords)
		}(w, &jt.parts[w], &buckets[w])
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return jt, nil
}

// PartitionBuildHook, when non-nil, runs first in each goroutine that
// indexes one partition of a parallel join build, with the partition's
// number. Tests set it to inject a panic; production code never writes it.
var PartitionBuildHook func(part int)

// appendAt appends src's values at the strictly increasing positions pos
// to dst. When pos is 0..len(pos)-1, a batch with every row kept, the
// values copy as one block.
func appendAt(dst, src []sqltypes.Value, pos []int) []sqltypes.Value {
	at := len(dst)
	dst = extend(dst, at+len(pos))
	if len(pos) > 0 && pos[len(pos)-1] == len(pos)-1 {
		copy(dst[at:], src[:len(pos)])
		return dst
	}
	for i, p := range pos {
		dst[at+i] = src[p]
	}
	return dst
}
