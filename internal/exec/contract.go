package exec

import (
	"fmt"
	"sync/atomic"

	"udfdecorr/internal/sqltypes"
)

// The BatchIter contract has three clauses:
//
//  1. Size: NextBatch(max) never yields a batch with more than max live
//     rows, which lets batch sizes propagate through operator trees without
//     any consumer re-checking.
//
//  2. Ownership: the returned *Batch — the struct AND every column vector it
//     references — is owned by the iterator and valid only until the next
//     NextBatch or Close call. Scan iterators alias storage segments
//     zero-copy and rewrite their header in place; other operators reuse
//     private buffers. A consumer that needs data beyond that window must
//     copy it out (Batch.AppendTo / Batch.Row); individual sqltypes.Value
//     elements are immutable and always safe to keep.
//
//  3. Shape: every column vector holds at least Physical() values, and Sel,
//     when set, strictly increases within [0, Physical()). A consumer may
//     then index any column at any live position, and a join may pass a
//     probe batch's vectors through under a selection of its own.
//
// This file provides a test hook that wraps every iterator handed across an
// operator edge (OpenBatches, which parallel workers open their pipelines
// through too) with a checker, so the differential corpus doubles as a
// property test of the contract for every operator, including ones added
// later.

// batchContractHook, when set, wraps batch iterators at every operator
// edge. Test-only: install with SetBatchContractHook before running queries
// and remove it afterwards; the hook itself must be safe for concurrent use
// (parallel workers open iterators from many goroutines).
var batchContractHook atomic.Pointer[func(BatchIter) BatchIter]

// SetBatchContractHook installs (or, with nil, removes) the contract hook.
func SetBatchContractHook(h func(BatchIter) BatchIter) {
	if h == nil {
		batchContractHook.Store(nil)
		return
	}
	batchContractHook.Store(&h)
}

// contractWrap applies the hook when installed.
func contractWrap(it BatchIter) BatchIter {
	if h := batchContractHook.Load(); h != nil {
		return (*h)(it)
	}
	return it
}

// BatchPoison is the sentinel written over expired batch copies by the
// contract checker. A consumer that reads a batch past its validity window
// sees this value, so result comparisons in the property test flag the
// retention.
var BatchPoison = sqltypes.NewString("\x00batch-contract-poison\x00")

// NewContractChecker wraps an iterator so every NextBatch(max) result is
// checked against the size and shape clauses (each violation reported
// through onViolation as a sentence) AND the ownership clause: each batch
// is handed out as a private deep copy in one of two alternating buffers,
// and the previous handout is overwritten with BatchPoison the moment the
// next call is made. A consumer that retains a batch — the pointer or its
// column slices — past the contract window reads poison instead of
// silently reading whatever the producer reused the buffer for, turning an
// aliasing bug into a deterministic wrong answer.
func NewContractChecker(in BatchIter, onViolation func(violation string)) BatchIter {
	return &contractIter{in: in, onViolation: onViolation}
}

type contractIter struct {
	in          BatchIter
	onViolation func(violation string)
	bufs        [2]*Batch
	cur         int
}

func (c *contractIter) NextBatch(max int) (*Batch, bool, error) {
	b, ok, err := c.in.NextBatch(max)
	if !ok || err != nil {
		// End of stream or error also ends the previous batch's window.
		poisonBatch(c.bufs[c.cur])
		return b, ok, err
	}
	if b.Len() > max {
		c.onViolation(fmt.Sprintf("%d live rows for max %d", b.Len(), max))
	}
	if v := shapeViolation(b); v != "" {
		c.onViolation(v)
	}
	c.cur ^= 1
	poisonBatch(c.bufs[c.cur^1])
	out := c.bufs[c.cur]
	if out == nil {
		out = &Batch{}
		c.bufs[c.cur] = out
	}
	copyBatchInto(out, b)
	return out, true, nil
}

// shapeViolation describes how b breaks the shape clause, or returns "".
func shapeViolation(b *Batch) string {
	for i, col := range b.Cols {
		if len(col) < b.n {
			return fmt.Sprintf("column %d holds %d values for %d physical rows", i, len(col), b.n)
		}
	}
	for k, p := range b.Sel {
		if p < 0 || p >= b.n || k > 0 && p <= b.Sel[k-1] {
			return fmt.Sprintf("selection %v does not strictly increase within [0, %d)", b.Sel, b.n)
		}
	}
	return ""
}

func (c *contractIter) Close() error {
	poisonBatch(c.bufs[0])
	poisonBatch(c.bufs[1])
	return c.in.Close()
}

// poisonBatch overwrites a previously handed-out copy with the sentinel.
// Only checker-owned buffers are ever poisoned — never the producer's
// vectors, which may alias immutable storage segments.
func poisonBatch(b *Batch) {
	if b == nil {
		return
	}
	for _, col := range b.Cols {
		for i := range col {
			col[i] = BatchPoison
		}
	}
}

// copyBatchInto deep-copies src's column vectors and selection into dst's
// reusable backing.
func copyBatchInto(dst, src *Batch) {
	if cap(dst.Cols) < len(src.Cols) {
		dst.Cols = make([][]sqltypes.Value, len(src.Cols))
	}
	dst.Cols = dst.Cols[:len(src.Cols)]
	for i, col := range src.Cols {
		dst.Cols[i] = append(dst.Cols[i][:0], col...)
	}
	if src.Sel == nil {
		dst.Sel = nil
	} else {
		dst.Sel = append(dst.Sel[:0], src.Sel...)
	}
	dst.n = src.n
}
