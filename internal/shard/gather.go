// Gather: turning N shard cursors back into one result stream.
package shard

import (
	"fmt"
	"strconv"
	"strings"

	"udfdecorr/internal/exec"
	"udfdecorr/internal/plan"
	"udfdecorr/internal/sqltypes"
	"udfdecorr/internal/storage"
	"udfdecorr/internal/wire"
)

// Rows is the router's result cursor, mirroring the shape of a shard's
// /stream: a column header, then rows of formatted cells.
type Rows interface {
	Cols() []string
	// Next returns the next row, or (nil, nil) at end of stream.
	Next() ([]string, error)
	Close()
}

// concatRows drains shard streams in shard order. Partitions are disjoint
// and replicated tables complete everywhere, so the concatenation is the
// single-node result multiset; draining in order keeps output
// deterministic while all shards execute concurrently (their cursors were
// opened before the first row is pulled). Also used (with one stream) to
// relay a single-shard route.
type concatRows struct {
	streams []*shardStream
	cur     int
	emitted int64
}

func (c *concatRows) Cols() []string { return c.streams[0].Header.Cols }

func (c *concatRows) Next() ([]string, error) {
	for c.cur < len(c.streams) {
		row, err := c.streams[c.cur].next()
		if err != nil {
			if len(c.streams) > 1 {
				if re, ok := err.(*wire.RemoteError); ok {
					return nil, &wire.RemoteError{
						Code:    wire.CodePartialFailure,
						Message: fmt.Sprintf("scatter leg %d failed after %d gathered rows: %s", c.cur, c.emitted, re.Message),
					}
				}
				return nil, scatterError(c.cur, err)
			}
			return nil, err
		}
		if row == nil {
			c.cur++
			continue
		}
		c.emitted++
		return row, nil
	}
	return nil, nil
}

func (c *concatRows) Close() {
	for _, st := range c.streams {
		st.Close()
	}
}

// sliceRows serves a materialized result (the merge gather's output).
type sliceRows struct {
	cols []string
	rows [][]string
	pos  int
}

func (s *sliceRows) Cols() []string { return s.cols }

func (s *sliceRows) Next() ([]string, error) {
	if s.pos >= len(s.rows) {
		return nil, nil
	}
	r := s.rows[s.pos]
	s.pos++
	return r, nil
}

func (s *sliceRows) Close() {}

// gatherMerge drains every shard's partial-aggregate stream and merges the
// per-group partials with the engine's own operators: each shard row is
// NumKeys group-key cells followed by the partial cells of each aggregate
// (avg ships sum and count). The typed rows feed a HashAgg that sums sum
// and count partials, takes min/max of min/max partials and sums avg's two
// halves; a Project then finalizes avg and applies the query's output
// order. Merging must see every shard, so the result is materialized;
// groups come out in first-seen order, as a single node's GROUP BY does.
func gatherMerge(streams []*shardStream, spec *plan.MergeSpec) (Rows, error) {
	defer func() {
		for _, st := range streams {
			st.Close()
		}
	}()
	col := func(i int) exec.Evaluator {
		return func(_ *exec.Ctx, row storage.Row) (sqltypes.Value, error) { return row[i], nil }
	}
	keys := make([]exec.Evaluator, spec.NumKeys)
	for k := range keys {
		keys[k] = col(k)
	}
	// One merge aggregate per partial column, so partial column j of a
	// shard row becomes column j of the HashAgg's output row; aggAt[i] is
	// where spec.Aggs[i]'s partials start (avg: its sum, then its count).
	merge := func(fn string, j int) *exec.AggSpec {
		return &exec.AggSpec{Func: fn, Args: []exec.Evaluator{col(j)}}
	}
	var aggs []*exec.AggSpec
	aggAt := make([]int, len(spec.Aggs))
	for i, a := range spec.Aggs {
		j := spec.NumKeys + len(aggs)
		aggAt[i] = j
		switch a.Func {
		case "min", "max":
			aggs = append(aggs, merge(a.Func, j))
		case "avg":
			aggs = append(aggs, merge("sum", j), merge("sum", j+1))
		case "sum", "count":
			aggs = append(aggs, merge("sum", j))
		default:
			return nil, fmt.Errorf("aggregate %s cannot be merged from shard partials", a.Func)
		}
	}
	width := spec.NumKeys + len(aggs)

	var rows []storage.Row
	for i, st := range streams {
		for {
			cells, err := st.next()
			if err != nil {
				return nil, scatterError(i, err)
			}
			if cells == nil {
				break
			}
			if len(cells) != width {
				return nil, fmt.Errorf("scatter leg %d: partial row has %d cells, want %d", i, len(cells), width)
			}
			row := make(storage.Row, width)
			for j, cell := range cells {
				if row[j], err = parseCell(cell); err != nil {
					return nil, fmt.Errorf("scatter leg %d: %w", i, err)
				}
			}
			rows = append(rows, row)
		}
	}

	out := make([]exec.Evaluator, len(spec.Output))
	for i, oc := range spec.Output {
		switch {
		case !oc.IsAgg:
			out[i] = col(oc.Index)
		case spec.Aggs[oc.Index].Func == "avg":
			out[i] = avgOf(aggAt[oc.Index])
		default:
			out[i] = col(aggAt[oc.Index])
		}
	}
	agg := exec.NewHashAgg(keys, aggs, exec.NewValues(rows, nil), nil)
	merged, err := exec.Drain(exec.NewProject(out, false, agg, nil), exec.NewCtx(nil))
	if err != nil {
		return nil, err
	}
	text := make([][]string, len(merged))
	for i, row := range merged {
		text[i] = make([]string, len(row))
		for j, v := range row {
			text[i][j] = v.String()
		}
	}
	return &sliceRows{cols: spec.Cols, rows: text}, nil
}

// avgOf finalizes a merged avg from its summed sum (at i) and count (at
// i+1) partials: the float quotient, or NULL over no non-NULL values.
func avgOf(i int) exec.Evaluator {
	return func(_ *exec.Ctx, row storage.Row) (sqltypes.Value, error) {
		n, _ := row[i+1].AsInt()
		if n == 0 {
			return sqltypes.Null, nil
		}
		sum, ok := row[i].AsFloat()
		if !ok {
			return sqltypes.Null, fmt.Errorf("avg sum partial %s is not numeric", row[i])
		}
		return sqltypes.NewFloat(sum / float64(n)), nil
	}
}

// parseCell parses one formatted stream cell back into a value. Cells are
// rendered by sqltypes.Value.String(), whose float form is the shortest
// round-tripping representation, so the parse is lossless.
func parseCell(s string) (sqltypes.Value, error) {
	switch {
	case s == "NULL":
		return sqltypes.Null, nil
	case s == "TRUE":
		return sqltypes.NewBool(true), nil
	case s == "FALSE":
		return sqltypes.NewBool(false), nil
	case strings.HasPrefix(s, "'"):
		if len(s) < 2 || !strings.HasSuffix(s, "'") {
			return sqltypes.Null, fmt.Errorf("bad string cell %q", s)
		}
		return sqltypes.NewString(strings.ReplaceAll(s[1:len(s)-1], "''", "'")), nil
	default:
		if i, err := strconv.ParseInt(s, 10, 64); err == nil {
			return sqltypes.NewInt(i), nil
		}
		f, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return sqltypes.Null, fmt.Errorf("bad numeric cell %q", s)
		}
		return sqltypes.NewFloat(f), nil
	}
}
