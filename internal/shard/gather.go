// Gather: turning N shard cursors back into one result stream.
package shard

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"udfdecorr/internal/exec"
	"udfdecorr/internal/plan"
	"udfdecorr/internal/sqltypes"
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
// per-group partials: each shard row is NumKeys group-key cells followed by
// the partial cells of each aggregate (avg ships sum and count). Merging
// must see every shard, so the result is materialized; groups come out
// sorted by key for determinism (single-node GROUP BY order is hash-driven
// and comparisons canonicalize anyway).
func gatherMerge(streams []*shardStream, spec *plan.MergeSpec) (Rows, error) {
	defer func() {
		for _, st := range streams {
			st.Close()
		}
	}()
	specs := make([]exec.PartialAggSpec, len(spec.Aggs))
	for i, a := range spec.Aggs {
		specs[i] = exec.PartialAggSpec{Func: a.Func, Star: a.Star}
	}
	type group struct {
		keyCells []string
		pm       *exec.PartialMerge
	}
	groups := map[string]*group{}
	for i, st := range streams {
		for {
			row, err := st.next()
			if err != nil {
				return nil, scatterError(i, err)
			}
			if row == nil {
				break
			}
			if len(row) < spec.NumKeys {
				return nil, fmt.Errorf("scatter leg %d: partial row has %d cells, want at least %d keys", i, len(row), spec.NumKeys)
			}
			keyCells := row[:spec.NumKeys]
			k := strings.Join(keyCells, "\x1f")
			g, ok := groups[k]
			if !ok {
				pm, err := exec.NewPartialMerge(specs)
				if err != nil {
					return nil, err
				}
				g = &group{keyCells: keyCells, pm: pm}
				groups[k] = g
			}
			partials := make([]sqltypes.Value, 0, len(row)-spec.NumKeys)
			for _, cell := range row[spec.NumKeys:] {
				v, err := parseCell(cell)
				if err != nil {
					return nil, fmt.Errorf("scatter leg %d: %w", i, err)
				}
				partials = append(partials, v)
			}
			if err := g.pm.Absorb(partials); err != nil {
				return nil, fmt.Errorf("scatter leg %d: %w", i, err)
			}
		}
	}
	keys := make([]string, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([][]string, 0, len(groups))
	for _, k := range keys {
		g := groups[k]
		merged, err := g.pm.Results()
		if err != nil {
			return nil, err
		}
		row := make([]string, len(spec.Output))
		for i, oc := range spec.Output {
			if oc.IsAgg {
				row[i] = merged[oc.Index].String()
			} else {
				row[i] = g.keyCells[oc.Index]
			}
		}
		out = append(out, row)
	}
	return &sliceRows{cols: spec.Cols, rows: out}, nil
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
