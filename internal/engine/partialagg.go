// Shard-local partial aggregation: the plan rewrite behind
// Engine.PreparePartialAgg. A shard executing the scatter-merge half of a
// distributed GROUP BY must not finalize its aggregates — AVG in
// particular cannot be averaged across shards — so the root
// Project-over-GroupBy is replaced by a bare GroupBy whose schema is the
// canonical merge layout: group keys first, then one column per partial
// (avg contributes its sum and its non-NULL count). The router's gather
// merges these with exec's HashAgg and applies the original projection
// order itself.
package engine

import (
	"fmt"
	"strings"

	"udfdecorr/internal/algebra"
	"udfdecorr/internal/catalog"
)

// PartialSumSuffix / PartialCountSuffix name the two columns an avg
// decomposes into (visible in EXPLAIN output of partial plans).
const (
	PartialSumSuffix   = "__psum"
	PartialCountSuffix = "__pcnt"
)

// partialAggRewrite rewrites the normalized algebra for shard-local partial
// aggregation, or explains why the plan shape does not support it.
func partialAggRewrite(rel algebra.Rel) (algebra.Rel, error) {
	proj, ok := rel.(*algebra.Project)
	if !ok {
		return nil, fmt.Errorf("shard partial aggregation: plan root is %s, want projection over GROUP BY", rel.Describe())
	}
	if proj.Dedup {
		return nil, fmt.Errorf("shard partial aggregation: DISTINCT projection cannot be merged across shards")
	}
	gb, ok := proj.In.(*algebra.GroupBy)
	if !ok {
		return nil, fmt.Errorf("shard partial aggregation: projection input is %s, want GROUP BY (HAVING and post-aggregate operators are not mergeable)", proj.In.Describe())
	}
	aggs := make([]algebra.AggCall, 0, len(gb.Aggs)+1)
	for _, a := range gb.Aggs {
		fn := strings.ToLower(a.Func)
		// Every builtin's per-shard results combine losslessly; DISTINCT
		// forms do not (a value may appear on several shards).
		if a.Distinct || !catalog.BuiltinAggregates[fn] {
			return nil, fmt.Errorf("shard partial aggregation: aggregate %s is not mergeable across shards", a.String())
		}
		if fn == "avg" {
			// A shard-local average loses its weight; ship the numerator and
			// the non-NULL denominator instead. count(args) (not count(*))
			// keeps NULL handling identical to single-node avg.
			aggs = append(aggs,
				algebra.AggCall{Func: "sum", Args: a.Args, As: a.As + PartialSumSuffix},
				algebra.AggCall{Func: "count", Args: a.Args, As: a.As + PartialCountSuffix},
			)
			continue
		}
		aggs = append(aggs, a)
	}
	return &algebra.GroupBy{Keys: gb.Keys, Aggs: aggs, In: gb.In}, nil
}
