// Distributed partial-aggregate merging: the gather half of the shard
// router's scatter-merge. Shards run the same GROUP BY with finalization
// suppressed (avg decomposed into sum + non-NULL count, everything else
// shipped as its per-shard final value — shard partitions are disjoint, so
// sum/count/min/max merge losslessly from finals) and the router absorbs
// one partial tuple per shard per group into these states. The states are
// the exact mergeableState implementations the parallel group-by already
// merges per-worker, so distributed and intra-query aggregation cannot
// drift apart semantically.
package exec

import (
	"udfdecorr/internal/sqltypes"
)

// PartialAggSpec describes one aggregate of a distributed GROUP BY, in
// the order the shard-local partial plan emits them after the group keys.
type PartialAggSpec struct {
	Func string // sum, count, min, max, avg (lower-case)
	Star bool   // count(*) (labeling only; merge math is identical)
}

// Width is how many partial columns the shard plan ships for this
// aggregate: avg ships its sum and its non-NULL count, the rest one value.
func (s PartialAggSpec) Width() int {
	if s.Func == "avg" {
		return 2
	}
	return 1
}

// PartialMerge accumulates the per-shard partial tuples of one group and
// finalizes them into the aggregates' global values.
type PartialMerge struct {
	specs  []PartialAggSpec
	states []mergeableState
}

// NewPartialMerge builds the merge states for one group.
func NewPartialMerge(specs []PartialAggSpec) (*PartialMerge, error) {
	states := make([]mergeableState, len(specs))
	for i, sp := range specs {
		switch sp.Func {
		case "sum":
			states[i] = &sumState{}
		case "count":
			states[i] = &countState{star: sp.Star}
		case "min":
			states[i] = &minMaxState{}
		case "max":
			states[i] = &minMaxState{max: true}
		case "avg":
			states[i] = &avgState{}
		default:
			return nil, Errorf("aggregate %s cannot be merged from shard partials", sp.Func)
		}
	}
	return &PartialMerge{specs: specs, states: states}, nil
}

// Width is the total number of partial columns one shard row carries for
// these specs (the row's arity past the group keys).
func (m *PartialMerge) Width() int {
	w := 0
	for _, sp := range m.specs {
		w += sp.Width()
	}
	return w
}

// Absorb merges one shard's partial tuple (the row cells after the group
// keys, in spec order) into the running states.
func (m *PartialMerge) Absorb(partials []sqltypes.Value) error {
	if len(partials) != m.Width() {
		return Errorf("partial tuple has %d cells, want %d", len(partials), m.Width())
	}
	i := 0
	for k, sp := range m.specs {
		switch sp.Func {
		case "sum":
			if err := m.states[k].mergeState(&sumState{acc: partials[i]}); err != nil {
				return err
			}
			i++
		case "count":
			n, ok := partials[i].AsInt()
			if !ok {
				return Errorf("count partial %s is not an integer", partials[i])
			}
			if err := m.states[k].mergeState(&countState{n: n}); err != nil {
				return err
			}
			i++
		case "min", "max":
			if err := m.states[k].mergeState(&minMaxState{best: partials[i]}); err != nil {
				return err
			}
			i++
		case "avg":
			sum, cnt := partials[i], partials[i+1]
			o := &avgState{}
			if !sum.IsNull() {
				f, ok := sum.AsFloat()
				if !ok {
					return Errorf("avg sum partial %s is not numeric", sum)
				}
				n, ok := cnt.AsInt()
				if !ok {
					return Errorf("avg count partial %s is not an integer", cnt)
				}
				o.sum, o.n = f, n
			}
			if err := m.states[k].mergeState(o); err != nil {
				return err
			}
			i += 2
		}
	}
	return nil
}

// Results finalizes the merged states into one value per aggregate.
func (m *PartialMerge) Results() ([]sqltypes.Value, error) {
	out := make([]sqltypes.Value, len(m.states))
	for i, st := range m.states {
		v, err := st.result(nil)
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}
