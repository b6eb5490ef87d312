// Physical-plan tree rendering for EXPLAIN ANALYZE: a structural walk over
// the operator graph (PlanChildren/PlanLabel) plus FormatTree, which
// annotates each operator with the stats a Profiler measured for it.
package exec

import (
	"fmt"
	"strings"
	"time"
)

// PlanChildren returns n's child plan nodes in display order (outer/probe
// side first). Leaves — scans, index probes, Values, Single, table
// functions, and parallel operators, whose Describe text names the
// pipeline their workers run — return nil.
func PlanChildren(n Node) []Node {
	switch x := n.(type) {
	case *Filter:
		return []Node{x.Child}
	case *Project:
		return []Node{x.Child}
	case *Limit:
		return []Node{x.Child}
	case *Sort:
		return []Node{x.Child}
	case *HashAgg:
		return []Node{x.Child}
	case *UnionAll:
		return []Node{x.L, x.R}
	case *Apply:
		return []Node{x.L, x.R}
	case *NLJoin:
		return []Node{x.L, x.R}
	case *HashJoin:
		return []Node{x.L, x.R}
	case *BatchFilter:
		return []Node{x.Child}
	case *BatchProject:
		return []Node{x.Child}
	case *BatchLimit:
		return []Node{x.Child}
	case *BatchGroupBy:
		return []Node{x.Child}
	case *BatchHashJoin:
		return []Node{x.L, x.R}
	}
	return nil
}

// PlanLabel names an operator for the annotated tree. Parallel operators
// reuse their EXPLAIN Describe text (which names the pipeline), so the
// analyze tree and the plan-choice notes agree.
func PlanLabel(n Node) string {
	switch x := n.(type) {
	case *TableScan:
		return "TableScan(" + x.Tab.Meta.Name + ")" + zoneNote(x.Bounds)
	case *IndexLookup:
		return "IndexLookup(" + x.Tab.Meta.Name + "." + x.Col + ")" + x.widthNote()
	case *Filter:
		return "Filter"
	case *Project:
		if x.Dedup {
			return "Project(distinct)"
		}
		return "Project"
	case *Limit:
		return fmt.Sprintf("Limit(%d)", x.N)
	case *Sort:
		return "Sort"
	case *UnionAll:
		return "UnionAll"
	case *Single:
		return "Single"
	case *Values:
		return fmt.Sprintf("Values(%d)", len(x.Rows))
	case *FuncTable:
		return "FuncTable(" + x.Name + ")"
	case *Apply:
		return "Apply(" + x.Kind.String() + ")" + x.widthNote()
	case *NLJoin:
		return "NLJoin(" + x.Kind.String() + ")" + x.widthNote()
	case *HashJoin:
		return "HashJoin(" + x.Kind.String() + ")" + x.widthNote()
	case *HashAgg:
		if len(x.Keys) == 0 {
			return "ScalarAgg"
		}
		return "HashAgg"
	case *BatchScan:
		return "BatchScan(" + x.Tab.Meta.Name + ")" + zoneNote(x.Bounds)
	case *BatchFilter:
		return "BatchFilter"
	case *BatchProject:
		if x.Dedup {
			return "BatchProject(distinct)"
		}
		return "BatchProject"
	case *BatchLimit:
		return fmt.Sprintf("BatchLimit(%d)", x.N)
	case *BatchHashJoin:
		return "BatchHashJoin(" + x.Kind.String() + ")" + x.widthNote()
	case *BatchGroupBy:
		return "BatchGroupBy"
	case *Exchange:
		return x.Describe()
	case *parallelGroupBy:
		return x.Describe()
	}
	return fmt.Sprintf("%T", n)
}

// FormatTree renders the plan rooted at root as an indented tree, one
// operator per line, annotated with prof's measurements (pass nil for a
// bare structural tree). Counts are deterministic for a given plan and
// data; times are wall-clock and vary run to run.
func FormatTree(root Node, prof *Profiler) string {
	var b strings.Builder
	var walk func(n Node, depth int)
	walk = func(n Node, depth int) {
		b.WriteString(strings.Repeat("  ", depth))
		b.WriteString(PlanLabel(n))
		if prof != nil {
			st := prof.Stats(n)
			b.WriteString(formatOpStats(st))
		}
		b.WriteByte('\n')
		for _, c := range PlanChildren(n) {
			walk(c, depth+1)
		}
	}
	walk(root, 0)
	return b.String()
}

// formatOpStats renders one operator's annotation suffix.
func formatOpStats(st OpStats) string {
	if st.Opens == 0 && st.Workers == 0 {
		return "  (never executed)"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "  rows=%d", st.Rows)
	if st.Batches > 0 {
		fmt.Fprintf(&b, " batches=%d", st.Batches)
	}
	if st.Opens > 1 {
		fmt.Fprintf(&b, " loops=%d", st.Opens)
	}
	fmt.Fprintf(&b, " time=%s", fmtAnalyzeDur(st.Time))
	if st.Workers > 0 {
		fmt.Fprintf(&b, " workers=%d worker_rows=%d worker_time=%s",
			st.Workers, st.WorkerRows, fmtAnalyzeDur(st.WorkerTime))
	}
	if st.Segs > 0 {
		fmt.Fprintf(&b, " segs=%d/%d", st.SegsRead, st.Segs)
	}
	return b.String()
}

func fmtAnalyzeDur(d time.Duration) string {
	return d.Round(time.Microsecond).String()
}
