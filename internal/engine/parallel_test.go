package engine_test

// Parallel-executor differential harness: the whole corpus must agree with
// the iterative row-engine ground truth when executed on the parallel
// vectorized path, for parallelism 1 and 4 (run under -race in CI). Two
// relaxations versus the serial differential suite, both inherent to
// parallel execution: row order is worker-interleaved (multiset compare, as
// everywhere), and floating-point aggregation may re-associate across
// worker partials, so floats compare at 9 significant digits instead of
// bit-for-bit. Integer results stay exact.
//
// The batch-contract property test rides the same corpus: a hook wraps
// every iterator handed across an operator edge — including inside parallel
// worker pipelines — and checks both contract clauses (see exec/contract.go):
// NextBatch(max) never yields more than max live rows, for max ∈ {1, 2, 3,
// 7, 1024}; and no operator reads a batch past its validity window (each
// handed-out batch is poisoned when the window closes, so retained-batch
// aliasing surfaces as a result mismatch against an unchecked run). This is
// the test that makes the hash-join hot-key and the scan-buffer-reuse bug
// classes unrepresentable for future operators.

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"udfdecorr/internal/bench"
	"udfdecorr/internal/engine"
	"udfdecorr/internal/exec"
	"udfdecorr/internal/sqltypes"
	"udfdecorr/internal/storage"
)

// canonicalValue renders a value for comparison, rounding floats to 9
// significant digits (parallel aggregation may re-associate additions).
func canonicalValue(v sqltypes.Value) string {
	if v.Kind() == sqltypes.KindFloat {
		f, _ := v.AsFloat()
		return fmt.Sprintf("f:%.9g", f)
	}
	return v.String()
}

// assertApproxMultiset compares row multisets with float tolerance.
func assertApproxMultiset(t *testing.T, label string, want, got []storage.Row) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: row counts differ: want %d, got %d", label, len(want), len(got))
	}
	key := func(r storage.Row) string {
		parts := make([]string, len(r))
		for i, v := range r {
			parts[i] = canonicalValue(v)
		}
		return strings.Join(parts, "\x1f")
	}
	count := map[string]int{}
	for _, r := range want {
		count[key(r)]++
	}
	for _, r := range got {
		count[key(r)]--
	}
	for k, v := range count {
		if v != 0 {
			t.Fatalf("%s: row multiset mismatch (%q: %+d)", label, k, v)
		}
	}
}

// TestDifferentialParallel runs the full corpus on the parallel vectorized
// path at parallelism 1 and 4, in both iterative and rewrite modes, against
// the iterative row-engine ground truth.
func TestDifferentialParallel(t *testing.T) {
	// Shrink morsels so the small fixture really fans out across workers
	// (at the default morsel size every small table fits in one morsel and
	// the clamp would run a single worker).
	defer func(old int) { exec.MorselRows = old }(exec.MorselRows)
	exec.MorselRows = 64

	cfg := bench.SmallConfig()
	truth := diffEngine(t, engine.SYS1, engine.ModeIterative, cfg)
	for _, degree := range []int{1, 4} {
		for _, mode := range []engine.Mode{engine.ModeIterative, engine.ModeRewrite} {
			profile := engine.SYS1
			profile.Vectorized = true
			profile.Parallelism = degree
			par := diffEngine(t, profile, mode, cfg)
			for _, q := range differentialCorpus {
				q := q
				t.Run(fmt.Sprintf("p=%d/%s/%s", degree, mode, q.Name), func(t *testing.T) {
					want, err := truth.Query(q.SQL)
					if err != nil {
						t.Fatalf("ground truth: %v", err)
					}
					got, err := par.Query(q.SQL)
					if err != nil {
						t.Fatalf("parallel executor: %v", err)
					}
					assertApproxMultiset(t, "row-iterative vs parallel-vectorized",
						want.Rows, got.Rows)
				})
			}
		}
	}
}

// TestBatchContractProperty wraps every BatchIter edge of every corpus plan
// (serial and parallel) with a contract checker and drives the roots with
// adversarial batch sizes.
func TestBatchContractProperty(t *testing.T) {
	var mu sync.Mutex
	var violations []string
	hook := func(in exec.BatchIter) exec.BatchIter {
		return exec.NewContractChecker(in, func(violation string) {
			mu.Lock()
			violations = append(violations, "inner edge: "+violation)
			mu.Unlock()
		})
	}
	defer exec.SetBatchContractHook(nil)
	defer func(old int) { exec.MorselRows = old }(exec.MorselRows)
	exec.MorselRows = 64

	cfg := bench.SmallConfig()
	for _, degree := range []int{1, 4} {
		profile := engine.SYS1
		profile.Vectorized = true
		profile.Parallelism = degree
		eng := diffEngine(t, profile, engine.ModeRewrite, cfg)
		for _, q := range differentialCorpus {
			prep, err := eng.Prepare(q.SQL)
			if err != nil {
				t.Fatalf("%s: %v", q.Name, err)
			}
			// Ground truth from the same plan with the hook disarmed: the
			// checked runs below must reproduce it exactly. The checker
			// poisons every handed-out batch at the end of its validity
			// window, so any operator that retains a batch (or its column
			// vectors) past the contract reads sentinels and this
			// comparison fails — that is the retained-batch-aliasing half
			// of the property.
			exec.SetBatchContractHook(nil)
			want, err := exec.DrainBatches(prep.Node, exec.NewCtx(eng.Interp))
			if err != nil {
				t.Fatalf("%s (unchecked): %v", q.Name, err)
			}
			exec.SetBatchContractHook(hook)
			for _, max := range []int{1, 2, 3, 7, 1024} {
				ctx := exec.NewCtx(eng.Interp)
				bi, err := exec.OpenBatches(prep.Node, ctx)
				if err != nil {
					t.Fatalf("%s: %v", q.Name, err)
				}
				var got []storage.Row
				for {
					b, ok, err := bi.NextBatch(max)
					if err != nil {
						bi.Close()
						t.Fatalf("%s (max=%d): %v", q.Name, max, err)
					}
					if !ok {
						break
					}
					if b.Len() > max {
						mu.Lock()
						violations = append(violations,
							fmt.Sprintf("%s root: %d live rows for max %d", q.Name, b.Len(), max))
						mu.Unlock()
					}
					got = b.AppendTo(got)
				}
				bi.Close()
				assertApproxMultiset(t,
					fmt.Sprintf("%s (p=%d, max=%d) checked vs unchecked", q.Name, degree, max),
					want, got)
			}
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if len(violations) > 0 {
		t.Fatalf("batch-size contract violated %d times; first: %s",
			len(violations), violations[0])
	}
}

// TestExplainShowsParallelism pins the EXPLAIN surface for parallel plans:
// the configured degree and the parallel operator notes.
func TestExplainShowsParallelism(t *testing.T) {
	profile := engine.SYS1
	profile.Vectorized = true
	profile.Parallelism = 4
	explain := func(e *engine.Engine, sql string) string {
		t.Helper()
		p, err := e.Prepare(sql)
		if err != nil {
			t.Fatal(err)
		}
		return p.Describe(e.Mode, e.Profile.Vectorized)
	}
	eng := diffEngine(t, profile, engine.ModeIterative, bench.SmallConfig())
	out := explain(eng, "select custkey, count(*), sum(totalprice) from orders group by custkey")
	if !strings.Contains(out, "parallelism: 4") {
		t.Fatalf("EXPLAIN missing parallelism line:\n%s", out)
	}
	if !strings.Contains(out, "degree=4") {
		t.Fatalf("EXPLAIN missing parallel operator note:\n%s", out)
	}

	// The serial engine's EXPLAIN is unchanged (golden tests pin the exact
	// serial format; this guards the conditional here).
	serial := diffEngine(t, engine.SYS1, engine.ModeIterative, bench.SmallConfig())
	out = explain(serial, "select custkey, count(*) from orders group by custkey")
	if strings.Contains(out, "parallelism") {
		t.Fatalf("serial EXPLAIN mentions parallelism:\n%s", out)
	}
}
