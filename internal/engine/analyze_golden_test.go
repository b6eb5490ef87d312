package engine

// Golden EXPLAIN ANALYZE tests: the annotated operator trees for
// representative queries are snapshotted on the row, vectorized, and
// parallel (degree 4) executors. Row/batch counts and plan shape must stay
// stable run to run; wall times and an Exchange's batch count (a scheduling
// artefact) are scrubbed. Regenerate alongside the
// EXPLAIN goldens with:
//
//	go test ./internal/engine -run TestExplainAnalyzeGolden -update

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"udfdecorr/internal/exec"
)

// analyzeTimeScrub blanks the measured durations.
var analyzeTimeScrub = regexp.MustCompile(`(worker_time|time)=[^ \n]+`)

// exchangeBatchesScrub blanks an Exchange's output batch count, which
// depends on how its workers' output interleaves; its row counts stay.
var exchangeBatchesScrub = regexp.MustCompile(`(?m)^(\s*Exchange\(.*?) batches=[0-9]+`)

// scrubAnalyze blanks the run-varying fields of EXPLAIN ANALYZE output.
func scrubAnalyze(out string) string {
	out = analyzeTimeScrub.ReplaceAllString(out, "${1}=<t>")
	return exchangeBatchesScrub.ReplaceAllString(out, "${1} batches=<n>")
}

var analyzeCorpus = []struct {
	name string
	sql  string
}{
	{"example1_service_level", "select custkey, service_level(custkey) from customer"},
	{"plain_join_group_by", `select c.category, count(*), sum(o.totalprice)
	      from customer c join orders o on o.custkey = c.custkey
	      where c.custkey <= 30 group by c.category`},
	{"min_cost_supplier_subquery", `select partsuppkey, partkey from partsupp p1
	      where supplycost = (select min(supplycost) from partsupp p2
	                          where p2.partkey = p1.partkey)`},
}

func TestExplainAnalyzeGolden(t *testing.T) {
	// Shrink morsels so the tiny test tables split into enough morsels that a
	// degree-4 Exchange deterministically launches all 4 workers.
	defer func(n int) { exec.MorselRows = n }(exec.MorselRows)
	exec.MorselRows = 8

	for _, q := range analyzeCorpus {
		q := q
		t.Run(q.name, func(t *testing.T) {
			var b strings.Builder
			b.WriteString("query: " + strings.Join(strings.Fields(q.sql), " ") + "\n")
			run := func(tag string, profile Profile) {
				out := explainAnalyze(t, fullEngineProfile(t, profile, ModeRewrite), q.sql)
				b.WriteString("\n-- " + tag + " --\n")
				b.WriteString(scrubAnalyze(out))
			}
			vectorized := SYS1
			vectorized.Vectorized = true
			parallel := vectorized
			parallel.Parallelism = 4
			run("row", SYS1)
			run("vectorized", vectorized)
			run("parallel-4", parallel)
			got := b.String()

			path := filepath.Join("testdata", "explain_analyze", q.name+".golden")
			if *updateGolden {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden file %s (run with -update to create): %v", path, err)
			}
			if got != string(want) {
				t.Errorf("EXPLAIN ANALYZE drift for %s\n--- got ---\n%s--- want ---\n%s", q.name, got, want)
			}
		})
	}
}

// TestExplainAnalyzeParallelWorkers pins the structural guarantees that do
// not depend on golden bytes: every executor reports per-operator rows and
// time, and the parallel plan's Exchange absorbs its workers' stats.
func TestExplainAnalyzeParallelWorkers(t *testing.T) {
	defer func(n int) { exec.MorselRows = n }(exec.MorselRows)
	exec.MorselRows = 8

	// The rewritten form is a hash join whose probe pipeline runs under an
	// Exchange; the IndexNLJoin plans keep their serial form.
	const sql = "select custkey, service_level(custkey) from customer"
	profile := SYS1
	profile.Vectorized = true
	profile.Parallelism = 4
	out := explainAnalyze(t, fullEngineProfile(t, profile, ModeRewrite), sql)
	for _, want := range []string{"rows=", "time=", "workers=4", "worker_rows=", "worker_time="} {
		if !strings.Contains(out, want) {
			t.Errorf("parallel EXPLAIN ANALYZE missing %q:\n%s", want, out)
		}
	}
	if !strings.Contains(out, "Exchange(") {
		t.Errorf("parallel plan did not use an Exchange:\n%s", out)
	}
}
