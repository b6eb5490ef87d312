// The corpus subcommands — snapshot, verify, diff, loadcorpus — over one
// corpus-replay function.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"sort"
	"strconv"
	"strings"
	"time"

	"udfdecorr/internal/bench"
	"udfdecorr/internal/wire"
)

type namedSQL struct{ name, sql string }

func corpusQueries() []namedSQL {
	out := make([]namedSQL, len(bench.Corpus))
	for i, q := range bench.Corpus {
		out[i] = namedSQL{q.Name, q.SQL}
	}
	return out
}

// replay runs every query on one session and returns each one's canonical
// row multiset (bench.CanonicalRows: order-insensitive, floats at 9
// significant digits since parallel aggregation may re-associate additions)
// or, for a query that failed, its error.
func replay(ctx context.Context, c *wire.Client, session string, queries []namedSQL) (map[string]string, map[string]error) {
	results, failed := map[string]string{}, map[string]error{}
	for _, q := range queries {
		res, err := c.Query(ctx, session, q.sql)
		if err != nil {
			failed[q.name] = err
			continue
		}
		results[q.name] = bench.CanonicalRows(res.Rows)
	}
	return results, failed
}

// replayCorpus is replay for callers that need every query to succeed.
func replayCorpus(ctx context.Context, c *wire.Client, session string, queries []namedSQL) (map[string]string, error) {
	results, failed := replay(ctx, c, session, queries)
	for name, err := range failed {
		return nil, fmt.Errorf("corpus %s: %w", name, err)
	}
	return results, nil
}

// ---------------------------------------------------------------------------
// snapshot / verify: the corpus against a manifest of itself
// ---------------------------------------------------------------------------

// benchTables are the base tables of the bench schema whose row counts the
// corpus manifest pins (see bench.Schema).
var benchTables = []string{
	"customer", "orders", "lineitem", "partsupp", "categorydiscount",
	"partcost", "part", "category", "categoryancestor",
}

// corpusManifest is the ground truth a later run must match.
type corpusManifest struct {
	// Results maps corpus query name -> canonical row multiset.
	Results map[string]string `json:"results"`
	// RowCounts maps table -> count(*) at capture time.
	RowCounts map[string]int64 `json:"row_counts"`
}

func captureManifest(ctx context.Context, c *wire.Client) (*corpusManifest, error) {
	session, err := iterativeSession(ctx, c)
	if err != nil {
		return nil, err
	}
	m := &corpusManifest{RowCounts: map[string]int64{}}
	if m.Results, err = replayCorpus(ctx, c, session, corpusQueries()); err != nil {
		return nil, err
	}
	for _, t := range benchTables {
		res, err := c.Query(ctx, session, "select count(*) from "+t)
		if err != nil {
			return nil, err
		}
		if len(res.Rows) != 1 || len(res.Rows[0]) != 1 {
			return nil, fmt.Errorf("count(*) from %s: unexpected shape %v", t, res.Rows)
		}
		if m.RowCounts[t], err = strconv.ParseInt(res.Rows[0][0], 10, 64); err != nil {
			return nil, fmt.Errorf("count(*) from %s: %w", t, err)
		}
	}
	return m, nil
}

func setupSnapshot(fs *flag.FlagSet) func(context.Context) error {
	addr, path := addrFlag(fs), manifestFlag(fs)
	return func(ctx context.Context) error {
		m, err := captureManifest(ctx, wire.NewClient(*addr))
		if err != nil {
			return err
		}
		if err := writeJSONFileAtomic(*path, m); err != nil {
			return err
		}
		fmt.Printf("snapshot: %d queries, %d tables -> %s\n", len(m.Results), len(m.RowCounts), *path)
		return nil
	}
}

func setupVerify(fs *flag.FlagSet) func(context.Context) error {
	addr, path := addrFlag(fs), manifestFlag(fs)
	return func(ctx context.Context) error {
		var want corpusManifest
		if err := readJSONFile(*path, &want); err != nil {
			return err
		}
		got, err := captureManifest(ctx, wire.NewClient(*addr))
		if err != nil {
			return err
		}
		var bad []string
		for name, w := range want.Results {
			if got.Results[name] != w {
				bad = append(bad, "query "+name)
			}
		}
		for table, w := range want.RowCounts {
			if got.RowCounts[table] != w {
				bad = append(bad, fmt.Sprintf("row count %s: %d != %d", table, got.RowCounts[table], w))
			}
		}
		if len(bad) > 0 {
			sort.Strings(bad)
			return fmt.Errorf("state diverges from manifest %s:\n  %s", *path, strings.Join(bad, "\n  "))
		}
		fmt.Printf("verify: %d corpus queries and %d row counts identical to %s\n",
			len(want.Results), len(want.RowCounts), *path)
		return nil
	}
}

// ---------------------------------------------------------------------------
// loadcorpus: sharded schema + UDFs + dataset through the router
// ---------------------------------------------------------------------------

func setupLoadCorpus(fs *flag.FlagSet) func(context.Context) error {
	addr := addrFlag(fs)
	scale := fs.String("scale", "small", "dataset scale: small|bench")
	return func(ctx context.Context) error {
		var cfg bench.Config
		switch *scale {
		case "small":
			cfg = bench.SmallConfig()
		case "bench":
			cfg = bench.DefaultConfig()
		default:
			return fmt.Errorf("unknown -scale %q (want small|bench)", *scale)
		}
		c := wire.NewClient(*addr)
		sess, err := c.NewSession(ctx, map[string]any{"mode": "rewrite"})
		if err != nil {
			return fmt.Errorf("creating session (is the router running?): %w", err)
		}
		schema, err := bench.ShardedSchema()
		if err != nil {
			return err
		}
		if err := c.Exec(ctx, sess, schema+bench.UDFs+bench.ExtraUDFs); err != nil {
			return fmt.Errorf("installing schema + UDFs: %w", err)
		}
		start := time.Now()
		var rows int
		for _, t := range bench.Generate(cfg) {
			const batch = 256
			for lo := 0; lo < len(t.Rows); lo += batch {
				hi := min(lo+batch, len(t.Rows))
				var script strings.Builder
				for _, row := range t.Rows[lo:hi] {
					script.WriteString("insert into " + t.Name + " values (")
					for i, v := range row {
						if i > 0 {
							script.WriteString(", ")
						}
						script.WriteString(v.String())
					}
					script.WriteString(");\n")
				}
				if err := c.Exec(ctx, sess, script.String()); err != nil {
					return fmt.Errorf("loading %s rows %d..%d: %w", t.Name, lo, hi, err)
				}
			}
			rows += len(t.Rows)
			slog.Info("table loaded", "table", t.Name, "rows", len(t.Rows))
		}
		fmt.Printf("loadcorpus: scale=%s rows=%d elapsed=%s\n", *scale, rows, time.Since(start).Round(time.Millisecond))
		return nil
	}
}

// ---------------------------------------------------------------------------
// diff: corpus differential, router vs single-node baseline
// ---------------------------------------------------------------------------

// extraDiff exercises the routed shapes the corpus leaves thin: partial-
// aggregate merges (grouped and scalar, avg needs the sum/count recombine),
// COUNT(*) vs COUNT(col) over shards, a pinned point query and a
// replicated-to-sharded join probe.
var extraDiff = []namedSQL{
	{"grouped partial merge", "select custkey, count(*), avg(totalprice), min(totalprice) from orders where custkey <= 30 group by custkey"},
	{"scalar partial merge", "select avg(totalprice), max(totalprice) from orders"},
	{"count star vs col", "select count(*), count(custkey) from orders"},
	{"pinned point query", "select orderkey, totalprice from orders where custkey = 7"},
	{"replicated join probe", "select o.orderkey, c.name from orders o join customer c on o.custkey = c.custkey where o.orderkey <= 80"},
}

// diffCombos are the session settings the differential runs under: both
// executors, plus the vectorized rewrite path.
var diffCombos = []map[string]any{
	{"mode": "rewrite", "profile": "sys1"},
	{"mode": "iterative", "profile": "sys1"},
	{"mode": "rewrite", "profile": "sys1", "vectorized": true},
}

func setupDiff(fs *flag.FlagSet) func(context.Context) error {
	addr := addrFlag(fs)
	baseline := fs.String("baseline", "", "base URL of a single-node udfserverd holding the same dataset")
	return func(ctx context.Context) error {
		if *baseline == "" {
			return fmt.Errorf("diff needs -baseline URL (a single-node udfserverd with the same dataset)")
		}
		return runDiff(ctx, wire.NewClient(*addr), wire.NewClient(*baseline))
	}
}

func runDiff(ctx context.Context, rc, bc *wire.Client) error {
	// A corpus query the planner cannot shard must fail with a typed
	// UNSHARDABLE naming the shape, never a silently wrong merged answer;
	// the baseline is not asked those.
	for _, q := range bench.Corpus {
		if _, known := bench.ShardClass[q.Name]; !known {
			return fmt.Errorf("corpus query %q missing from bench.ShardClass", q.Name)
		}
	}
	all := append(corpusQueries(), extraDiff...)
	var routable []namedSQL
	for _, q := range all {
		if bench.ShardClass[q.name] != "rejected" {
			routable = append(routable, q)
		}
	}
	var checked, rejected, failures int
	fail := func(msg string, q namedSQL, combo map[string]any, err error) {
		failures++
		slog.Error(msg, "query", q.name, "combo", combo, "err", err)
	}
	for _, combo := range diffCombos {
		rsess, err := rc.NewSession(ctx, combo)
		if err != nil {
			return fmt.Errorf("router session %v: %w", combo, err)
		}
		bsess, err := bc.NewSession(ctx, combo)
		if err != nil {
			return fmt.Errorf("baseline session %v: %w", combo, err)
		}
		want, wantErr := replay(ctx, bc, bsess, routable)
		got, gotErr := replay(ctx, rc, rsess, all)
		for _, q := range all {
			switch {
			case bench.ShardClass[q.name] == "rejected":
				var re *wire.RemoteError
				if !errors.As(gotErr[q.name], &re) || re.Code != wire.CodeUnshardable {
					fail("rejected query did not fail typed", q, combo, gotErr[q.name])
					continue
				}
				rejected++
			case wantErr[q.name] != nil:
				fail("baseline query failed", q, combo, wantErr[q.name])
			case gotErr[q.name] != nil:
				fail("router query failed", q, combo, gotErr[q.name])
			default:
				checked++
				if got[q.name] != want[q.name] {
					fail("differential mismatch", q, combo, nil)
				}
			}
		}
	}
	fmt.Printf("diff: combos=%d checked=%d rejected_typed=%d failures=%d\n",
		len(diffCombos), checked, rejected, failures)
	if failures > 0 {
		return fmt.Errorf("%d differential failures", failures)
	}
	fmt.Println("all routed queries matched the single-node baseline")
	return nil
}
